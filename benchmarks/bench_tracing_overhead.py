"""Tracing overhead on warm TPC-H screening, with every verdict checked by SQLite.

Grades the five TPC-H benchmark queries (each: the reference against itself
plus its two wrong variants, screening mode) against one generated
TPC-H-lite instance, then gates two things:

* **verdicts** — the ten wrong variants grade wrong, and every grade's
  verdict is the SQLite oracle's: correct exactly when
  :meth:`~repro.engine.backends.sqlite.SqliteBackend.rows` returns equal row
  sets for the reference and the submission (the oracle refuses rather than
  answers when it cannot run a query faithfully, which fails the run);
* **tracing overhead** — best-of-N warm grading (plans hot, result memo
  cleared before each pass) under an ambient span, which opens a span per
  engine operator, costs at most 5% over untraced, plus an epsilon of 1% of
  the untraced time.  The traced regime is what ``/v1/grade?trace=1``
  exercises.

Run directly (``PYTHONPATH=src python benchmarks/bench_tracing_overhead.py``)
for a summary, or through pytest for the assertions.  ``REPRO_BENCH_SCALE``
overrides the TPC-H scale factor (default 1 ≈ 7k tuples) and
``REPRO_BENCH_WARM_PASSES`` the passes per regime (default 3; CI runs scale 1
with 10 passes).  At small scale factors a pass takes a few milliseconds and
the gate measures timer noise more than tracing.
"""

from __future__ import annotations

import os
import time

from repro.api import GradingService, SubmissionRequest
from repro.datagen import tpch_instance
from repro.engine.backends.sqlite import SqliteBackend
from repro.obs.trace import Tracer
from repro.parser import parse_query
from repro.workload import tpch_queries

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1"))
WARM_PASSES = int(os.environ.get("REPRO_BENCH_WARM_PASSES", "3"))

#: Tracing overhead gate: traced warm grading may cost at most 5% over
#: untraced, plus an epsilon relative to the untraced time, so the gate
#: binds at every scale instead of being absorbed by a fixed allowance.
TRACE_OVERHEAD_RATIO = 1.05
TRACE_OVERHEAD_EPSILON = 0.01


def _requests() -> list[SubmissionRequest]:
    requests = []
    for query in tpch_queries():
        for index, wrong in enumerate(query.wrong_texts):
            requests.append(
                SubmissionRequest(
                    query.correct_text, wrong, id=f"{query.key}/wrong{index}", explain=False
                )
            )
        requests.append(
            SubmissionRequest(
                query.correct_text, query.correct_text, id=f"{query.key}/ok", explain=False
            )
        )
    return requests


def _check_verdicts(instance, requests, graded) -> int:
    """Assert every verdict is the oracle's; return the number graded wrong."""
    oracle = SqliteBackend(instance)
    for request, grade in zip(requests, graded):
        agree = oracle.rows(parse_query(request.correct_query)) == oracle.rows(
            parse_query(request.test_query)
        )
        assert grade.correct == agree, f"{request.id}: grade disagrees with the oracle"
    return sum(1 for grade in graded if not grade.correct)


def run_benchmark(seed: int = 7) -> dict:
    instance = tpch_instance(SCALE, seed=seed)
    requests = _requests()
    service = GradingService.for_instance(instance, name="tpch")
    session = service.session_for()

    graded = service.submit_batch(requests)  # also warms the plans
    result: dict = {
        "total_tuples": instance.total_size(),
        "submissions": len(requests),
        "wrong": _check_verdicts(instance, requests, graded),
    }

    def grading_pass() -> float:
        session.clear_cached_results()
        start = time.perf_counter()
        for request in requests:
            service.submit(request)
        return time.perf_counter() - start

    # The tracer has no store or observer: spans are built and dropped,
    # which is the marginal cost being measured.
    tracer = Tracer("bench")
    untraced = traced = float("inf")
    # Interleave the regimes (untraced, traced, untraced, ...) so slow drift
    # on the host lands on both sides instead of biasing the last one.
    for _ in range(max(2, WARM_PASSES * 2)):
        untraced = min(untraced, grading_pass())
        with tracer.span("bench.grade"):
            traced = min(traced, grading_pass())
    result.update(
        untraced_warm_grading_s=untraced,
        traced_warm_grading_s=traced,
        tracing_overhead=traced / untraced if untraced > 0 else 1.0,
    )
    # Gate: per-request tracing must stay cheap enough to leave on-demand
    # (?trace=1) tracing viable on a production daemon.
    assert traced <= untraced * (TRACE_OVERHEAD_RATIO + TRACE_OVERHEAD_EPSILON), (
        f"traced warm grading ({traced:.3f}s) exceeds "
        f"{TRACE_OVERHEAD_RATIO + TRACE_OVERHEAD_EPSILON:.0%} of untraced ({untraced:.3f}s)"
    )
    return result


def test_tracing_overhead(benchmark=None):
    if benchmark is not None:
        result = benchmark.pedantic(run_benchmark, rounds=1, iterations=1)
        benchmark.extra_info["result"] = result
    else:  # plain pytest without pytest-benchmark
        result = run_benchmark()
    assert result["wrong"] == 10  # two wrong variants per TPC-H query


def main() -> None:
    result = run_benchmark()
    assert result["wrong"] == 10, result["wrong"]
    print(
        f"TPC-H screening workload, scale {SCALE} "
        f"({result['total_tuples']} tuples, {result['submissions']} submissions, "
        f"{result['wrong']} wrong; every verdict matches the SQLite oracle)"
    )
    print(
        f"tracing overhead on warm grading: {result['traced_warm_grading_s']:.3f}s "
        f"traced vs {result['untraced_warm_grading_s']:.3f}s untraced "
        f"({result['tracing_overhead']:.2f}x, gate {TRACE_OVERHEAD_RATIO + TRACE_OVERHEAD_EPSILON:.2f}x)"
    )
    from _summary import write_summary

    print(f"wrote {write_summary('tracing_overhead', result)}")


if __name__ == "__main__":
    main()
