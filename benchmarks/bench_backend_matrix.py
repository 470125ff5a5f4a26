"""Backend matrix: Python plan engine vs. SQLite on the TPC-H grading workload.

Grades the five TPC-H benchmark queries (each: the reference plus its two
wrong variants, screening mode) against one generated TPC-H-lite instance on
both execution backends, and times four regimes per backend:

* ``cold eval``  — a fresh :class:`~repro.engine.session.EngineSession`
  evaluates all 15 workload queries once (for SQLite this includes loading
  the ``:memory:`` database and compiling every plan to SQL);
* ``warm eval``  — the session keeps its compiled/optimized plans but the
  result memo is cleared (:meth:`EngineSession.clear_cached_results`), so
  every query *executes* again; best of three passes.  This is the regime a
  grading daemon lives in — plans hot, data fresh;
* ``memo eval``  — the same session evaluates again with the result memo
  intact (both backends serve these from the shared memo — memo cost is
  backend-independent by design);
* ``grading``    — a fresh :class:`~repro.api.service.GradingService` batch
  over the 15 (reference, submission) pairs.

The benchmark asserts the matrix property the differential fuzz suite
establishes statistically: identical row sets and bit-identical grades on
both backends.  It does not assert a backend winner — the point of the matrix is that backend choice is a
deployment decision, not a correctness one.

Run directly (``PYTHONPATH=src python benchmarks/bench_backend_matrix.py``)
for a table, or through pytest for the assertions.  ``REPRO_BENCH_SCALE``
overrides the TPC-H scale factor (default 1 ≈ 7k tuples).
"""

from __future__ import annotations

import os
import time

from repro.api import GradingService, SubmissionRequest
from repro.datagen import tpch_instance
from repro.engine import EngineSession
from repro.workload import tpch_queries

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1"))
WARM_PASSES = int(os.environ.get("REPRO_BENCH_WARM_PASSES", "3"))


def _workload_queries():
    queries = []
    for query in tpch_queries():
        queries.append(query.correct_query)
        queries.extend(query.wrong_queries)
    return queries


def _requests():
    requests = []
    for query in tpch_queries():
        for index, wrong in enumerate(query.wrong_texts):
            requests.append(
                SubmissionRequest(
                    query.correct_text,
                    wrong,
                    id=f"{query.key}/wrong{index}",
                    explain=False,
                )
            )
        requests.append(
            SubmissionRequest(
                query.correct_text, query.correct_text, id=f"{query.key}/ok", explain=False
            )
        )
    return requests


#: Tracing overhead gate: traced warm grading may cost at most 5% over
#: untraced, plus a small absolute epsilon so micro-second timing noise on
#: tiny scale factors cannot fail the gate spuriously.
TRACE_OVERHEAD_RATIO = 1.05
TRACE_OVERHEAD_EPSILON_S = 0.05


def _tracing_overhead(instance, requests) -> dict:
    """Best-of-N warm grading, untraced vs under a span with operator tracing.

    The traced regime is exactly what ``/v1/grade?trace=1`` exercises: an
    ambient span (so every ``grade.*`` phase records), ``operator_trace``
    enabled (so every evaluation runs through the :class:`PlanAnalyzer` and
    emits per-operator spans).  The tracer has no store or observer — spans
    are built and dropped, which is the marginal cost being measured.
    """
    from repro.obs.trace import Tracer, operator_trace

    service = GradingService.for_instance(instance, name="tpch")
    handle = service.handle_for(service.default_dataset, service.default_seed)

    def grading_pass() -> float:
        handle.session.clear_cached_results()
        start = time.perf_counter()
        for request in requests:
            service.submit(request)
        return time.perf_counter() - start

    grading_pass()  # warm plans and sessions once, untimed
    tracer = Tracer("bench")
    untraced = traced = float("inf")
    # Interleave the regimes (untraced, traced, untraced, ...) so slow drift
    # on the host — thermal throttling, a background compaction — lands on
    # both sides instead of biasing whichever regime runs last.
    for _ in range(max(2, WARM_PASSES * 2)):
        untraced = min(untraced, grading_pass())
        with tracer.span("bench.grade"), operator_trace(True):
            traced = min(traced, grading_pass())
    return {
        "untraced_warm_grading_s": untraced,
        "traced_warm_grading_s": traced,
        "tracing_overhead": traced / untraced if untraced > 0 else 1.0,
    }


def _warm_eval_seconds(session: EngineSession, queries, passes: int = WARM_PASSES) -> float:
    """Best-of-``passes`` re-execution time with plans hot, result memos cold."""
    best = float("inf")
    for _ in range(max(1, passes)):
        session.clear_cached_results()
        start = time.perf_counter()
        for query in queries:
            session.evaluate(query)
        best = min(best, time.perf_counter() - start)
    return best


def run_benchmark(seed: int = 7) -> dict:
    instance = tpch_instance(SCALE, seed=seed)
    queries = _workload_queries()
    requests = _requests()
    result: dict = {"total_tuples": instance.total_size(), "queries": len(queries)}

    row_sets: dict[str, list] = {}
    for backend in ("python", "sqlite"):
        session = EngineSession(instance, backend=backend)
        start = time.perf_counter()
        row_sets[backend] = [session.evaluate(q).rows for q in queries]
        result[f"{backend}_cold_s"] = time.perf_counter() - start
        result[f"{backend}_warm_s"] = _warm_eval_seconds(session, queries)
        start = time.perf_counter()
        for query in queries:
            session.evaluate(query)
        result[f"{backend}_memo_s"] = time.perf_counter() - start

        service = GradingService.for_instance(instance, name="tpch", backend=backend)
        start = time.perf_counter()
        graded = service.submit_batch(requests, workers=1)
        result[f"{backend}_grading_s"] = time.perf_counter() - start
        result[f"{backend}_grades"] = [
            g.to_dict(include_timings=False) for g in graded
        ]
        if backend == "sqlite":
            stats = session.stats
            result["sqlite_statements"] = stats["sqlite_statements"]
            result["sqlite_fallbacks"] = stats["sqlite_fallbacks"]

    assert row_sets["python"] == row_sets["sqlite"], "backends disagree on rows"
    assert result["python_grades"] == result["sqlite_grades"], (
        "backends disagree on grades"
    )
    result["wrong"] = sum(1 for g in result["python_grades"] if not g["correct"])

    result.update(_tracing_overhead(instance, requests))
    # Gate: per-request tracing must stay cheap enough to leave on-demand
    # (?trace=1) tracing viable on a production daemon.
    assert result["traced_warm_grading_s"] <= (
        result["untraced_warm_grading_s"] * TRACE_OVERHEAD_RATIO
        + TRACE_OVERHEAD_EPSILON_S
    ), (
        f"traced warm grading ({result['traced_warm_grading_s']:.3f}s) exceeds "
        f"{TRACE_OVERHEAD_RATIO:.0%} of untraced "
        f"({result['untraced_warm_grading_s']:.3f}s)"
    )
    return result


def test_backend_matrix(benchmark=None):
    if benchmark is not None:
        result = benchmark.pedantic(run_benchmark, rounds=1, iterations=1)
        benchmark.extra_info["result"] = result
    else:  # plain pytest without pytest-benchmark
        result = run_benchmark()
    # The workload must actually run on SQLite, not fall back wholesale.
    assert result["sqlite_statements"] > 0
    assert result["sqlite_fallbacks"] == 0
    assert result["wrong"] == 10  # two wrong variants per TPC-H query


def main() -> None:
    result = run_benchmark()
    print(
        f"TPC-H grading workload, scale {SCALE} "
        f"({result['total_tuples']} tuples, {result['queries']} queries, "
        f"{result['wrong']} wrong submissions)"
    )
    print(f"{'regime':<14} {'python':>10} {'sqlite':>10}")
    for regime in ("cold", "warm", "memo", "grading"):
        py = result[f"python_{regime}_s"]
        sq = result[f"sqlite_{regime}_s"]
        print(f"{regime + ' eval':<14} {py:>9.3f}s {sq:>9.3f}s")
    print(
        f"sqlite executed {result['sqlite_statements']} statements, "
        f"{result['sqlite_fallbacks']} fallbacks; grades bit-identical across backends"
    )
    print(
        f"tracing overhead on warm grading: {result['traced_warm_grading_s']:.3f}s "
        f"traced vs {result['untraced_warm_grading_s']:.3f}s untraced "
        f"({result['tracing_overhead']:.2f}x, gate {TRACE_OVERHEAD_RATIO:.2f}x)"
    )
    from _summary import write_summary

    summary = {k: v for k, v in result.items() if not k.endswith("_grades")}
    print(f"wrote {write_summary('backend_matrix', summary)}")


if __name__ == "__main__":
    main()
