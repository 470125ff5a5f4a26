"""Grading-service throughput: submissions/sec, cold per-submission vs the service.

Models the paper's deployment (§6–§7.1): a whole class's submissions for the
eight course homework questions are graded against one hidden university
instance.  Each simulated student either solves a question or lands on one of
the hand-written classic mistakes (which earns a counterexample), so the
workload mixes cheap agreement checks with full counterexample searches —
and, as in a real class, many students submit the *same* wrong query.

Two configurations grade the identical workload:

* ``cold``    — the pre-service consumption pattern: a fresh
                :class:`~repro.ratest.system.RATest` (and therefore a fresh
                engine session) per submission, the way the ``explain`` CLI
                and the old example loops worked;
* ``service`` — ``GradingService.submit_batch``: one warm session shared by
                all submissions.

The benchmark asserts the service returns bit-identical outcomes to cold
grading and beats it by more than 2× — the win is the shared warm session
(plans + cached reference results) plus batch deduplication (one
counterexample explains every student who made the same mistake).

Run directly (``PYTHONPATH=src python benchmarks/bench_service_throughput.py``)
for a table, or through pytest
(``pytest benchmarks/bench_service_throughput.py``) for the assertions.
"""

from __future__ import annotations

import random
import time

from repro.api import GradingService, SubmissionRequest
from repro.datagen import university_instance
from repro.engine import EngineSession
from repro.ratest import RATest
from repro.workload import course_questions

#: Hidden-instance size (students); ≈260 tuples, the scale of §7.1's grader.
HIDDEN_STUDENTS = 60
#: Simulated class size: each student submits one query per question.
CLASS_SIZE = 25


def _submissions(seed: int = 7) -> list[SubmissionRequest]:
    rng = random.Random(seed)
    requests = []
    for student in range(CLASS_SIZE):
        for question in course_questions():
            candidates = (question.correct_text, *question.wrong_texts)
            # Half the class gets it right; mistakes repeat across students.
            submitted = question.correct_text if rng.random() < 0.5 else rng.choice(candidates)
            requests.append(
                SubmissionRequest(
                    question.correct_text,
                    submitted,
                    id=f"student{student}/{question.key}",
                )
            )
    return requests


def run_benchmark(seed: int = 2018) -> dict:
    instance = university_instance(HIDDEN_STUDENTS, seed=seed)
    requests = _submissions()

    # Build the per-relation hash indexes once so every configuration starts
    # from the same storage state (they are cached on the shared instance).
    warmup = EngineSession(instance)
    for question in course_questions():
        warmup.evaluate(question.correct_query)

    start = time.perf_counter()
    cold_outcomes = [
        RATest(instance).check(request.correct_query, request.test_query)
        for request in requests
    ]
    cold_s = time.perf_counter() - start

    service = GradingService.for_instance(instance, name="hidden")
    start = time.perf_counter()
    graded = service.submit_batch(requests)
    service_s = time.perf_counter() - start

    def grades(outcomes):
        return [outcome.to_dict(include_timings=False) for outcome in outcomes]

    assert grades(cold_outcomes) == grades(g.outcome for g in graded)

    n = len(requests)
    distinct = len({(r.correct_query, r.test_query) for r in requests})
    return {
        "total_tuples": instance.total_size(),
        "submissions": n,
        "distinct": distinct,
        "wrong": sum(1 for g in graded if not g.correct),
        "cold_s": cold_s,
        "service_s": service_s,
        "cold_rate": n / cold_s,
        "service_rate": n / service_s,
        "speedup": cold_s / service_s,
    }


def test_service_throughput(benchmark=None):
    if benchmark is not None:
        result = benchmark.pedantic(run_benchmark, rounds=1, iterations=1)
        benchmark.extra_info["result"] = result
    else:  # plain pytest without pytest-benchmark
        result = run_benchmark()
    assert result["wrong"] > 0  # the workload exercises counterexamples
    # The acceptance bar: batch grading on the shared warm session (plus
    # dedup) beats per-submission cold grading.  Locally ~8x; 2x leaves
    # headroom for noisy CI machines.
    assert result["speedup"] > 2.0


def main() -> None:
    result = run_benchmark()
    print(
        f"course grading workload: {result['submissions']} submissions "
        f"({result['distinct']} distinct, {result['wrong']} wrong) "
        f"on {result['total_tuples']} hidden tuples"
    )
    print(
        f"  cold serial (fresh RATest each)   : {result['cold_s']:7.3f} s   "
        f"{result['cold_rate']:7.2f} subs/s"
    )
    print(
        f"  service submit_batch              : {result['service_s']:7.3f} s   "
        f"{result['service_rate']:7.2f} subs/s   ({result['speedup']:.2f}x)"
    )
    from _summary import write_summary

    print(f"wrote {write_summary('service_throughput', result)}")


if __name__ == "__main__":
    main()
