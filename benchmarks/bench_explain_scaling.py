"""Explain cost against database size: foreign-key clauses follow the witness.

Every explanation adds the referential-integrity clauses ``child ⇒ parent₁ ∨
…`` of its frontier tuples (``repro.core.fk.foreign_key_clauses``) before the
min-ones solve.  Those clauses are answered by one lookup per frontier tuple
in the parent relation's maintained hash index, so their cost should depend
on the witness, not on |D|.  This benchmark explains the course submission
pool on ``university:200`` and ``university:2000`` and prints, per explain,
the median and mean time inside ``foreign_key_clauses`` and inside
``MinOnesSolver.minimize``.

Each size runs the pool twice on one instance, each pass with a fresh
``EngineSession``: the first pass builds the catalog's indexes and pays
first-call costs, the second is timed.  The gate fails the run when the
median FK-clause time per explain at 2000 students exceeds ``MAX_FK_GROWTH``
times the figure at 200; a whole-relation parent scan per explain grows it
~10×.  The gate reads the median because two q6 mutants' witness problems
themselves grow with the data (their frontier is ~300 tuples at 200 students
and ~3.5k at 2000), which moves the mean even when each lookup is O(1).

Run: ``PYTHONPATH=src python benchmarks/bench_explain_scaling.py``
"""

from __future__ import annotations

import gc
import statistics
import sys
import time
from contextlib import contextmanager

import repro.core.aggregates as aggregates_module
import repro.core.optsigma as optsigma_module
from repro.core import find_smallest_counterexample
from repro.datagen import university_instance
from repro.engine import EngineSession
from repro.errors import ReproError
from repro.solver.minones import MinOnesSolver
from repro.workload import course_questions, course_submission_pool

SIZES = (200, 2000)
#: Allowed growth of FK-clause ms per explain from the smallest to the
#: largest size (10× the students).
MAX_FK_GROWTH = 3.0


@contextmanager
def _timing(owner, attribute: str, calls: list[float]):
    """Record the wall time (ms) of every call to ``owner.attribute`` in ``calls``."""
    original = getattr(owner, attribute)

    def timed(*args, **kwargs):
        started = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            calls.append(1000 * (time.perf_counter() - started))

    setattr(owner, attribute, timed)
    try:
        yield
    finally:
        setattr(owner, attribute, original)


def _pairs():
    pool = course_submission_pool()
    return [
        (question.correct_query, wrong)
        for question in course_questions()
        for wrong in pool.wrong_queries[question.key]
    ]


def _explain_pass(pairs, instance) -> int:
    session = EngineSession(instance)
    explained = 0
    for correct, wrong in pairs:
        try:
            find_smallest_counterexample(correct, wrong, instance, session=session)
        except ReproError:
            continue
        explained += 1
    return explained


def measure(students: int, pairs) -> dict:
    instance = university_instance(students, seed=0)
    _explain_pass(pairs, instance)  # warm-up: indexes, first-call costs
    fk_calls: list[float] = []
    minimize_calls: list[float] = []
    gc.collect()
    gc.disable()  # a collection landing in a sub-millisecond call would swamp it
    try:
        with _timing(optsigma_module, "foreign_key_clauses", fk_calls), _timing(
            aggregates_module, "foreign_key_clauses", fk_calls
        ), _timing(MinOnesSolver, "minimize", minimize_calls):
            explained = _explain_pass(pairs, instance)
    finally:
        gc.enable()
    return {
        "students": students,
        "tuples": instance.total_size(),
        "explained": explained,
        "fk_calls": len(fk_calls),
        "fk_ms": statistics.median(fk_calls),
        "fk_mean_ms": statistics.fmean(fk_calls),
        "minimize_calls": len(minimize_calls),
        "minimize_ms": statistics.median(minimize_calls),
        "minimize_mean_ms": statistics.fmean(minimize_calls),
    }


def run_benchmark(sizes=SIZES) -> dict:
    pairs = _pairs()
    rows = [measure(students, pairs) for students in sizes]
    return {
        "pairs": len(pairs),
        "sizes": rows,
        "fk_growth": rows[-1]["fk_ms"] / rows[0]["fk_ms"],
    }


def main() -> int:
    result = run_benchmark()
    print(f"warm explains of the course pool ({result['pairs']} pairs), ms per explain:")
    print(
        f"  {'students':>8} {'tuples':>7} {'explained':>9} "
        f"{'fk p50':>8} {'fk mean':>8} {'minimize p50':>12} {'minimize mean':>13}"
    )
    for row in result["sizes"]:
        print(
            f"  {row['students']:>8} {row['tuples']:>7} {row['explained']:>9} "
            f"{row['fk_ms']:>8.3f} {row['fk_mean_ms']:>8.3f} "
            f"{row['minimize_ms']:>12.3f} {row['minimize_mean_ms']:>13.3f}"
        )
    print(
        f"  FK-clause p50 growth {SIZES[0]} -> {SIZES[-1]} students: "
        f"{result['fk_growth']:.2f}x (gate <= {MAX_FK_GROWTH}x)"
    )
    from _summary import write_summary

    print(f"wrote {write_summary('explain_scaling', result)}")
    if result["fk_growth"] > MAX_FK_GROWTH:
        print("FAIL: foreign-key clause cost grows with the database", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
