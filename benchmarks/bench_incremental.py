"""Micro-benchmark: warm re-grading after an edit vs. cold re-grading.

Models the instructor-edits-the-dataset loop on a 200-student course: the
grading daemon has already screened the whole class's submissions (one warm
:class:`EngineSession`, every memoized subplan hot), then a single tuple of
one relation is edited — a grade correction.  Two ways to re-screen the full
workload are timed:

* ``warm`` — the *same* session: memo entries whose plans scan the edited
  relation were dropped, every other entry (and every plan) survives;
* ``cold`` — a fresh ``EngineSession`` on the mutated instance.

The workload is the realistic shape of a class: per question, the reference
solution plus two dozen superficially-different submissions (extra join
hops, overly strict grade filters — the phrasings students actually produce)
plus the handwritten wrong submissions from ``repro.workload.course``.  The
timed screen is what a screening pass fundamentally is — the full row set of
every submission compared against its reference — and both re-screens must
be bit-identical.  Both timings are printed; no speedup is gated.  A
separate untimed pass re-grades the wrong submissions *with* counterexample
explanations through the full service envelope and checks those are
bit-identical too.

A second timed section covers the solver layer end to end: provenance CNFs
are keyed by query structure modulo renaming, so a warm session that has
already explained a wrong submission explains a renamed-duplicate
resubmission faster than a cold session explains it from scratch — the
cached post-Tseitin clause set warm-starts the ``SATSolver`` instead of
re-encoding and re-converging on a first model.

Run directly (``PYTHONPATH=src python benchmarks/bench_incremental.py``) for
a table, or through pytest to assert the gates.
"""

from __future__ import annotations

import time

from repro.api.serialization import outcome_to_dict
from repro.api.service import grade_queries
from repro.core.optsigma import smallest_witness_optsigma
from repro.datagen.university import university_instance, university_schema
from repro.engine import EngineSession
from repro.parser import parse_query
from repro.workload.course import course_questions

NUM_STUDENTS = 200
VARIANTS_PER_QUESTION = 24
REUSE_ROUNDS = 10


def _submission_variants(correct_text: str, count: int) -> list[str]:
    """Superficially different phrasings of one reference solution.

    Each variant re-joins the solution with a freshly renamed ``Registration``
    copy under a distinct predicate, so every submission compiles to a
    distinct plan (distinct hash-join work for a cold session) while staying
    semantically equal — or, for the strict grade filters, a near-miss.
    """
    schema = university_schema()
    attrs = parse_query(correct_text).output_schema(schema).attribute_names
    join_attr = "course" if "course" in attrs else "name"
    projection = ", ".join(attrs)
    variants = []
    for index in range(count):
        variants.append(
            f"\\project_{{{projection}}} (({correct_text}) "
            f"\\join_{{{join_attr} = x.{join_attr} and x.grade > {90 + index % 10}}} "
            f"\\rename_{{prefix: x}} Registration)"
        )
    return variants


def _workload():
    """(reference, submission) expression pairs for the whole class."""
    pairs = []
    wrong_pairs = []
    for question in course_questions():
        reference = parse_query(question.correct_text)
        pairs.append((reference, reference))
        for text in _submission_variants(question.correct_text, VARIANTS_PER_QUESTION):
            pairs.append((reference, parse_query(text)))
        for text in question.wrong_texts:
            wrong = parse_query(text)
            pairs.append((reference, wrong))
            wrong_pairs.append((reference, wrong))
    return pairs, wrong_pairs


def _screen_all(session: EngineSession, pairs) -> list[tuple]:
    """Screening-mode verdicts plus the full row set of every submission."""
    out = []
    for reference, submission in pairs:
        rows = session.evaluate(submission).rows
        out.append((rows == session.evaluate(reference).rows, rows))
    return out


def _explain_all(session: EngineSession, pairs) -> list[dict]:
    return [
        outcome_to_dict(grade_queries(session, ref, sub), include_timings=False)
        for ref, sub in pairs
    ]


def _single_tuple_edit(instance) -> str:
    """Nudge one registration's grade; returns the edited tid."""
    registrations = instance.relation("Registration")
    tid = registrations.tids()[0]
    name, course, dept, grade = registrations.row(tid)
    registrations.update(
        tid, (name, course, dept, grade - 1 if grade > 40 else grade + 1)
    )
    return tid


def run_benchmark(num_students: int = NUM_STUDENTS, seed: int = 0) -> dict:
    instance = university_instance(num_students, seed=seed)
    pairs, wrong_pairs = _workload()

    warm = EngineSession(instance)
    _screen_all(warm, pairs)  # the already-graded class: every memo hot

    edited_tid = _single_tuple_edit(instance)

    start = time.perf_counter()
    warm_grades = _screen_all(warm, pairs)
    warm_s = time.perf_counter() - start

    cold = EngineSession(instance)
    start = time.perf_counter()
    cold_grades = _screen_all(cold, pairs)
    cold_s = time.perf_counter() - start

    # Untimed differential on the explanation path: counterexamples from the
    # warm session (clause cache hot, provenance recomputed where dropped)
    # must match a from-scratch session bit for bit.
    explain_identical = _explain_all(warm, wrong_pairs) == _explain_all(
        EngineSession(instance), wrong_pairs
    )

    stats = warm.cache_info()
    return {
        "students": num_students,
        "total_tuples": instance.total_size(),
        "submissions": len(pairs),
        "edited_tid": edited_tid,
        "warm_regrade_s": warm_s,
        "cold_regrade_s": cold_s,
        "speedup": cold_s / warm_s,
        "bit_identical": warm_grades == cold_grades,
        "explain_bit_identical": explain_identical,
        "delta_maintained": stats["delta_maintained"],
        "delta_dropped": stats["delta_dropped"],
        **_clause_reuse(instance),
    }


def _clause_reuse(instance) -> dict:
    """Explaining a renamed-duplicate resubmission: warm session vs. scratch.

    Each round, a warm session that has already explained the original wrong
    submission (its provenance CNF sits in the clause cache, keyed modulo
    renaming) re-explains a renamed duplicate — timed against a cold session
    explaining the same renamed duplicate from nothing.  Fresh sessions every
    round keep both sides honest: the warm side wins only through the clause
    cache plus surviving memos, never through a memoized final answer.
    """
    question = course_questions()[0]
    reference = parse_query(question.correct_text)
    wrong_text = question.wrong_texts[0]
    wrong = parse_query(wrong_text)
    renamed = parse_query(
        "\\rename_{who -> name} (\\rename_{name -> who} (" + wrong_text + "))"
    )

    warm_s = scratch_s = 0.0
    hits = 0
    identical = True
    for _ in range(REUSE_ROUNDS):
        warm = EngineSession(instance)
        smallest_witness_optsigma(reference, wrong, instance, session=warm)
        start = time.perf_counter()
        reused = smallest_witness_optsigma(reference, renamed, instance, session=warm)
        warm_s += time.perf_counter() - start
        hits += warm.clause_cache.hits

        cold = EngineSession(instance)
        start = time.perf_counter()
        scratch = smallest_witness_optsigma(reference, renamed, instance, session=cold)
        scratch_s += time.perf_counter() - start

        identical = identical and (
            reused.distinguishing_row == scratch.distinguishing_row
            and sorted(reused.tids) == sorted(scratch.tids)
        )

    return {
        "reuse_rounds": REUSE_ROUNDS,
        "scratch_solve_s": scratch_s,
        "reuse_solve_s": warm_s,
        "reuse_speedup": scratch_s / warm_s,
        "reuse_identical": identical,
        "clause_cache_hits": hits,
    }


def test_incremental_regrade_beats_cold(benchmark=None):
    if benchmark is not None:
        result = benchmark.pedantic(run_benchmark, rounds=1, iterations=1)
        benchmark.extra_info["result"] = result
    else:  # plain pytest without pytest-benchmark
        result = run_benchmark()
    assert result["bit_identical"], "warm re-grade diverged from cold re-grade"
    assert result["explain_bit_identical"], "explanations diverged after the edit"
    assert result["delta_maintained"] > 0, result
    assert result["reuse_identical"], result
    assert result["clause_cache_hits"] >= REUSE_ROUNDS, result
    assert result["reuse_speedup"] > 1.0, result


def main() -> None:
    result = run_benchmark()
    print(f"incremental re-grade, {result['students']} students "
          f"({result['total_tuples']} tuples), {result['submissions']} submissions, "
          f"single-tuple edit {result['edited_tid']}")
    print(f"  cold re-grade  : {result['cold_regrade_s']:8.3f} s")
    print(f"  warm re-grade  : {result['warm_regrade_s']:8.3f} s   "
          f"({result['speedup']:.2f}x, bit-identical={result['bit_identical']}, "
          f"explain-identical={result['explain_bit_identical']})")
    print(f"  memo counters  : maintained={result['delta_maintained']} "
          f"dropped={result['delta_dropped']}")
    print(f"clause reuse, {result['reuse_rounds']} renamed-duplicate explanations")
    print(f"  from scratch   : {result['scratch_solve_s']:8.3f} s")
    print(f"  warm clauses   : {result['reuse_solve_s']:8.3f} s   "
          f"({result['reuse_speedup']:.2f}x, identical={result['reuse_identical']}, "
          f"hits={result['clause_cache_hits']})")
    from _summary import write_summary

    print(f"wrote {write_summary('incremental', result)}")


if __name__ == "__main__":
    main()
