"""Provenance through the optimized plan path: bit-identity and plan shape.

The :class:`~repro.engine.domains.ProvenanceDomain` runs on the *logically
optimized* plan — selection pushdown and join-conjunct sinking plus the
session's structural plan and result caches — while keeping the
deterministic operator order (the hash-join build-side choice is skipped
because it reorders annotation folding).

These tests pin the load-bearing claim: on every course/beers/TPC-H workload
query the optimized-path annotations are **bit-identical** — same candidate
rows, structurally equal Boolean expressions, identical rendering — to both
the reference provenance evaluator and the exact plan: the expression compiled
with no rewrites at all and run in its historical operator order.
"""

from __future__ import annotations

import pytest

from repro.datagen import (
    beers_instance,
    toy_beers_instance,
    toy_university_instance,
    tpch_instance,
    university_instance,
)
from repro.engine.domains import PROVENANCE_DOMAIN
from repro.engine.logical import FilterOp, JoinOp, compile_plan, plan_operators
from repro.engine.physical import PlanExecutor
from repro.engine.reference import ReferenceProvenanceEvaluator
from repro.engine.session import EngineSession
from repro.parser import parse_query
from repro.ra.analysis import profile
from repro.workload import beers_problems, course_questions, tpch_queries


def _workload_cases():
    cases = []
    university = university_instance(40, seed=7)
    toy_university = toy_university_instance()
    for question in course_questions():
        for index, query in enumerate(
            (question.correct_query,) + question.handwritten_wrong_queries
        ):
            cases.append((f"course-{question.key}-{index}", university, query))
            cases.append((f"course-toy-{question.key}-{index}", toy_university, query))
    beers = beers_instance(num_drinkers=25, num_bars=8, num_beers=6, seed=11)
    toy_beers = toy_beers_instance()
    for problem in beers_problems():
        for index, query in enumerate(
            (problem.correct_query,) + problem.handwritten_wrong_queries
        ):
            cases.append((f"beers-{problem.key}-{index}", beers, query))
            cases.append((f"beers-toy-{problem.key}-{index}", toy_beers, query))
    tpch = tpch_instance(scale=0.05, seed=3)
    for tpch_query in tpch_queries():
        for index, query in enumerate(
            (tpch_query.correct_query,) + tpch_query.wrong_queries
        ):
            cases.append((f"tpch-{tpch_query.key}-{index}", tpch, query))
    # Boolean how-provenance does not cover aggregation.
    return [
        case for case in cases if not profile(case[2]).uses_aggregate
    ]


_CASES = _workload_cases()

#: One shared session per instance: the point of the new path is that these
#: annotations ride the same warm caches as grading.
_SESSIONS: dict[int, EngineSession] = {}


def _session(instance) -> EngineSession:
    session = _SESSIONS.get(id(instance))
    if session is None:
        session = _SESSIONS[id(instance)] = EngineSession(instance)
    return session


@pytest.mark.parametrize("label,instance,query", _CASES, ids=[c[0] for c in _CASES])
def test_optimized_annotations_bit_identical_to_reference(label, instance, query):
    """Optimized-path provenance == pre-engine reference evaluator, bit for bit."""
    reference = ReferenceProvenanceEvaluator(instance, {}).annotated(query)
    _, optimized = _session(instance).annotated_rows(query)
    assert set(optimized) == set(reference), f"candidate rows differ on {label}"
    for row, expression in reference.items():
        assert optimized[row] == expression, (
            f"annotation differs on {label} for row {row!r}:\n"
            f"  reference: {expression}\n"
            f"  optimized: {optimized[row]}"
        )
        assert str(optimized[row]) == str(expression)


@pytest.mark.parametrize("label,instance,query", _CASES, ids=[c[0] for c in _CASES])
def test_optimized_annotations_bit_identical_to_exact_mode(label, instance, query):
    """The session's pushdown plan matches the unrewritten compiled plan."""
    _, optimized = _session(instance).annotated_rows(query)
    exact_plan = compile_plan(query, instance.schema)
    exact = PlanExecutor(instance, {}, PROVENANCE_DOMAIN, {}).run(exact_plan)
    assert optimized == exact, f"annotations differ from the exact plan on {label}"
    assert list(optimized) == list(exact), f"row order differs on {label}"


def test_provenance_plan_applies_selection_pushdown(toy_university):
    """The provenance plan really is optimized: the filter sits below the join."""
    query = parse_query(
        "\\select_{r.dept = 'CS'} ("
        "(\\rename_{prefix: s} Student) \\join_{s.name = r.name} "
        "(\\rename_{prefix: r} Registration))"
    )
    session = EngineSession(toy_university)
    session.annotated_rows(query)
    logical = session._plans[("logical", session._keys.key(query))]
    operators = plan_operators(logical)
    join_positions = [i for i, op in enumerate(operators) if isinstance(op, JoinOp)]
    filter_positions = [i for i, op in enumerate(operators) if isinstance(op, FilterOp)]
    assert join_positions and filter_positions
    assert min(filter_positions) > min(join_positions), (
        "selection was not pushed below the join in the provenance plan"
    )
    # ... while the operator order stays historical (no build-side flipping).
    assert all(not op.build_left for op in operators if isinstance(op, JoinOp))


def test_provenance_results_are_memoised_across_repeats(toy_university):
    query = parse_query("\\select_{major = 'CS'} Student")
    session = EngineSession(toy_university)
    session.annotated_rows(query)
    before = session.cache_info()
    session.annotated_rows(query)
    after = session.cache_info()
    assert after["result_hits"] > before["result_hits"]
    assert after["plan_hits"] > before["plan_hits"]
