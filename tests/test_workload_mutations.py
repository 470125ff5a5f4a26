"""Coverage for the mutation operators across the whole course workload.

Every mutation operator is applied to every course question, and every
resulting mutant must behave like a real (wrong) student submission:

* its DSL rendering parses back to an equivalent query,
* it evaluates to the rows the SQLite oracle computes,
* it is gradeable end-to-end through :class:`GradingService`, and the grade's
  verdict is the oracle's: correct exactly when the oracle's row sets of the
  reference and the mutant are equal.
"""

from __future__ import annotations

import pytest

from repro.api import GradingService
from repro.datagen import toy_university_instance
from repro.engine.backends.sqlite import SqliteBackend
from repro.engine.session import EngineSession
from repro.parser import parse_query
from repro.workload import (
    ALL_MUTATION_OPERATORS,
    course_questions,
    generate_mutants,
    mutate_constants,
    to_dsl,
    tpch_queries,
)

_CONSTANT_POOL = ("ECON", "MATH", "BIO")


def _operators():
    operators = [(op.__name__, op) for op in ALL_MUTATION_OPERATORS]
    operators.append(
        ("mutate_constants", lambda expr: mutate_constants(expr, _CONSTANT_POOL))
    )
    return operators


_OPERATORS = _operators()


@pytest.fixture(scope="module")
def instance():
    return toy_university_instance()


@pytest.fixture(scope="module")
def session(instance):
    return EngineSession(instance)


@pytest.fixture(scope="module")
def oracle(instance):
    return SqliteBackend(instance)


@pytest.fixture(scope="module")
def service(instance):
    return GradingService.for_instance(instance, name="hidden")


def _assert_graded_like_the_oracle(service, oracle, label, reference, mutant) -> None:
    """The mutant grades without error, with the oracle's verdict."""
    outcome = service.check(reference, mutant.query)
    assert outcome.error is None, (
        f"{label} is not gradeable ({outcome.error_kind}: {outcome.error}); "
        f"mutant: {mutant.description}"
    )
    assert outcome.correct == (oracle.rows(reference) == oracle.rows(mutant.query)), (
        f"{label} is graded against the oracle's verdict; mutant: {mutant.description}"
    )


def _mutants_by_operator(operator):
    """(question, mutant) pairs the operator produces across all questions."""
    pairs = []
    for question in course_questions():
        for mutant in operator(question.correct_query):
            pairs.append((question, mutant))
    return pairs


class TestEveryOperatorOnEveryQuestion:
    @pytest.mark.parametrize("name,operator", _OPERATORS, ids=[n for n, _ in _OPERATORS])
    def test_operator_produces_mutants(self, name, operator):
        """Each operator fires somewhere in the course or TPC-H workload.

        The course questions use only =/<> comparisons and single-attribute
        group-bys, so ``relax_comparison_operators`` and ``mutate_group_by``
        find their targets in the TPC-H queries instead.
        """
        if _mutants_by_operator(operator):
            return
        tpch_mutants = [
            mutant
            for query in tpch_queries()
            for mutant in operator(query.correct_query)
        ]
        assert tpch_mutants, f"{name} produced no mutants on any workload"
        # TPC-H mutants must still parse via their DSL rendering.
        for mutant in tpch_mutants:
            parse_query(to_dsl(mutant.query))

    @pytest.mark.parametrize("name,operator", _OPERATORS, ids=[n for n, _ in _OPERATORS])
    def test_mutants_parse_and_match_the_oracle(self, name, operator, session, oracle):
        for question, mutant in _mutants_by_operator(operator):
            text = to_dsl(mutant.query)
            reparsed = parse_query(text)
            rows = session.evaluate(mutant.query).rows
            assert session.evaluate(reparsed).rows == rows, (
                f"{name} mutant of {question.key} does not round-trip: {text}"
            )
            assert oracle.rows(mutant.query) == rows, (
                f"{name} mutant of {question.key} diverges on SQLite: {text}"
            )

    @pytest.mark.parametrize("name,operator", _OPERATORS, ids=[n for n, _ in _OPERATORS])
    def test_mutants_are_gradeable_end_to_end(self, name, operator, service, oracle):
        for question, mutant in _mutants_by_operator(operator):
            _assert_graded_like_the_oracle(
                service, oracle, f"{name} mutant of {question.key}",
                question.correct_query, mutant,
            )


def test_full_mutant_pool_is_gradeable(service, oracle):
    """The deduplicated pool (as used by the experiments) grades cleanly."""
    graded = 0
    for question in course_questions():
        for mutant in generate_mutants(
            question.correct_query, constant_pool=_CONSTANT_POOL, max_mutants=6
        ):
            _assert_graded_like_the_oracle(
                service, oracle, f"mutant of {question.key}", question.correct_query, mutant
            )
            graded += 1
    assert graded > 0
