"""Tests for the Optσ algorithm (Algorithm 2) on the running example and more."""

import pytest

from repro.core import find_smallest_counterexample, smallest_witness_optsigma
from repro.datagen import toy_university_instance, university_instance
from repro.errors import CounterexampleError
from repro.ra import evaluate, results_differ
from repro.theory import brute_force_smallest_counterexample
from repro.workload import course_questions


@pytest.fixture(scope="module")
def instance():
    return toy_university_instance()


class TestRunningExample:
    def test_smallest_counterexample_has_three_tuples(self, instance, example1_q1, example1_q2):
        result = smallest_witness_optsigma(example1_q1, example1_q2, instance)
        assert result.size == 3
        assert result.optimal
        assert result.verified

    def test_counterexample_is_one_of_the_paper_solutions(self, instance, example1_q1, example1_q2):
        result = smallest_witness_optsigma(example1_q1, example1_q2, instance)
        # Example 2: {t1, t4, t5}, or Jesse with two of his three courses.
        mary = {"Student:1", "Registration:1", "Registration:2"}
        jesse_courses = {"Registration:6", "Registration:7", "Registration:8"}
        is_mary = result.tids == frozenset(mary)
        is_jesse = "Student:3" in result.tids and len(result.tids & jesse_courses) == 2
        assert is_mary or is_jesse

    def test_counterexample_distinguishes_queries(self, instance, example1_q1, example1_q2):
        result = smallest_witness_optsigma(example1_q1, example1_q2, instance)
        assert results_differ(example1_q1, example1_q2, result.counterexample)

    def test_matches_brute_force_optimum(self, instance, example1_q1, example1_q2):
        expected = brute_force_smallest_counterexample(example1_q1, example1_q2, instance)
        result = smallest_witness_optsigma(example1_q1, example1_q2, instance)
        assert result.size == len(expected)

    def test_symmetric_argument_order(self, instance, example1_q1, example1_q2):
        # The wrong query may be passed first; the witness target flips direction.
        result = smallest_witness_optsigma(example1_q2, example1_q1, instance)
        assert result.size == 3
        assert result.verified

    def test_identical_queries_raise(self, instance, example1_q1):
        with pytest.raises(CounterexampleError):
            smallest_witness_optsigma(example1_q1, example1_q1, instance)

    def test_timings_recorded(self, instance, example1_q1, example1_q2):
        result = smallest_witness_optsigma(example1_q1, example1_q2, instance)
        assert {"raw_eval", "provenance", "solver", "total"} <= set(result.timings)
        assert result.total_time() > 0

    def test_explicit_target_row(self, instance, example1_q1, example1_q2):
        result = smallest_witness_optsigma(
            example1_q2, example1_q1, instance, target_row=("Jesse", "CS")
        )
        assert result.distinguishing_row == ("Jesse", "CS")
        assert "Student:3" in result.tids

    def test_no_pushdown_variant(self, instance, example1_q1, example1_q2):
        result = smallest_witness_optsigma(example1_q1, example1_q2, instance, pushdown=False)
        assert result.size == 3
        assert result.algorithm == "optsigma-nopushdown"


class TestOnCourseWorkload:
    @pytest.mark.parametrize("question_index", range(8))
    def test_every_question_with_its_first_wrong_query(self, question_index):
        question = course_questions()[question_index]
        instance = university_instance(30, seed=13)
        wrong = question.handwritten_wrong_queries[0]
        if not results_differ(question.correct_query, wrong, instance):
            pytest.skip("wrong query not distinguishable on this instance")
        result = smallest_witness_optsigma(question.correct_query, wrong, instance)
        assert result.verified
        assert 1 <= result.size <= 8
        # The counterexample respects the schema's foreign keys.
        assert result.counterexample.satisfies_constraints()

    def test_find_smallest_counterexample_routes_spjud_to_optsigma(
        self, instance, example1_q1, example1_q2
    ):
        result = find_smallest_counterexample(example1_q1, example1_q2, instance)
        assert result.algorithm == "optsigma"
        assert result.size == 3


class TestCounterexampleProperties:
    def test_result_contains_query_outputs(self, instance, example1_q1, example1_q2):
        result = smallest_witness_optsigma(example1_q1, example1_q2, instance)
        q1_rows = evaluate(example1_q1, result.counterexample)
        q2_rows = evaluate(example1_q2, result.counterexample)
        assert result.q1_rows.rows == q1_rows.rows
        assert result.q2_rows.rows == q2_rows.rows
        assert q1_rows.rows != q2_rows.rows

    def test_counterexample_tuples_come_from_original_instance(
        self, instance, example1_q1, example1_q2
    ):
        result = smallest_witness_optsigma(example1_q1, example1_q2, instance)
        for tid in result.tids:
            assert result.counterexample.lookup(tid) == instance.lookup(tid)
