"""Tests for the Basic algorithm (Algorithm 1) and its Naive-M mode."""

import pytest

from repro.core import smallest_counterexample_basic, smallest_witness_optsigma
from repro.datagen import toy_university_instance, university_instance
from repro.errors import CounterexampleError
from repro.workload import course_questions


@pytest.fixture(scope="module")
def instance():
    return toy_university_instance()


class TestBasicOptimal:
    def test_running_example(self, instance, example1_q1, example1_q2):
        result = smallest_counterexample_basic(example1_q1, example1_q2, instance)
        assert result.size == 3
        assert result.verified
        assert result.algorithm == "basic"

    def test_matches_optsigma_size(self, instance, example1_q1, example1_q2):
        basic = smallest_counterexample_basic(example1_q1, example1_q2, instance)
        optsigma = smallest_witness_optsigma(example1_q1, example1_q2, instance)
        assert basic.size == optsigma.size

    def test_examines_both_directions(self, instance):
        # q3 correct vs wrong-0: the wrong query returns extra rows, so the
        # distinguishing tuples are in Q2 \ Q1.
        question = course_questions()[2]
        wrong = question.handwritten_wrong_queries[0]
        result = smallest_counterexample_basic(question.correct_query, wrong, instance)
        assert result.verified

    def test_identical_queries_raise(self, instance, example1_q1):
        with pytest.raises(CounterexampleError):
            smallest_counterexample_basic(example1_q1, example1_q1, instance)

    def test_max_rows_cap(self, instance, example1_q1, example1_q2):
        result = smallest_counterexample_basic(example1_q1, example1_q2, instance, max_rows=1)
        assert result.verified

    def test_global_minimum_across_tuples(self):
        # On a slightly larger instance the per-tuple witnesses differ in size;
        # Basic must return the global minimum.
        instance = university_instance(25, seed=3)
        question = course_questions()[1]  # "exactly one CS course"
        wrong = question.handwritten_wrong_queries[0]
        basic = smallest_counterexample_basic(question.correct_query, wrong, instance)
        optsigma_sizes = []
        from repro.core.common import symmetric_difference_rows
        from repro.engine import EngineSession

        only1, only2 = symmetric_difference_rows(
            question.correct_query, wrong, EngineSession(instance)
        )
        for row in (only1 + only2)[:6]:
            try:
                result = smallest_witness_optsigma(
                    question.correct_query, wrong, instance, target_row=row
                )
                optsigma_sizes.append(result.size)
            except Exception:
                continue
        if optsigma_sizes:
            assert basic.size <= min(optsigma_sizes)


class TestBasicNaive:
    def test_enumerate_mode_returns_valid_counterexample(self, instance, example1_q1, example1_q2):
        result = smallest_counterexample_basic(
            example1_q1, example1_q2, instance, mode="enumerate", max_trials=16
        )
        assert result.verified
        assert result.algorithm == "basic-naive-16"
        assert result.size >= 3

    def test_naive_never_smaller_than_optimal(self, instance, example1_q1, example1_q2):
        optimal = smallest_counterexample_basic(example1_q1, example1_q2, instance)
        naive = smallest_counterexample_basic(
            example1_q1, example1_q2, instance, mode="enumerate", max_trials=4
        )
        assert naive.size >= optimal.size

    def test_more_trials_do_not_hurt(self, instance, example1_q1, example1_q2):
        few = smallest_counterexample_basic(
            example1_q1, example1_q2, instance, mode="enumerate", max_trials=1
        )
        many = smallest_counterexample_basic(
            example1_q1, example1_q2, instance, mode="enumerate", max_trials=64
        )
        assert many.size <= few.size
