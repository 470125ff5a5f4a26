"""Tests for the experiment harness, result objects and shared core helpers."""

import time

import pytest

from repro.core.common import Stopwatch, pick_witness_target, symmetric_difference_rows
from repro.core.results import CounterexampleResult, WitnessResult
from repro.datagen import toy_university_instance
from repro.engine import EngineSession
from repro.errors import CounterexampleError
from repro.experiments.harness import ExperimentResult, ScaleProfile, mean, run_experiment
from repro.ra import evaluate


class TestStopwatch:
    def test_phases_accumulate(self):
        stopwatch = Stopwatch()
        with stopwatch.measure("a"):
            time.sleep(0.01)
        with stopwatch.measure("a"):
            pass
        with stopwatch.measure("b"):
            pass
        timings = stopwatch.finish()
        assert timings["a"] >= 0.01
        assert "b" in timings
        assert timings["total"] >= timings["a"]


class TestCommonHelpers:
    def test_symmetric_difference_rows(self, example1_q1, example1_q2):
        instance = toy_university_instance()
        only1, only2 = symmetric_difference_rows(
            example1_q1, example1_q2, EngineSession(instance)
        )
        assert only1 == []
        assert set(only2) == {("Mary", "CS"), ("Jesse", "CS")}

    def test_pick_witness_target_orientation(self, example1_q1, example1_q2):
        instance = toy_university_instance()
        row, winning, losing = pick_witness_target(
            example1_q1, example1_q2, EngineSession(instance)
        )
        assert winning is example1_q2 and losing is example1_q1
        assert row in evaluate(example1_q2, instance).rows

    def test_pick_witness_target_is_first_sorted_row(self):
        from repro.datagen import university_instance
        from repro.workload import course_questions

        session = EngineSession(university_instance(40, seed=1))
        checked = 0
        for question in course_questions():
            correct = question.correct_query
            for wrong in question.handwritten_wrong_queries:
                only1, only2 = symmetric_difference_rows(correct, wrong, session)
                if not (only1 or only2):
                    continue
                row, winning, _ = pick_witness_target(correct, wrong, session)
                assert row == (only1 or only2)[0]
                assert winning is (correct if only1 else wrong)
                checked += 1
        assert checked >= 5

    def test_pick_witness_target_identical_queries(self, example1_q1):
        instance = toy_university_instance()
        with pytest.raises(CounterexampleError):
            pick_witness_target(example1_q1, example1_q1, EngineSession(instance))


class TestResultObjects:
    def test_witness_result_size(self):
        result = WitnessResult(tids=frozenset({"a", "b"}), row=(1,), optimal=True)
        assert result.size == 2

    def test_counterexample_total_time_fallback(self):
        instance = toy_university_instance()
        sub = instance.subinstance({"Student:1"})
        rows = evaluate_student = evaluate
        result = CounterexampleResult(
            tids=frozenset({"Student:1"}),
            counterexample=sub,
            distinguishing_row=None,
            q1_rows=rows(_student_query(), sub),
            q2_rows=evaluate_student(_student_query(), sub),
            optimal=True,
            algorithm="test",
            timings={"solver": 0.25, "raw_eval": 0.25},
        )
        assert result.total_time() == pytest.approx(0.5)
        assert result.size == 1


def _student_query():
    from repro.ra import project, relation

    return project(relation("Student"), ["name"])


class TestExperimentHarness:
    def test_run_experiment_and_markdown(self):
        result = run_experiment(
            "Demo", "A demo experiment.", lambda: [{"a": 1, "b": 2.5}, {"a": 3, "c": "x"}]
        )
        markdown = result.to_markdown()
        assert "### Demo" in markdown
        assert "| a | b | c |" in markdown
        assert result.elapsed_seconds >= 0
        assert result.column("a") == [1, 3]

    def test_empty_experiment_markdown(self):
        result = ExperimentResult(name="Empty", description="nothing")
        assert "(no rows)" in result.to_markdown()

    def test_mean_helper(self):
        assert mean([1.0, 3.0]) == 2.0
        assert mean([]) == 0.0

    def test_scale_profiles(self):
        quick = ScaleProfile.quick()
        paper = ScaleProfile.paper()
        assert quick.database_sizes[-1] < paper.database_sizes[-1]
        assert paper.cohort_size == 169
