"""Tests for the aggregate algorithms: Agg-Basic, Agg-Param, Agg-Opt (§5)."""

import pytest

from repro.core import (
    is_aggregate_pair,
    smallest_counterexample_agg_basic,
    smallest_counterexample_agg_opt,
)
from repro.datagen import toy_university_instance
from repro.errors import CounterexampleError
from repro.parser import parse_query
from repro.ra import evaluate

# Example 4 (average grade, no HAVING) and Example 5 (HAVING COUNT >= 3).
_Q1_AVG = """
\\aggr_{group: s.name; avg(r.grade) -> avg_grade} (
  \\rename_{prefix: s} Student
  \\join_{s.name = r.name and r.dept = 'CS'}
  \\rename_{prefix: r} Registration
)
"""
_Q2_AVG = """
\\aggr_{group: s.name; avg(r.grade) -> avg_grade} (
  \\rename_{prefix: s} Student
  \\join_{s.name = r.name}
  \\rename_{prefix: r} Registration
)
"""
_Q1_HAVING = (
    "\\project_{s.name, avg_grade} \\select_{n >= 3} "
    "\\aggr_{group: s.name; avg(r.grade) -> avg_grade, count(*) -> n} ("
    "\\rename_{prefix: s} Student \\join_{s.name = r.name and r.dept = 'CS'} "
    "\\rename_{prefix: r} Registration)"
)
_Q2_HAVING = (
    "\\project_{s.name, avg_grade} \\select_{n >= 3} "
    "\\aggr_{group: s.name; avg(r.grade) -> avg_grade, count(*) -> n} ("
    "\\rename_{prefix: s} Student \\join_{s.name = r.name} "
    "\\rename_{prefix: r} Registration)"
)


@pytest.fixture(scope="module")
def instance():
    return toy_university_instance()


@pytest.fixture(scope="module")
def q1_avg():
    return parse_query(_Q1_AVG)


@pytest.fixture(scope="module")
def q2_avg():
    return parse_query(_Q2_AVG)


@pytest.fixture(scope="module")
def q1_having():
    return parse_query(_Q1_HAVING)


@pytest.fixture(scope="module")
def q2_having():
    return parse_query(_Q2_HAVING)


class TestAggBasic:
    def test_example4_counterexample_is_tiny(self, instance, q1_avg, q2_avg):
        # The paper: a single tuple (Mary, 208D, ECON, 95) plus the FK parent
        # suffices: Q1 is empty while Q2 returns Mary.
        result = smallest_counterexample_agg_basic(q1_avg, q2_avg, instance)
        assert result.verified
        assert result.size <= 2
        assert result.algorithm == "agg-basic"

    def test_example4_counterexample_distinguishes(self, instance, q1_avg, q2_avg):
        result = smallest_counterexample_agg_basic(q1_avg, q2_avg, instance)
        r1 = evaluate(q1_avg, result.counterexample)
        r2 = evaluate(q2_avg, result.counterexample)
        assert not r1.same_rows(r2)

    def test_example5_having_forces_larger_counterexample(self, instance, q1_having, q2_having):
        result = smallest_counterexample_agg_basic(q1_having, q2_having, instance)
        assert result.verified
        # The HAVING COUNT >= 3 requires keeping at least three of Mary's
        # registrations (plus Mary herself): |C| >= 4, as in Example 6.
        assert result.size >= 4

    def test_example6_parameterization_shrinks_counterexample(
        self, instance, q1_having, q2_having
    ):
        fixed = smallest_counterexample_agg_basic(q1_having, q2_having, instance)
        parameterized = smallest_counterexample_agg_basic(
            q1_having, q2_having, instance, parameterize=True
        )
        assert parameterized.verified
        assert parameterized.algorithm == "agg-param"
        assert parameterized.size < fixed.size
        assert parameterized.parameter_values  # the chosen @numCS-style setting

    def test_identical_queries_raise(self, instance, q1_avg):
        with pytest.raises(CounterexampleError):
            smallest_counterexample_agg_basic(q1_avg, q1_avg, instance)

    def test_all_groups_mode(self, instance, q1_avg, q2_avg):
        single = smallest_counterexample_agg_basic(q1_avg, q2_avg, instance)
        exhaustive = smallest_counterexample_agg_basic(
            q1_avg, q2_avg, instance, all_groups=True
        )
        assert exhaustive.size <= single.size


class TestAggOpt:
    def test_example7_heuristic(self, instance, q1_avg, q2_avg):
        result = smallest_counterexample_agg_opt(q1_avg, q2_avg, instance)
        assert result.verified
        assert result.size <= 2
        assert result.algorithm in ("agg-opt", "agg-basic", "agg-param")

    def test_heuristic_on_having_queries(self, instance, q1_having, q2_having):
        result = smallest_counterexample_agg_opt(q1_having, q2_having, instance)
        assert result.verified
        # Either the heuristic re-parameterizes (small result) or it falls back.
        assert result.size >= 1

    def test_heuristic_falls_back_when_cores_agree(self, instance):
        # Same core, different HAVING threshold: the pre-aggregation queries are
        # identical, so Algorithm 3 must fall back to Agg-Basic/Agg-Param.
        q1 = parse_query(
            "\\select_{n >= 3} \\aggr_{group: name; count(*) -> n} "
            "\\select_{dept = 'CS'} Registration"
        )
        q2 = parse_query(
            "\\select_{n >= 2} \\aggr_{group: name; count(*) -> n} "
            "\\select_{dept = 'CS'} Registration"
        )
        result = smallest_counterexample_agg_opt(q1, q2, instance)
        assert result.verified
        assert result.algorithm in ("agg-basic", "agg-param")

    def test_fallback_after_failed_retries_keeps_the_session(
        self, instance, q1_avg, q2_avg, monkeypatch
    ):
        # Every candidate fails re-validation, so Algorithm 3 exhausts its
        # retries and hands over to Agg-Basic, which must reuse the session's
        # warm caches instead of re-evaluating both queries cold.
        import repro.core.aggregates as aggregates
        from repro.engine.session import EngineSession

        monkeypatch.setattr(aggregates, "_validate_on_counterexample", lambda *a, **k: False)
        monkeypatch.setattr(aggregates, "_find_parameter_setting", lambda *a, **k: None)
        calls = []
        sentinel = object()

        def spy(*args, **kwargs):
            calls.append(kwargs)
            return sentinel

        monkeypatch.setattr(aggregates, "smallest_counterexample_agg_basic", spy)
        session = EngineSession(instance)
        result = smallest_counterexample_agg_opt(q1_avg, q2_avg, instance, session=session)
        assert result is sentinel
        assert len(calls) == 1
        assert calls[0]["session"] is session


class TestHelpers:
    def test_is_aggregate_pair(self, q1_avg, example1_q1):
        assert is_aggregate_pair(q1_avg, example1_q1)
        assert is_aggregate_pair(example1_q1, q1_avg)
        assert not is_aggregate_pair(example1_q1, example1_q1)
