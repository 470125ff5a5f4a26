"""One engine session per instance per explain call, and phase timings that add up.

Each public explain entry resolves its :class:`EngineSession` once: the
caller's when it is bound to the instance, otherwise one new session.  Every
witness sub-instance gets one session, shared by both queries and every
parameter setting tried on it.  These tests count ``EngineSession.__init__``
calls per ``DatabaseInstance`` object during a single call.
"""

from collections import Counter

import pytest

import repro.core.aggregates as aggregates
from repro.core import ALGORITHMS, find_smallest_counterexample, verify_counterexample
from repro.datagen import toy_university_instance, university_instance
from repro.engine import EngineSession
from repro.parser import parse_query

_MONOTONE_Q1 = (
    "(\\project_{name} \\select_{dept = 'CS'} Registration) \\union "
    "(\\project_{name} \\select_{dept = 'ECON'} Registration)"
)
_MONOTONE_Q2 = "\\project_{name} \\select_{dept = 'ECON'} Registration"
_AVG = (
    "\\aggr_{group: s.name; avg(r.grade) -> avg_grade} ("
    "\\rename_{prefix: s} Student \\join_{s.name = r.name%s} \\rename_{prefix: r} Registration)"
)
# Same core, different HAVING threshold: Agg-Opt falls back to Agg-Basic.
_FALLBACK_Q1 = (
    "\\select_{n >= 3} \\aggr_{group: name; count(*) -> n} \\select_{dept = 'CS'} Registration"
)
_FALLBACK_Q2 = (
    "\\select_{n >= 2} \\aggr_{group: name; count(*) -> n} \\select_{dept = 'CS'} Registration"
)
# The HAVING threshold needs a freed parameter: Agg-Opt's parameter search.
_PARAM_CORE = (
    "\\rename_{prefix: s} Student \\join_{s.name = r.name%s} "
    "\\rename_{prefix: r} \\select_{grade >= @g} Registration"
)
_PARAM_HEAD = (
    "\\project_{s.name, avg_grade} \\select_{n >= 3} "
    "\\aggr_{group: s.name; avg(r.grade) -> avg_grade, count(*) -> n} "
)


@pytest.fixture
def example1(example1_q1, example1_q2):
    return example1_q1, example1_q2


def _case(name, example1):
    """``(q1, q2, algorithm, params)`` for one explain path."""
    q1, q2 = example1
    if name in ("optsigma", "basic", "spjud-star"):
        return q1, q2, name, None
    if name == "polytime-dnf":
        return parse_query(_MONOTONE_Q1), parse_query(_MONOTONE_Q2), name, None
    if name in ("agg-basic", "agg-opt"):
        return parse_query(_AVG % " and r.dept = 'CS'"), parse_query(_AVG % ""), name, None
    if name == "agg-opt-fallback":
        return parse_query(_FALLBACK_Q1), parse_query(_FALLBACK_Q2), "agg-opt", None
    if name == "agg-opt-parameters":
        q1 = parse_query(_PARAM_HEAD + "(" + _PARAM_CORE % " and r.dept = 'CS'" + ")")
        q2 = parse_query(_PARAM_HEAD + "(" + _PARAM_CORE % "" + ")")
        return q1, q2, "agg-opt", {"g": 50}
    raise AssertionError(name)


@pytest.fixture
def built(monkeypatch):
    """Every instance an ``EngineSession`` is built over, in order."""
    instances = []
    original = EngineSession.__init__

    def init(self, instance):
        instances.append(instance)
        original(self, instance)

    monkeypatch.setattr(EngineSession, "__init__", init)
    return instances


def _sessions_per_instance(instances):
    # The list keeps every instance alive, so no id is reused meanwhile.
    return Counter(id(instance) for instance in instances)


def _over(instances, instance):
    return sum(1 for seen in instances if seen is instance)


def _fingerprint(result):
    return (
        result.algorithm,
        result.tids,
        result.distinguishing_row,
        result.optimal,
        result.parameter_values,
        result.q1_rows.rows,
        result.q2_rows.rows,
    )


_CASES = [
    "optsigma",
    "basic",
    "polytime-dnf",
    "spjud-star",
    "agg-opt-fallback",
    "agg-opt-parameters",
]


@pytest.mark.parametrize("case", _CASES)
def test_one_session_per_instance_per_explain_call(case, example1, built):
    q1, q2, algorithm, params = _case(case, example1)
    instance = toy_university_instance()
    bound = EngineSession(instance)
    elsewhere = EngineSession(toy_university_instance())
    fingerprints = {}
    for mode, session in (("none", None), ("bound", bound), ("elsewhere", elsewhere)):
        built.clear()
        result = find_smallest_counterexample(
            q1, q2, instance, algorithm=algorithm, params=params, session=session
        )
        assert result.verified
        assert max(_sessions_per_instance(built).values()) == 1, (mode, len(built))
        assert _over(built, instance) == (0 if mode == "bound" else 1), mode
        fingerprints[mode] = _fingerprint(result)
    assert fingerprints["none"] == fingerprints["elsewhere"] == fingerprints["bound"]


def test_agg_opt_cases_reach_the_paths_they_cover(example1, monkeypatch):
    instance = toy_university_instance()
    fallback = find_smallest_counterexample(*_case("agg-opt-fallback", example1)[:2], instance)
    assert fallback.algorithm in ("agg-basic", "agg-param")

    searched = []
    real = aggregates._find_parameter_setting

    def spy(*args, **kwargs):
        setting = real(*args, **kwargs)
        searched.append(setting)
        return setting

    monkeypatch.setattr(aggregates, "_find_parameter_setting", spy)
    q1, q2, algorithm, params = _case("agg-opt-parameters", example1)
    result = find_smallest_counterexample(q1, q2, instance, algorithm=algorithm, params=params)
    assert result.algorithm == "agg-opt"
    assert searched and searched[-1].params == result.parameter_values


def test_verify_with_minimality_builds_one_session_per_instance(example1, built):
    q1, q2 = example1
    instance = university_instance(12, seed=2)
    result = find_smallest_counterexample(q1, q2, instance)
    bound = EngineSession(instance)
    reports = {}
    for mode, session in (("none", None), ("bound", bound)):
        built.clear()
        report = verify_counterexample(
            q1, q2, instance, result, session=session, check_minimality=True
        )
        assert report.valid, report.issues
        assert "enumeration" in report.minimality_method
        assert max(_sessions_per_instance(built).values()) == 1, mode
        assert _over(built, instance) == (0 if mode == "bound" else 1), mode
        reports[mode] = (report.checks, report.minimality_method)
    assert reports["none"] == reports["bound"]


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_total_covers_every_phase_including_finalize(algorithm, example1):
    q1, q2, _, params = _case(algorithm, example1)
    result = ALGORITHMS[algorithm](q1, q2, toy_university_instance(), params=params)
    timings = result.timings
    phases = ("raw_eval", "provenance", "solver", "finalize")
    assert timings["total"] >= sum(timings[phase] for phase in phases)
