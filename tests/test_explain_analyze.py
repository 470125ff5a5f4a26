"""Tests for EXPLAIN ANALYZE: per-operator spans vs estimates.

Every Set-domain operator execution opens a span whenever a span is current,
so the headline property is *zero interference*: a traced execution returns
exactly the rows a plain execution returns, while its spans record actual
cardinalities, wall time and cache attribution per operator — which are then
compared against the cost-based optimizer's :class:`CardinalityEstimator`
predictions (q-error).  EXPLAIN ANALYZE is those spans rebuilt into a tree.
"""

from __future__ import annotations

import json

import pytest

from repro.datagen import toy_university_instance
from repro.engine.domains import SET_DOMAIN
from repro.engine.session import EngineSession
from repro.obs.analyze import ExplainAnalysis, q_error
from repro.obs.trace import Tracer
from repro.parser.ra_parser import parse_query

REFERENCE = "\\project_{name} \\select_{dept = 'ECON'} Registration"
JOINED = (
    "\\project_{s.name} (\\rename_{prefix: s} Student "
    "\\join_{s.name = r.name and r.dept = 'ECON'} \\rename_{prefix: r} Registration)"
)


@pytest.fixture()
def session():
    return EngineSession(toy_university_instance())


class TestQError:
    def test_perfect_estimate_is_one(self):
        assert q_error(10, 10) == 1.0

    def test_symmetric_over_and_under_estimates(self):
        assert q_error(5, 20) == 4.0
        assert q_error(20, 5) == 4.0

    def test_zero_rows_clamp_instead_of_dividing_by_zero(self):
        assert q_error(0, 5) == 5.0
        assert q_error(5, 0) == 5.0
        assert q_error(0, 0) == 1.0

    def test_missing_estimate_is_none(self):
        assert q_error(None, 5) is None


class TestExplainAnalyze:
    def test_tree_carries_actuals_estimates_and_qerror(self, session):
        analysis = session.explain_analyze(parse_query(JOINED))
        assert isinstance(analysis, ExplainAnalysis)
        flat = list(self._walk(analysis.roots))
        ops = {record.op for record in flat}
        assert "Scan" in ops and "Project" in ops
        for record in flat:
            assert record.actual_rows is not None
            assert record.seconds >= 0.0
        assert any(record.est_rows is not None for record in flat)
        assert analysis.max_q_error() is None or analysis.max_q_error() >= 1.0

    def test_output_rows_match_a_plain_evaluation(self, session):
        expression = parse_query(JOINED)
        analysis = session.explain_analyze(expression)
        plain = session.evaluate(expression)
        assert analysis.output_rows == len(plain.rows)

    def test_analyzed_execution_matches_unanalyzed_rows(self):
        expression = parse_query(JOINED)
        plain = EngineSession(toy_university_instance()).evaluate(expression)
        analyzed_session = EngineSession(toy_university_instance())
        tracer = Tracer("test")
        with tracer.span("grade"):
            traced = analyzed_session.evaluate(expression)
        assert traced.same_rows(plain)

    @pytest.mark.parametrize("analyze", ["traced", "explain_analyze"])
    def test_analysis_leaves_the_memo_as_plain_execution_does(self, analyze):
        expression = parse_query(JOINED)

        def memo_state(session):
            memo = session._memo(SET_DOMAIN)
            return set(memo.keys()), memo.hits, memo.misses

        plain = EngineSession(toy_university_instance())
        analyzed = EngineSession(toy_university_instance())
        tracer = Tracer("test")
        for _ in range(2):  # a cold run, then a warm one
            plain.evaluate(expression)
            if analyze == "traced":
                with tracer.span("grade"):
                    analyzed.evaluate(expression)
            else:
                analyzed.explain_analyze(expression)
        assert memo_state(analyzed) == memo_state(plain)
        assert memo_state(plain)[1] > 0  # the warm run hit the memo

    def test_second_run_attributes_the_memo_hit(self, session):
        expression = parse_query(REFERENCE)
        cold = session.explain_analyze(expression)
        warm = session.explain_analyze(expression)
        assert not cold.roots[0].cached
        assert warm.roots[0].cached
        assert warm.output_rows == cold.output_rows

    def test_render_and_to_dict_forms(self, session):
        analysis = session.explain_analyze(parse_query(JOINED))
        text = analysis.render()
        assert "actual=" in text and "est=" in text and "q-err=" in text
        payload = analysis.to_dict()
        json.dumps(payload)  # must be wire-serializable
        assert payload["output_rows"] == analysis.output_rows
        assert payload["operators"]

    def _walk(self, records):
        for record in records:
            yield record
            yield from self._walk(record.children)


class TestOperatorSpans:
    def test_traced_evaluation_emits_operator_spans(self):
        session = EngineSession(toy_university_instance())
        tracer = Tracer("test")
        with tracer.capture() as spans:
            with tracer.span("grade") as root:
                session.evaluate(parse_query(JOINED))
        op_spans = [s for s in spans if s["name"].startswith("op.")]
        assert op_spans, [s["name"] for s in spans]
        for span in op_spans:
            assert span["trace_id"] == root.trace_id
            assert "rows" in span["attributes"]
        # The operator spans form a tree hanging off the grade span.
        ids = {s["span_id"] for s in op_spans} | {root.span_id}
        assert all(s["parent_id"] in ids for s in op_spans)

    def test_untraced_evaluation_emits_nothing(self):
        session = EngineSession(toy_university_instance())
        tracer = Tracer("test")
        with tracer.capture() as spans:
            session.evaluate(parse_query(JOINED))  # no span is current
        assert spans == []

    def test_provenance_evaluation_emits_no_operator_spans(self):
        session = EngineSession(toy_university_instance())
        tracer = Tracer("test")
        with tracer.capture() as spans:
            with tracer.span("grade"):
                session.annotated_rows(parse_query(JOINED))
        assert [s["name"] for s in spans] == ["grade"]


class TestFromIndex:
    """A join whose build side is a bare scan reads the relation's index."""

    def test_traced_join_span_carries_from_index(self):
        session = EngineSession(toy_university_instance())
        tracer = Tracer("test")
        with tracer.capture() as spans:
            with tracer.span("grade"):
                session.evaluate(parse_query(JOINED))
        (join,) = [s for s in spans if s["name"] == "op.Join"]
        assert join["attributes"]["from_index"] is True
        scans = [s for s in spans if s["name"] == "op.Scan"]
        # Only the probe side runs as an operator; the build side never did.
        assert [s["parent_id"] for s in scans] == [join["span_id"]]

    def test_explain_analyze_join_carries_from_index(self, session):
        payload = session.explain_analyze(parse_query(JOINED)).to_dict()
        (project,) = payload["operators"]
        (join,) = project["children"]
        assert join["op"] == "Join"
        assert join["from_index"] is True
        assert list(join) == [
            "op",
            "detail",
            "seconds",
            "actual_rows",
            "cached",
            "columnar",
            "status",
            "est_rows",
            "q_error",
            "from_index",
            "children",
        ]
        (scan,) = join["children"]
        assert list(scan) == [
            "op",
            "detail",
            "seconds",
            "actual_rows",
            "cached",
            "columnar",
            "status",
            "est_rows",
            "q_error",
        ]
        assert "from_index" not in project
