"""Unit tests for the tracing core (repro.obs.trace) and JSON logging.

Everything here is in-process and synchronous: span lifecycle and wire form,
W3C traceparent parsing, ambient (contextvar) propagation, the bounded trace
store's eviction behaviour, the slow-request log, and the structured log
formatter that stamps trace/span ids onto records.
"""

from __future__ import annotations

import io
import json
import logging

import pytest

from repro.obs.trace import (
    TRACEPARENT_HEADER,
    Span,
    SpanContext,
    Tracer,
    TraceStore,
    add_span_metrics,
    current_span,
    current_traceparent,
    span as obs_span,
)


class TestSpanContext:
    def test_traceparent_round_trip(self):
        ctx = SpanContext(trace_id="a" * 32, span_id="b" * 16)
        header = ctx.to_traceparent()
        assert header == f"00-{'a' * 32}-{'b' * 16}-01"
        parsed = SpanContext.parse(header)
        assert parsed == ctx

    @pytest.mark.parametrize(
        "header",
        [
            None,
            "",
            "garbage",
            "00-short-" + "b" * 16 + "-01",
            "00-" + "a" * 32 + "-short-01",
            "00-" + "g" * 32 + "-" + "b" * 16 + "-01",  # non-hex
            "00-" + "0" * 32 + "-" + "b" * 16 + "-01",  # all-zero trace id
            "00-" + "a" * 32 + "-" + "0" * 16 + "-01",  # all-zero span id
            "xx-" + "a" * 32 + "-" + "b" * 16 + "-01",  # bad version
        ],
    )
    def test_malformed_headers_parse_to_none(self, header):
        assert SpanContext.parse(header) is None

    def test_header_name_is_lowercase(self):
        # HTTP header lookup in the event loop is lowercase-normalized.
        assert TRACEPARENT_HEADER == TRACEPARENT_HEADER.lower()


class TestSpanLifecycle:
    def test_finish_sets_duration_and_wire_form(self):
        tracer = Tracer("svc")
        span = tracer.start_span("work", attributes={"k": "v"})
        span.add_metric("widgets", 2)
        span.add_metric("widgets", 3)
        tracer.finish_span(span)
        payload = span.to_dict()
        assert payload["name"] == "work"
        assert payload["service"] == "svc"
        assert payload["status"] == "ok"
        assert payload["duration"] >= 0.0
        assert payload["attributes"] == {"k": "v"}
        assert payload["metrics"] == {"widgets": 5}
        assert len(payload["trace_id"]) == 32 and len(payload["span_id"]) == 16
        json.dumps(payload)  # wire form must cross a multiprocessing queue

    def test_child_spans_share_trace_and_link_parent(self):
        tracer = Tracer("svc")
        with tracer.span("parent") as parent:
            with tracer.span("child") as child:
                assert child.trace_id == parent.trace_id
                assert child.parent_id == parent.span_id
                assert current_span() is child
            assert current_span() is parent
        assert current_span() is None

    def test_explicit_none_parent_starts_new_root(self):
        tracer = Tracer("svc")
        with tracer.span("outer") as outer:
            with tracer.span("detached", parent=None) as detached:
                assert detached.trace_id != outer.trace_id
                assert detached.parent_id is None

    def test_remote_parent_continues_the_trace(self):
        tracer = Tracer("svc")
        remote = SpanContext.parse("00-" + "c" * 32 + "-" + "d" * 16 + "-01")
        with tracer.span("continued", parent=remote) as span:
            assert span.trace_id == "c" * 32
            assert span.parent_id == "d" * 16

    def test_exception_marks_span_as_error(self):
        tracer = Tracer("svc")
        store = []
        tracer.on_span = store.append
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("nope")
        (span,) = store
        assert span.status == "error"
        assert span.attributes["error"] == "ValueError"

    def test_current_traceparent_reflects_ambient_span(self):
        assert current_traceparent() is None
        tracer = Tracer("svc")
        with tracer.span("work") as span:
            assert current_traceparent() == span.context.to_traceparent()
        assert current_traceparent() is None


class TestAmbientHelpers:
    def test_obs_span_is_noop_without_a_tracer(self):
        with obs_span("anything") as span:
            assert current_span() is None
        assert span is None  # the shared null span yields nothing

    def test_obs_span_records_under_active_tracer(self):
        tracer = Tracer("svc")
        with tracer.capture() as spans:
            with tracer.span("root"):
                with obs_span("phase", stage="x"):
                    pass
        names = [s["name"] for s in spans]
        assert names == ["phase", "root"]
        assert spans[0]["attributes"] == {"stage": "x"}

    def test_add_span_metrics_targets_the_current_span(self):
        add_span_metrics(orphan=1)  # no ambient span: silently dropped
        tracer = Tracer("svc")
        with tracer.capture() as spans:
            with tracer.span("solve"):
                add_span_metrics(conflicts=3, decisions=10)
                add_span_metrics(conflicts=2)
        assert spans[0]["metrics"] == {"conflicts": 5, "decisions": 10}


class TestCaptureAndEmit:
    def test_capture_collects_only_spans_finished_inside(self):
        tracer = Tracer("svc")
        before = tracer.start_span("before")
        with tracer.capture() as spans:
            tracer.finish_span(before)
            with tracer.span("inside"):
                pass
        with tracer.span("after"):
            pass
        assert [s["name"] for s in spans] == ["before", "inside"]

    def test_slow_spans_land_in_the_slow_log(self):
        tracer = Tracer("svc", slow_threshold=0.0, slow_capacity=2)
        for index in range(3):
            with tracer.span(f"slow-{index}"):
                pass
        names = [s["name"] for s in tracer.slow_spans]
        assert names == ["slow-1", "slow-2"]  # bounded, oldest evicted

    def test_on_span_errors_never_break_recording(self):
        def explode(span):
            raise RuntimeError("observer bug")

        tracer = Tracer("svc", store=TraceStore(), on_span=explode)
        with tracer.span("work") as span:
            pass
        assert tracer.store.get(span.trace_id) is not None


class TestTraceStore:
    def _span(self, trace_id: str, name: str = "s") -> dict:
        return {
            "name": name,
            "trace_id": trace_id,
            "span_id": "b" * 16,
            "start": 0.0,
            "duration": 0.0,
            "status": "ok",
        }

    def test_snapshot_returns_newest_first(self):
        store = TraceStore()
        store.add(self._span("1" * 32))
        store.add(self._span("2" * 32))
        snapshot = store.snapshot()
        assert [t["trace_id"] for t in snapshot] == ["2" * 32, "1" * 32]

    def test_trace_eviction_is_lru_by_update(self):
        store = TraceStore(max_traces=2)
        store.add(self._span("1" * 32))
        store.add(self._span("2" * 32))
        store.add(self._span("1" * 32, "again"))  # touch 1: now most recent
        store.add(self._span("3" * 32))  # evicts 2, the stalest
        assert store.get("2" * 32) is None
        assert store.get("1" * 32) is not None
        assert store.get("3" * 32) is not None
        assert len(store) == 2

    def test_spans_per_trace_are_bounded_with_drop_count(self):
        store = TraceStore(max_spans_per_trace=3)
        for index in range(5):
            store.add(self._span("9" * 32, f"s{index}"))
        spans = store.get("9" * 32)
        assert len(spans) == 3
        (entry,) = store.snapshot()
        assert entry["dropped_spans"] == 2


class TestJsonLogging:
    def _formatted(self, log_call) -> dict:
        from repro.obs.logging import JsonLogFormatter

        stream = io.StringIO()
        handler = logging.StreamHandler(stream)
        handler.setFormatter(JsonLogFormatter())
        logger = logging.getLogger("repro.test.obs")
        logger.addHandler(handler)
        logger.setLevel(logging.INFO)
        logger.propagate = False
        try:
            log_call(logger)
        finally:
            logger.removeHandler(handler)
        return json.loads(stream.getvalue())

    def test_lines_are_json_with_level_and_message(self):
        payload = self._formatted(lambda log: log.info("hello %s", "world"))
        assert payload["message"] == "hello world"
        assert payload["level"] == "INFO"
        assert payload["logger"] == "repro.test.obs"
        assert "ts" in payload

    def test_extra_fields_and_exceptions_are_included(self):
        def call(log):
            try:
                raise RuntimeError("kaboom")
            except RuntimeError:
                log.exception("failed", extra={"request_id": "r-1"})

        payload = self._formatted(call)
        assert payload["request_id"] == "r-1"
        assert "RuntimeError: kaboom" in payload["exc"]

    def test_ambient_span_ids_are_stamped(self):
        tracer = Tracer("svc")
        with tracer.span("work") as span:
            payload = self._formatted(lambda log: log.info("inside"))
        assert payload["trace_id"] == span.trace_id
        assert payload["span_id"] == span.span_id
        outside = self._formatted(lambda log: log.info("outside"))
        assert "trace_id" not in outside
