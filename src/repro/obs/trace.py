"""Spans, tracers and trace propagation (stdlib only).

The tracing model is deliberately small — three concepts cover the whole
stack:

* A :class:`Span` is one timed operation: a name, a pair of ids, a wall-clock
  start and a *monotonic* duration (``perf_counter`` start-to-finish, immune
  to clock steps), plus free-form attributes and accumulated numeric metrics
  (the SAT solver adds its conflict/decision counters to whatever span is
  current).
* A :class:`Tracer` creates spans and owns what happens when they finish:
  append to a bounded :class:`TraceStore`, feed a metrics callback, remember
  slow roots.  ``tracer.span(...)`` is a context manager that also publishes
  the span as the *ambient current span* through a :class:`~contextvars.ContextVar`,
  so nested code (and code that has never heard of the tracer) can attach
  children and metrics without plumbing arguments.
* A :class:`SpanContext` is the wire form — a W3C-``traceparent``-style
  ``00-<32 hex trace id>-<16 hex span id>-01`` header — so one trace survives
  client → entry daemon → forwarded shard → worker process hops.  Spans
  created in other processes travel back as plain dicts (:meth:`Span.to_dict`)
  and are merged by trace id.

Everything ambient degrades to a no-op: :func:`span` returns a shared null
context manager when no tracer is active, and :func:`add_span_metrics`
returns immediately when no span is current, so instrumented hot paths cost
one ``ContextVar.get`` when tracing is off.
"""

from __future__ import annotations

import logging
import os
import random
import re
import threading
import time
from collections import OrderedDict, deque
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Callable, Iterator, Mapping, NamedTuple

log = logging.getLogger(__name__)

#: The HTTP header carrying trace context (the W3C Trace Context name).
TRACEPARENT_HEADER = "traceparent"

_TRACEPARENT_RE = re.compile(r"^00-([0-9a-f]{32})-([0-9a-f]{16})-([0-9a-f]{2})$")

_CURRENT_SPAN: "ContextVar[Span | None]" = ContextVar("repro_current_span", default=None)
_ACTIVE_TRACER: "ContextVar[Tracer | None]" = ContextVar("repro_active_tracer", default=None)


#: Span-id generator: a PRNG seeded once from ``os.urandom`` is ~5x cheaper
#: per id than calling ``os.urandom`` for every span (ids need uniqueness, not
#: cryptographic strength), which matters when a traced grading request
#: emits a span per plan operator.  A forked child reseeds, so two processes
#: cannot share an id stream.
_ID_RANDOM = random.Random(os.urandom(16))


def _reseed_ids() -> None:
    _ID_RANDOM.seed(os.urandom(16))


os.register_at_fork(after_in_child=_reseed_ids)


def _new_id(nbytes: int) -> str:
    return _ID_RANDOM.randbytes(nbytes).hex()


class SpanContext(NamedTuple):
    """The propagatable identity of a span: ``(trace_id, span_id)``."""

    trace_id: str
    span_id: str

    def to_traceparent(self) -> str:
        """The W3C-style header value (version 00, sampled flag set)."""
        return f"00-{self.trace_id}-{self.span_id}-01"

    @staticmethod
    def parse(header: str | None) -> "SpanContext | None":
        """Parse a ``traceparent`` header; junk (or absence) yields ``None``.

        Malformed context must never fail a request — a trace that cannot be
        continued is simply restarted.
        """
        if not header:
            return None
        match = _TRACEPARENT_RE.match(header.strip().lower())
        if match is None:
            return None
        trace_id, span_id, _flags = match.groups()
        if set(trace_id) == {"0"} or set(span_id) == {"0"}:
            return None  # all-zero ids are invalid per the W3C spec
        return SpanContext(trace_id=trace_id, span_id=span_id)


class Span:
    """One timed operation within a trace.

    ``start`` is wall-clock (``time.time()``) — the only timestamp comparable
    across the processes a trace crosses — while ``duration`` is measured on
    ``perf_counter`` so a clock step mid-request cannot produce negative or
    wildly wrong latencies.

    A span made by a :class:`Tracer` is also its own ``with``-block context
    manager (see :meth:`Tracer.span`): entering publishes it (and its
    tracer) as the ambient context; exiting restores the previous context,
    marks the span ``error`` when the block raised, and finishes it through
    the tracer's routing.
    """

    __slots__ = (
        "name",
        "service",
        "trace_id",
        "span_id",
        "parent_id",
        "start",
        "duration",
        "status",
        "attributes",
        "metrics",
        "_perf_start",
        "_tracer",
        "_span_token",
        "_tracer_token",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        trace_id: str,
        span_id: str,
        parent_id: str | None = None,
        attributes: Mapping[str, Any] | None = None,
    ) -> None:
        self.name = name
        self.service = tracer.service
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = time.time()
        self.duration: float | None = None
        self.status = "ok"
        self.attributes: dict[str, Any] = dict(attributes) if attributes else {}
        self.metrics: dict[str, float] = {}
        self._tracer = tracer
        self._perf_start = time.perf_counter()

    @property
    def context(self) -> SpanContext:
        return SpanContext(self.trace_id, self.span_id)

    def add_metric(self, name: str, value: float) -> None:
        """Accumulate a numeric counter onto this span (sums across calls)."""
        self.metrics[name] = self.metrics.get(name, 0.0) + float(value)

    def finish(self) -> "Span":
        if self.duration is None:
            self.duration = time.perf_counter() - self._perf_start
        return self

    def __enter__(self) -> "Span":
        tracer = self._tracer
        self._span_token = _CURRENT_SPAN.set(self)
        # Nested spans of one tracer leave the ambient tracer as it is.
        self._tracer_token = (
            None if _ACTIVE_TRACER.get() is tracer else _ACTIVE_TRACER.set(tracer)
        )
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        if self._tracer_token is not None:
            _ACTIVE_TRACER.reset(self._tracer_token)
        _CURRENT_SPAN.reset(self._span_token)
        if exc_type is not None:
            self.status = "error"
            self.attributes.setdefault("error", exc_type.__name__)
        self._tracer.finish_span(self)
        return False

    def to_dict(self) -> dict[str, Any]:
        """The JSON/pickle-safe wire form (crosses the worker queue as-is)."""
        out: dict[str, Any] = {
            "name": self.name,
            "service": self.service,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "duration": self.duration if self.duration is not None else 0.0,
            "status": self.status,
        }
        if self.attributes:
            out["attributes"] = dict(self.attributes)
        if self.metrics:
            out["metrics"] = dict(self.metrics)
        return out


class TraceStore:
    """A bounded, thread-safe, in-memory map of trace id → finished spans.

    Traces are evicted least-recently-*updated* once ``max_traces`` is
    exceeded; within one trace, spans beyond ``max_spans_per_trace`` are
    counted but dropped.  Both bounds exist so the debug endpoint can never
    become a memory leak on a busy daemon.
    """

    def __init__(self, max_traces: int = 256, max_spans_per_trace: int = 512) -> None:
        self.max_traces = max_traces
        self.max_spans_per_trace = max_spans_per_trace
        self._lock = threading.Lock()
        self._traces: "OrderedDict[str, list[dict[str, Any]]]" = OrderedDict()
        self._dropped: dict[str, int] = {}

    def add(self, span: Mapping[str, Any]) -> None:
        trace_id = span.get("trace_id")
        if not isinstance(trace_id, str) or not trace_id:
            return
        with self._lock:
            spans = self._traces.get(trace_id)
            if spans is None:
                spans = self._traces[trace_id] = []
            else:
                self._traces.move_to_end(trace_id)
            if len(spans) >= self.max_spans_per_trace:
                self._dropped[trace_id] = self._dropped.get(trace_id, 0) + 1
            else:
                spans.append(dict(span))
            while len(self._traces) > self.max_traces:
                evicted, _ = self._traces.popitem(last=False)
                self._dropped.pop(evicted, None)

    def get(self, trace_id: str) -> list[dict[str, Any]] | None:
        with self._lock:
            spans = self._traces.get(trace_id)
            return None if spans is None else list(spans)

    def snapshot(self, limit: int = 20) -> list[dict[str, Any]]:
        """The most recently updated traces, newest first."""
        with self._lock:
            items = list(self._traces.items())[-max(0, limit):]
        return [
            {
                "trace_id": trace_id,
                "spans": list(spans),
                "dropped_spans": self._dropped.get(trace_id, 0),
            }
            for trace_id, spans in reversed(items)
        ]

    def __len__(self) -> int:
        with self._lock:
            return len(self._traces)


#: Sentinel distinguishing "no parent argument" (→ use the ambient current
#: span) from an explicit ``parent=None`` (→ start a new root trace).
_AMBIENT = object()


class Tracer:
    """Creates spans for one service and routes them as they finish."""

    def __init__(
        self,
        service: str,
        *,
        store: TraceStore | None = None,
        slow_threshold: float | None = None,
        slow_capacity: int = 64,
        on_span: "Callable[[Span], None] | None" = None,
    ) -> None:
        self.service = service
        self.store = store
        self.slow_threshold = slow_threshold
        self.on_span = on_span
        #: Recent slow *root* spans (duration ≥ ``slow_threshold``), newest
        #: last — the in-memory slow-request log behind ``/v1/debug/traces``.
        self.slow_spans: "deque[dict[str, Any]]" = deque(maxlen=slow_capacity)
        self._captures: list[list[dict[str, Any]]] = []
        self._capture_lock = threading.Lock()

    # -- span lifecycle ------------------------------------------------------

    def start_span(
        self,
        name: str,
        *,
        parent: Any = _AMBIENT,
        attributes: Mapping[str, Any] | None = None,
    ) -> Span:
        """Create a running span without touching the ambient context.

        Callers that cannot use a ``with`` block (a span handed across
        callbacks) pair this with :meth:`finish_span`.
        """
        # A parent is a Span or a SpanContext; both name their two ids.
        resolved = _CURRENT_SPAN.get() if parent is _AMBIENT else parent
        if resolved is None:
            trace_id, parent_id = _new_id(16), None
        else:
            trace_id, parent_id = resolved.trace_id, resolved.span_id
        return Span(self, name, trace_id, _new_id(8), parent_id, attributes)

    def finish_span(self, span: Span, *, status: str | None = None) -> Span:
        if status is not None:
            span.status = status
        span.finish()
        self._record(span)
        return span

    def span(
        self,
        name: str,
        *,
        parent: Any = _AMBIENT,
        attributes: Mapping[str, Any] | None = None,
    ) -> Span:
        """A span that is also the ambient current span inside the block.

        The span is its own slotted context manager rather than a
        ``@contextmanager`` generator — this sits on the traced hot path
        (one per grading phase plus one per engine operator), where the
        generator machinery and every extra allocation are measurable.
        """
        return self.start_span(name, parent=parent, attributes=attributes)

    # -- capture (per-request span collection in worker processes) -----------

    @contextmanager
    def capture(self) -> Iterator[list[dict[str, Any]]]:
        """Collect every span finished on this tracer while the block runs.

        The worker process wraps one traced grade in a capture and ships the
        collected dicts back over the result queue alongside the envelope.
        """
        collected: list[dict[str, Any]] = []
        with self._capture_lock:
            self._captures.append(collected)
        try:
            yield collected
        finally:
            with self._capture_lock:
                self._captures.remove(collected)

    # -- routing -------------------------------------------------------------

    def _record(self, span: Span) -> None:
        payload = span.to_dict()
        if self.store is not None:
            self.store.add(payload)
        if self._captures:  # most tracers capture nothing: skip the lock
            with self._capture_lock:
                for collected in self._captures:
                    collected.append(payload)
        if (
            self.slow_threshold is not None
            and span.parent_id is None
            and span.duration is not None
            and span.duration >= self.slow_threshold
        ):
            self.slow_spans.append(payload)
            log.warning(
                "slow request: %s took %.3fs (trace %s)",
                span.name,
                span.duration,
                span.trace_id,
                extra={"trace_id": span.trace_id, "span_id": span.span_id},
            )
        if self.on_span is not None:
            try:
                self.on_span(span)
            except Exception:  # pragma: no cover - observability must not throw
                log.debug("span callback failed for %s", span.name, exc_info=True)


# ---------------------------------------------------------------------------
# Ambient helpers (safe no-ops when nothing is being traced)
# ---------------------------------------------------------------------------


def current_span() -> Span | None:
    """The span currently ambient on this thread/task, if any."""
    return _CURRENT_SPAN.get()


def active_tracer() -> Tracer | None:
    """The tracer that opened the current ambient span, if any."""
    return _ACTIVE_TRACER.get()


def current_traceparent() -> str | None:
    """The ``traceparent`` header value for the ambient span, if any."""
    span = _CURRENT_SPAN.get()
    return None if span is None else span.context.to_traceparent()


def add_span_metrics(**metrics: float) -> None:
    """Accumulate numeric counters onto the ambient span (no-op without one).

    This is the hook deep subsystems use without depending on any tracer:
    the SAT solver reports per-solve conflict/decision/propagation deltas
    here, and they land on whatever span wraps the counterexample search.
    """
    span = _CURRENT_SPAN.get()
    if span is None:
        return
    for name, value in metrics.items():
        span.add_metric(name, value)


class _NullSpan:
    """Shared no-op context manager for :func:`span` without an active tracer."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: Any) -> bool:
        return False


_NULL_SPAN = _NullSpan()


def span(name: str, **attributes: Any):
    """A child span on the active tracer, or a free no-op when there is none.

    The cost when tracing is off is one ``ContextVar.get`` and a shared
    object — cheap enough for per-grade (not per-row) instrumentation points.
    """
    tracer = _ACTIVE_TRACER.get()
    if tracer is None:
        return _NULL_SPAN
    return tracer.span(name, attributes=attributes or None)


__all__ = [
    "TRACEPARENT_HEADER",
    "Span",
    "SpanContext",
    "TraceStore",
    "Tracer",
    "active_tracer",
    "add_span_metrics",
    "current_span",
    "current_traceparent",
    "span",
]
