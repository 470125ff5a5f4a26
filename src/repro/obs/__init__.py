"""Observability: tracing, EXPLAIN ANALYZE, JSON logging, exposition parsing.

Stdlib-only.  :mod:`repro.obs.trace` and :mod:`repro.obs.analyze` are
import-light (no other repro imports) so any layer — engine, solver, server
— can depend on them without cycles.  There is one timing system: spans.
Grading phases, solver counters and engine operators (``op.*`` spans, opened
by the executor whenever a span is current) all land on the same tracer,
and EXPLAIN ANALYZE is those operator spans rebuilt into a tree.
"""

from repro.obs.analyze import (
    ExplainAnalysis,
    OperatorRecord,
    q_error,
)
from repro.obs.logging import JsonLogFormatter, configure_json_logging
from repro.obs.trace import (
    TRACEPARENT_HEADER,
    Span,
    SpanContext,
    TraceStore,
    Tracer,
    active_tracer,
    add_span_metrics,
    current_span,
    current_traceparent,
    span,
)

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
    "JsonLogFormatter",
    "configure_json_logging",
    "ExplainAnalysis",
    "OperatorRecord",
    "q_error",
]
