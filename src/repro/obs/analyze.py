"""EXPLAIN ANALYZE: per-operator runtime instrumentation for the plan engine.

A :class:`PlanAnalyzer` hooks into :meth:`PlanExecutor.run_cached` — the
single choke point every operator (the batch operators and the dict set
operations alike) funnels through — and records, per plan node execution: wall time, actual output
rows, whether the result came from the session memo (cache attribution),
whether a batch operator produced it, and whether a hash-index fast
path served a build side.  The records form a tree mirroring the executed plan.

:class:`ExplainAnalysis` then joins those actuals against
:class:`~repro.engine.optimizer.CardinalityEstimator` predictions to compute
per-operator **q-error** — ``max(est/actual, actual/est)``, the standard
scale-free measure of estimation quality (1.0 = perfect).  This is the
feedback loop the optimizer work needs: the estimator's numbers checked
against what actually ran, on every operator of every analyzed query.

:func:`emit_operator_spans` converts the same records into trace spans so a
``?trace=1`` grading request carries engine operators in its trace.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

from repro.obs.trace import Span, SpanContext, Tracer, active_tracer, current_span


def q_error(estimated: float | None, actual: float) -> float | None:
    """The q-error of a cardinality estimate: ``max(est/act, act/est)`` ≥ 1.

    Both sides are clamped to 1 row first, the usual convention so empty
    results do not divide by zero and sub-row fractional estimates do not
    produce spurious error.  ``None`` estimate → ``None`` (nothing to grade).
    """
    if estimated is None:
        return None
    est = max(1.0, float(estimated))
    act = max(1.0, float(actual))
    return max(est / act, act / est)


def _describe(plan: Any) -> str:
    """A short human label for a plan node (defensive: missing attrs → '')."""
    relation = getattr(plan, "relation", None)
    if relation is not None:
        return str(relation)
    left_key = getattr(plan, "left_key", None)
    right_key = getattr(plan, "right_key", None)
    if left_key is not None and right_key is not None:
        return f"key {tuple(left_key)}={tuple(right_key)}"
    predicate = getattr(plan, "predicate", None)
    if predicate is not None:
        text = repr(predicate)
        return text if len(text) <= 60 else text[:57] + "..."
    indexes = getattr(plan, "indexes", None)
    if indexes is not None:
        return f"cols {tuple(indexes)}"
    group = getattr(plan, "group_indexes", None)
    if group is not None:
        return f"group by {tuple(group)}"
    return ""


@dataclass(slots=True)
class OperatorRecord:
    """One executed plan-node occurrence, with its children."""

    plan: Any
    op: str
    detail: str
    start: float = 0.0
    seconds: float = 0.0
    actual_rows: int = 0
    cached: bool = False
    columnar: bool = False
    status: str = "ok"
    est_rows: float | None = None
    extra: dict[str, Any] = field(default_factory=dict)
    children: list["OperatorRecord"] = field(default_factory=list)

    @property
    def q_error(self) -> float | None:
        return q_error(self.est_rows, self.actual_rows)

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "op": self.op,
            "detail": self.detail,
            "seconds": self.seconds,
            "actual_rows": self.actual_rows,
            "cached": self.cached,
            "columnar": self.columnar,
            "status": self.status,
        }
        if self.est_rows is not None:
            out["est_rows"] = self.est_rows
            out["q_error"] = self.q_error
        if self.extra:
            out.update(self.extra)
        if self.children:
            out["children"] = [child.to_dict() for child in self.children]
        return out


class PlanAnalyzer:
    """Collects an operator tree while a :class:`PlanExecutor` runs a plan.

    The executor's ``run_cached`` calls :meth:`enter` before and :meth:`exit`
    after each memo lookup-or-compute, so analyzed execution runs the very
    same memo protocol as unanalyzed execution; the analyzer only adds the
    timing and row bookkeeping around it.
    """

    def __init__(
        self, meta_cache: "dict[int, tuple[Any, str, str]] | None" = None
    ) -> None:
        self.roots: list[OperatorRecord] = []
        self._stack: list[tuple[OperatorRecord, float]] = []  # (record, start)
        #: Optional identity-keyed ``{id(plan): (plan, op, detail)}`` cache.
        #: Describing a node (``repr`` of predicates, mostly) is plan-static,
        #: so sessions that cache physical plans share one long-lived dict
        #: across analyzed executions; entries pin the node to keep ids valid.
        self._meta = meta_cache

    def enter(self, plan: Any) -> None:
        """Open a record for ``plan`` under the operator currently executing."""
        meta = None if self._meta is None else self._meta.get(id(plan))
        if meta is not None and meta[0] is plan:
            op, detail = meta[1], meta[2]
        else:
            op = type(plan).__name__.removesuffix("Op")
            detail = _describe(plan)
            if self._meta is not None:
                self._meta[id(plan)] = (plan, op, detail)
        record = OperatorRecord(plan=plan, op=op, detail=detail)
        if self._stack:
            self._stack[-1][0].children.append(record)
        else:
            self.roots.append(record)
        record.start = time.time()
        self._stack.append((record, time.perf_counter()))

    def exit(self, result: Any, *, cached: bool) -> None:
        """Close the open record; ``result`` is ``None`` when execution raised."""
        record, begin = self._stack.pop()
        record.seconds = time.perf_counter() - begin
        if result is None:
            record.status = "error"
            return
        record.cached = cached
        record.actual_rows = len(result)
        record.columnar = not isinstance(result, dict)  # ColumnBatch result

    def note(self, **attrs: Any) -> None:
        """Attach extra attributes to the operator currently executing.

        The hash-index fast paths in ``columnar.py`` call
        this with ``from_index=True`` when a join build side was served from
        a prebuilt relation index instead of being materialized.
        """
        if self._stack:
            self._stack[-1][0].extra.update(attrs)


def _attach_estimates(
    records: "list[OperatorRecord]",
    estimator: Any,
    est_cache: "dict[int, tuple[Any, float | None]] | None" = None,
) -> None:
    """Set ``est_rows`` on every record of the trees rooted at ``records``.

    ``est_cache`` memoizes estimates per plan-node *identity* (the entry pins
    the node so its id cannot be recycled); see :func:`emit_operator_spans`.
    A node the estimator has no rule for (it raises ``TypeError``) keeps
    ``est_rows = None``.
    """
    for record in records:
        hit = None if est_cache is None else est_cache.get(id(record.plan))
        if hit is not None and hit[0] is record.plan:
            record.est_rows = hit[1]
        else:
            try:
                record.est_rows = estimator.estimate(record.plan)
            except TypeError:
                record.est_rows = None
            if est_cache is not None:
                est_cache[id(record.plan)] = (record.plan, record.est_rows)
        _attach_estimates(record.children, estimator, est_cache)


@dataclass
class ExplainAnalysis:
    """The finished EXPLAIN ANALYZE result for one executed expression."""

    roots: list[OperatorRecord]
    output_rows: int
    total_seconds: float

    @staticmethod
    def build(
        analyzer: PlanAnalyzer,
        estimator: Any | None,
        *,
        output_rows: int,
        total_seconds: float,
    ) -> "ExplainAnalysis":
        """Attach estimator predictions to the analyzer's operator tree."""
        if estimator is not None:
            _attach_estimates(analyzer.roots, estimator)
        return ExplainAnalysis(
            roots=analyzer.roots,
            output_rows=output_rows,
            total_seconds=total_seconds,
        )

    def max_q_error(self) -> float | None:
        worst: float | None = None

        def visit(record: OperatorRecord) -> None:
            nonlocal worst
            qe = record.q_error
            if qe is not None and (worst is None or qe > worst):
                worst = qe
            for child in record.children:
                visit(child)

        for root in self.roots:
            visit(root)
        return worst

    def render(self) -> str:
        """An ASCII operator tree: actual vs estimated rows with q-error."""
        lines = [
            f"EXPLAIN ANALYZE  ({self.output_rows} rows, "
            f"{self.total_seconds * 1000:.2f} ms)"
        ]

        def visit(record: OperatorRecord, depth: int) -> None:
            parts = [f"actual={record.actual_rows}"]
            if record.est_rows is not None:
                parts.append(f"est={record.est_rows:.0f}")
                qe = record.q_error
                if qe is not None:
                    parts.append(f"q-err={qe:.2f}")
            parts.append(f"time={record.seconds * 1000:.2f}ms")
            if record.cached:
                parts.append("cached")
            if record.columnar:
                parts.append("columnar")
            if record.extra.get("from_index"):
                parts.append("index")
            if record.status != "ok":
                parts.append(record.status)
            label = record.op if not record.detail else f"{record.op}({record.detail})"
            lines.append("  " * depth + f"-> {label}  [{', '.join(parts)}]")
            for child in record.children:
                visit(child, depth + 1)

        for root in self.roots:
            visit(root, 1)
        return "\n".join(lines)

    def to_dict(self) -> dict[str, Any]:
        return {
            "output_rows": self.output_rows,
            "total_seconds": self.total_seconds,
            "max_q_error": self.max_q_error(),
            "operators": [root.to_dict() for root in self.roots],
        }


def emit_operator_spans(
    analyzer: PlanAnalyzer,
    estimator: Any | None = None,
    *,
    tracer: Tracer | None = None,
    parent: "Span | SpanContext | None" = None,
    est_cache: "dict[int, tuple[Any, float | None]] | None" = None,
) -> int:
    """Record the analyzer's operator tree as spans on the (ambient) tracer.

    Defaults to the active tracer and current span, so the engine can emit
    operator spans under whatever request span happens to be open without
    knowing who opened it.  Returns the number of spans emitted.

    ``est_cache`` memoizes estimates per plan-node *identity* across calls
    (the entry pins the node so its id cannot be recycled).  Plan nodes hash
    structurally — an O(subtree) cost per ``estimate`` lookup that the hot
    traced-grading path cannot afford on every request — so callers that
    cache physical plans (the engine session) pass a long-lived dict here.
    """
    tracer = tracer if tracer is not None else active_tracer()
    if tracer is None:
        return 0
    parent = parent if parent is not None else current_span()
    if estimator is not None:
        _attach_estimates(analyzer.roots, estimator, est_cache)
    emitted = 0

    def visit(record: OperatorRecord, span_parent: Any) -> None:
        nonlocal emitted
        attributes: dict[str, Any] = {
            "rows": record.actual_rows,
            "cached": record.cached,
            "columnar": record.columnar,
        }
        if record.detail:
            attributes["detail"] = record.detail
        if record.est_rows is not None:
            attributes["est_rows"] = record.est_rows
            qe = record.q_error
            if qe is not None:
                attributes["q_error"] = qe
        attributes.update(record.extra)
        span = tracer.emit(
            f"op.{record.op}",
            parent=span_parent,
            start=record.start,
            duration=record.seconds,
            attributes=attributes,
            status=record.status,
        )
        emitted += 1
        for child in record.children:
            visit(child, span)

    for root in analyzer.roots:
        visit(root, parent)
    return emitted


__all__ = [
    "ExplainAnalysis",
    "OperatorRecord",
    "PlanAnalyzer",
    "emit_operator_spans",
    "q_error",
]
