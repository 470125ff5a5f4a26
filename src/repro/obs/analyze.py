"""EXPLAIN ANALYZE: per-operator runtime attribution for the plan engine.

Engine operators are spans.  Whenever a span is current, every Set-domain
plan-node execution in :meth:`PlanExecutor.run_cached
<repro.engine.physical.PlanExecutor.run_cached>` opens an ``op.<Operator>``
span around its memo lookup-or-compute.  The span carries the node's
``detail`` label and the
:class:`~repro.engine.optimizer.CardinalityEstimator`'s ``est_rows``; when it
closes, the actual output ``rows``, whether the session memo served it
(``cached``), whether a batch operator produced it (``columnar``) and the
**q-error** ``max(est/actual, actual/est)``, the standard scale-free measure
of estimation quality (1.0 = perfect).  A join whose build side was served
from a prebuilt relation index adds ``from_index``.

:class:`ExplainAnalysis` is the same spans rebuilt into an operator tree:
:meth:`EngineSession.explain_analyze
<repro.engine.session.EngineSession.explain_analyze>` evaluates under a
private tracer, captures the spans and hands them to
:meth:`ExplainAnalysis.from_spans`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping


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


def operator_meta(plan: Any, estimator: Any) -> tuple[str, str, float | None]:
    """``(span name, detail, est_rows)`` of the operator span over ``plan``.

    A node the estimator has no rule for (it raises ``TypeError``) gets
    ``est_rows = None``.
    """
    try:
        est_rows = estimator.estimate(plan)
    except TypeError:
        est_rows = None
    return f"op.{type(plan).__name__.removesuffix('Op')}", _describe(plan), est_rows


#: Operator-span attributes that :class:`OperatorRecord` holds as fields;
#: any other attribute (``from_index``) lands in its ``extra``.
_RECORD_ATTRIBUTES = frozenset(
    {"detail", "rows", "cached", "columnar", "est_rows", "q_error"}
)


@dataclass(slots=True)
class OperatorRecord:
    """One executed plan-node occurrence, with its children."""

    op: str
    detail: str
    seconds: float = 0.0
    actual_rows: int = 0
    cached: bool = False
    columnar: bool = False
    status: str = "ok"
    est_rows: float | None = None
    extra: dict[str, Any] = field(default_factory=dict)
    children: list["OperatorRecord"] = field(default_factory=list)

    @staticmethod
    def from_span(
        span: Mapping[str, Any], children: "list[OperatorRecord]"
    ) -> "OperatorRecord":
        """The record of one finished ``op.*`` span dict."""
        attributes = span.get("attributes") or {}
        return OperatorRecord(
            op=span["name"].removeprefix("op."),
            detail=attributes.get("detail", ""),
            seconds=span["duration"],
            actual_rows=attributes.get("rows", 0),
            cached=attributes.get("cached", False),
            columnar=attributes.get("columnar", False),
            status=span["status"],
            est_rows=attributes.get("est_rows"),
            extra={
                key: value
                for key, value in attributes.items()
                if key not in _RECORD_ATTRIBUTES
            },
            children=children,
        )

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


@dataclass
class ExplainAnalysis:
    """The finished EXPLAIN ANALYZE result for one executed expression."""

    roots: list[OperatorRecord]
    output_rows: int
    total_seconds: float

    @staticmethod
    def from_spans(
        spans: Iterable[Mapping[str, Any]], *, output_rows: int
    ) -> "ExplainAnalysis":
        """Rebuild the operator tree from captured span dicts.

        Spans arrive in finish order, so every operator's children are
        complete before the operator itself; spans other than ``op.*`` are
        skipped, and operators whose parent is not an operator become roots.
        ``total_seconds`` is the roots' combined duration.
        """
        children: dict[Any, list[OperatorRecord]] = {}
        for span in spans:
            if span["name"].startswith("op."):
                record = OperatorRecord.from_span(span, children.pop(span["span_id"], []))
                children.setdefault(span["parent_id"], []).append(record)
        roots = [record for records in children.values() for record in records]
        return ExplainAnalysis(
            roots=roots,
            output_rows=output_rows,
            total_seconds=sum(record.seconds for record in roots),
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


__all__ = [
    "ExplainAnalysis",
    "OperatorRecord",
    "operator_meta",
    "q_error",
]
