"""Columnar batches: column-wise execution of the Set domain's hot path.

A :class:`ColumnBatch` holds the distinct rows of an intermediate result in
first-seen order — exactly the key order of the row-at-a-time executor's
``dict[Values, annotation]`` — with per-column value lists materialized
lazily, so filters touch only the columns their predicates read.  The batch
converts to the dict representation on demand (:meth:`ColumnBatch.to_mapping`)
and the conversion is cached, so session memos can hold either representation
interchangeably and every downstream consumer (set operations, aggregation,
the public facade) sees the same rows in the same order as before.

Only scan, filter, project, hash join and semijoin are lowered — the
operators dominating warm grading workloads — and only under the Set domain:
provenance and other order-sensitive domains keep the per-dict row path,
whose annotation folding order is part of their contract.

Correctness notes, load-bearing for the differential fuzzer:

* predicates that can raise (parameters, division, ill-typed ordered
  comparisons) are evaluated row-at-a-time with the exact closure the dict
  path uses, so *which* row raises first — and therefore which error a
  student sees — is unchanged;
* non-raising conjuncts are applied column-at-a-time in conjunct order,
  which filters the same rows the per-row ``And`` short-circuit does;
* every conjunct is compiled before any is applied, so unknown-attribute
  errors surface even on empty inputs, like the dict path's up-front
  predicate compilation;
* join outputs are deduplicated (first-seen) only when column-dropping can
  fold rows (``keep_right``), mirroring the dict path's plus-fold.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from repro.catalog.instance import Values
from repro.engine.logical import (
    FilterOp,
    JoinOp,
    PlanNode,
    ProjectOp,
    ScanOp,
    SemiJoinOp,
)
from repro.engine.physical import compile_predicate, key_function
from repro.errors import QueryEvaluationError, UnknownAttributeError
from repro.ra.analysis import predicate_can_raise
from repro.ra.predicates import COMPARISON_OPS, ColumnRef, Comparison, Literal

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.engine.physical import PlanExecutor


class ColumnBatch:
    """Distinct rows in first-seen order, with lazy per-column views.

    Invariants: rows are distinct, and their order is exactly the insertion
    order the row-at-a-time dict path would produce for the same plan.
    ``annotations`` is ``None`` when every row carries the domain's "present"
    annotation (always the case under the Set domain, the only domain lowered
    to columnar execution); otherwise it is a list parallel to the rows.
    """

    __slots__ = ("width", "annotations", "_rows", "_mapping", "_columns")

    def __init__(
        self,
        width: int,
        *,
        rows: "list[Values] | None" = None,
        mapping: "dict[Values, Any] | None" = None,
        annotations: "list[Any] | None" = None,
    ) -> None:
        self.width = width
        self.annotations = annotations
        self._rows = rows
        self._mapping = mapping
        self._columns: dict[int, list] = {}

    @classmethod
    def from_rows(
        cls, width: int, rows: "list[Values]", annotations: "list[Any] | None" = None
    ) -> "ColumnBatch":
        return cls(width, rows=rows, annotations=annotations)

    @classmethod
    def from_mapping(cls, mapping: "dict[Values, Any]") -> "ColumnBatch":
        rows = list(mapping)
        width = len(rows[0]) if rows else 0
        annotations = None
        if any(annotation is not True for annotation in mapping.values()):
            annotations = list(mapping.values())
        return cls(width, rows=rows, mapping=mapping, annotations=annotations)

    def __len__(self) -> int:
        if self._rows is not None:
            return len(self._rows)
        return len(self._mapping)  # type: ignore[arg-type]

    def rows(self) -> "list[Values]":
        if self._rows is None:
            self._rows = list(self._mapping)  # type: ignore[arg-type]
        return self._rows

    def column(self, index: int) -> list:
        """The values of one column, materialized lazily and cached."""
        cached = self._columns.get(index)
        if cached is None:
            cached = [row[index] for row in self.rows()]
            self._columns[index] = cached
        return cached

    def to_mapping(self) -> "dict[Values, Any]":
        """The equivalent annotated row dict (cached; treat as read-only)."""
        if self._mapping is None:
            if self.annotations is None:
                self._mapping = dict.fromkeys(self.rows(), True)
            else:
                self._mapping = dict(zip(self.rows(), self.annotations))
        return self._mapping


def as_mapping(result: "dict[Values, Any] | ColumnBatch") -> "dict[Values, Any]":
    """Normalize an executor/memo result to the annotated-dict representation."""
    if isinstance(result, dict):
        return result
    return result.to_mapping()


def _child_batch(executor: "PlanExecutor", plan: PlanNode) -> ColumnBatch:
    result = executor.run_cached(plan)
    if isinstance(result, ColumnBatch):
        return result
    return ColumnBatch.from_mapping(result)


def _index_of(schema, name: str) -> int:
    try:
        return schema.index_of(name)
    except UnknownAttributeError as exc:
        raise QueryEvaluationError(str(exc)) from exc


# ---------------------------------------------------------------------------
# Operators
# ---------------------------------------------------------------------------


def execute_columnar(executor: "PlanExecutor", plan: PlanNode) -> ColumnBatch:
    """Columnar evaluation of one plan node (children via the executor memo)."""
    if isinstance(plan, ScanOp):
        return _scan(executor, plan)
    if isinstance(plan, FilterOp):
        return _filter(executor, plan)
    if isinstance(plan, ProjectOp):
        return _project(executor, plan)
    if isinstance(plan, JoinOp):
        return _hash_join(executor, plan)
    if isinstance(plan, SemiJoinOp):
        return _semi_join(executor, plan)
    raise QueryEvaluationError(
        f"plan node {type(plan).__name__} has no columnar lowering"
    )  # pragma: no cover - dispatch is gated on the same isinstance checks


def _scan(executor: "PlanExecutor", plan: ScanOp) -> ColumnBatch:
    relation = executor.instance.relation(plan.relation)
    rows = list(dict.fromkeys(values for _, values in relation.tuples()))
    return ColumnBatch.from_rows(relation.schema.arity, rows)


# A conjunct applier maps (batch, selected row positions | None, params) to
# the surviving row positions; ``None`` means "all rows" and lets the first
# conjunct skip building an index list.
_ConjunctFn = Callable[[ColumnBatch, "list[int] | None", Any], "list[int]"]


def _compile_conjunct(conjunct, schema) -> _ConjunctFn:
    if isinstance(conjunct, Comparison):
        left, right = conjunct.left, conjunct.right
        op = COMPARISON_OPS[conjunct.op]
        if isinstance(left, ColumnRef) and isinstance(right, Literal):
            index = _index_of(schema, left.name)
            value = right.value

            def column_literal(batch, selected, params):
                if value is None:
                    return []
                column = batch.column(index)
                positions = range(len(column)) if selected is None else selected
                return [
                    s for s in positions if column[s] is not None and op(column[s], value)
                ]

            return column_literal
        if isinstance(left, Literal) and isinstance(right, ColumnRef):
            index = _index_of(schema, right.name)
            value = left.value

            def literal_column(batch, selected, params):
                if value is None:
                    return []
                column = batch.column(index)
                positions = range(len(column)) if selected is None else selected
                return [
                    s for s in positions if column[s] is not None and op(value, column[s])
                ]

            return literal_column
        if isinstance(left, ColumnRef) and isinstance(right, ColumnRef):
            left_index = _index_of(schema, left.name)
            right_index = _index_of(schema, right.name)

            def column_column(batch, selected, params):
                a = batch.column(left_index)
                b = batch.column(right_index)
                positions = range(len(a)) if selected is None else selected
                return [
                    s
                    for s in positions
                    if a[s] is not None and b[s] is not None and op(a[s], b[s])
                ]

            return column_column
    keep = compile_predicate(conjunct, schema)

    def generic(batch, selected, params):
        rows = batch.rows()
        positions = range(len(rows)) if selected is None else selected
        return [s for s in positions if keep(rows[s], params)]

    return generic


def _filter(executor: "PlanExecutor", plan: FilterOp) -> ColumnBatch:
    batch = _child_batch(executor, plan.child)
    if predicate_can_raise(plan.predicate, plan.schema):
        # Row-at-a-time with the dict path's exact closure: which row raises
        # first (and therefore which error the caller sees) must not change.
        keep = compile_predicate(plan.predicate, plan.schema)
        params = executor.params
        rows = [row for row in batch.rows() if keep(row, params)]
        if len(rows) == len(batch):
            return batch
        return ColumnBatch.from_rows(batch.width, rows)
    # Compile every conjunct before applying any: the dict path compiles the
    # whole predicate up front, so e.g. unknown attributes raise even when
    # the input is empty or an earlier conjunct filters everything out.
    appliers = [_compile_conjunct(c, plan.schema) for c in plan.predicate.conjuncts()]
    selected: "list[int] | None" = None
    params = executor.params
    for apply_conjunct in appliers:
        selected = apply_conjunct(batch, selected, params)
        if not selected:
            break
    if selected is None or len(selected) == len(batch):
        return batch
    rows = batch.rows()
    return ColumnBatch.from_rows(batch.width, [rows[s] for s in selected])


def _project(executor: "PlanExecutor", plan: ProjectOp) -> ColumnBatch:
    batch = _child_batch(executor, plan.child)
    extract = key_function(plan.indexes)
    rows = list(dict.fromkeys(map(extract, batch.rows())))
    return ColumnBatch.from_rows(len(plan.indexes), rows)


def _build_table(
    executor: "PlanExecutor", plan: PlanNode, key: tuple[int, ...]
) -> "dict[tuple, list[Values]]":
    """Build-side hash table: key tuple → distinct rows in first-seen order."""
    if isinstance(plan, ScanOp):
        if executor.analyzer is not None:
            executor.analyzer.note(from_index=True)
        index = executor.instance.relation(plan.relation).hash_index(key)
        return {
            key_values: list(dict.fromkeys(values for _, values in entries))
            for key_values, entries in index.items()
        }
    extract = key_function(key)
    table: dict[tuple, list[Values]] = {}
    for row in _child_batch(executor, plan).rows():
        table.setdefault(extract(row), []).append(row)
    return table


def _hash_join(executor: "PlanExecutor", plan: JoinOp) -> ColumnBatch:
    build_left = plan.build_left
    if build_left:
        build_plan, build_key = plan.left, plan.left_key
        probe_plan, probe_key = plan.right, plan.right_key
    else:
        build_plan, build_key = plan.right, plan.right_key
        probe_plan, probe_key = plan.left, plan.left_key
    table = _build_table(executor, build_plan, build_key)
    probe = _child_batch(executor, probe_plan)
    extract = key_function(probe_key)
    residual = [compile_predicate(p, plan.schema) for p in plan.residual]
    params = executor.params
    keep_right = plan.keep_right
    out: list[Values] = []
    for probe_row in probe.rows():
        matches = table.get(extract(probe_row))
        if not matches:
            continue
        for build_row in matches:
            if build_left:
                left_row, right_row = build_row, probe_row
            else:
                left_row, right_row = probe_row, build_row
            if keep_right is None:
                combined = left_row + right_row
            else:
                combined = left_row + tuple(right_row[i] for i in keep_right)
            if residual and not all(p(combined, params) for p in residual):
                continue
            out.append(combined)
    if keep_right is not None:
        # Dropping shared columns can fold distinct input pairs onto one
        # output row; full concatenation (keep_right None) never can.
        out = list(dict.fromkeys(out))
    return ColumnBatch.from_rows(plan.schema.arity, out)


def _semi_join(executor: "PlanExecutor", plan: SemiJoinOp) -> ColumnBatch:
    left = _child_batch(executor, plan.left)
    if isinstance(plan.right, ScanOp):
        if executor.analyzer is not None:
            executor.analyzer.note(from_index=True)
        keys = executor.instance.relation(plan.right.relation).hash_index(plan.right_key)
    else:
        extract_right = key_function(plan.right_key)
        keys = {extract_right(row) for row in _child_batch(executor, plan.right).rows()}
    extract = key_function(plan.left_key)
    rows = [row for row in left.rows() if extract(row) in keys]
    if len(rows) == len(left):
        return left
    return ColumnBatch.from_rows(left.width, rows)
