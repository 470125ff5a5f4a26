"""Columnar batches: the executor's scan, filter, project and hash join.

A :class:`ColumnBatch` holds the distinct rows of an intermediate result in
first-seen order, with per-column value lists materialized lazily, so
filters touch only the columns their predicates read.  The batch converts to
the annotated-dict representation the remaining (dict) operators and the
public facades consume on demand (:meth:`ColumnBatch.to_mapping`), and the
conversion is cached, so session memos can hold either representation
interchangeably.

These four operators run under every annotation domain.  Under the Set
domain a batch carries no annotations at all (every row is simply present)
and the inner loops stay bare; under any other domain it carries one
annotation per row, folded exactly as the reference provenance interpreter
(:mod:`repro.engine.reference`) folds them — the scan, projections and
``keep_right`` joins plus-fold in first-seen order and joins multiply
``times(left, right)`` whatever the build side — because Boolean provenance
keeps operand order.

Correctness notes, load-bearing for the differential fuzzers:

* predicates that can raise (parameters, division, ill-typed ordered
  comparisons) are evaluated row-at-a-time with the whole compiled
  predicate, so *which* row raises first — and therefore which error a
  student sees — matches the reference interpreter;
* non-raising conjuncts are applied column-at-a-time in conjunct order,
  which filters the same rows the per-row ``And`` short-circuit does; an
  ``Or`` of ``column = literal`` on one column is one set probe when every
  literal is hashable, non-NULL and not NaN (:func:`_membership_probe`);
* every conjunct is compiled before any is applied, so unknown-attribute
  errors surface even on empty inputs;
* join outputs are deduplicated (first-seen) only when column-dropping can
  fold rows (``keep_right``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable

from repro.catalog.instance import Relation, Values
from repro.engine.domains import SET_DOMAIN, AnnotationDomain
from repro.engine.logical import (
    FilterOp,
    JoinOp,
    PlanNode,
    ProjectOp,
    ScanOp,
)
from repro.engine.physical import compile_predicate, key_function
from repro.errors import QueryEvaluationError, UnknownAttributeError
from repro.obs.trace import current_span
from repro.ra.analysis import predicate_can_raise
from repro.ra.predicates import (
    COMPARISON_OPS,
    ColumnRef,
    Comparison,
    Literal,
    Or,
    constant_equality,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.engine.physical import PlanExecutor


class ColumnBatch:
    """Distinct rows in first-seen order, with lazy per-column views.

    Invariants: rows are distinct, in the insertion order the annotated-dict
    representation has.  ``annotations`` is ``None`` under the Set domain;
    under any other domain it is a list parallel to the rows.
    """

    __slots__ = ("annotations", "_rows", "_mapping", "_columns")

    def __init__(
        self,
        rows: "list[Values]",
        annotations: "list[Any] | None" = None,
        mapping: "dict[Values, Any] | None" = None,
    ) -> None:
        self.annotations = annotations
        self._rows = rows
        self._mapping = mapping
        self._columns: dict[int, list] = {}

    def __len__(self) -> int:
        return len(self._rows)

    def rows(self) -> "list[Values]":
        return self._rows

    def column(self, index: int) -> list:
        """The values of one column, materialized lazily and cached."""
        cached = self._columns.get(index)
        if cached is None:
            cached = [row[index] for row in self._rows]
            self._columns[index] = cached
        return cached

    def to_mapping(self) -> "dict[Values, Any]":
        """The equivalent annotated row dict (cached; treat as read-only)."""
        if self._mapping is None:
            if self.annotations is None:
                self._mapping = dict.fromkeys(self._rows, True)
            else:
                self._mapping = dict(zip(self._rows, self.annotations))
        return self._mapping


def _folded_batch(folded: "dict[Values, Any]") -> ColumnBatch:
    return ColumnBatch(list(folded), list(folded.values()))


def _plus_fold(
    pairs: "Iterable[tuple[Values, Any]]", domain: AnnotationDomain
) -> "dict[Values, Any]":
    """``{row: annotation}`` with repeated rows plus-folded in first-seen order."""
    folded: dict[Values, Any] = {}
    for row, annotation in pairs:
        existing = folded.get(row)
        folded[row] = annotation if existing is None else domain.plus(existing, annotation)
    return folded


def _tuple_pairs(entries, domain: AnnotationDomain):
    return ((values, domain.of_tuple(tid)) for tid, values in entries)


def index_table(relation: Relation, key: tuple[int, ...], domain: AnnotationDomain) -> dict:
    """Build-side table served from a relation's maintained hash index.

    Maps each join key to the distinct rows carrying it in first-seen order —
    bare rows under the Set domain, ``(row, annotation)`` pairs with
    duplicate rows plus-folded otherwise.
    """
    items = relation.hash_index(key).items()
    if domain is SET_DOMAIN:
        return {k: list(dict.fromkeys(values for _, values in entries)) for k, entries in items}
    return {
        k: list(_plus_fold(_tuple_pairs(entries, domain), domain).items())
        for k, entries in items
    }


def _child_batch(executor: "PlanExecutor", plan: PlanNode) -> ColumnBatch:
    result = executor.run_cached(plan)
    if isinstance(result, ColumnBatch):
        return result
    # A dict operator's result (union, difference, aggregate, ...): its
    # values are annotations exactly when the domain is not Set.
    annotations = None if executor.domain is SET_DOMAIN else list(result.values())
    return ColumnBatch(list(result), annotations, result)


def _select(batch: ColumnBatch, selected: "list[int]") -> ColumnBatch:
    """The rows (and annotations) of ``batch`` at the ``selected`` positions."""
    if len(selected) == len(batch):
        return batch
    rows = batch.rows()
    annotations = batch.annotations
    return ColumnBatch(
        [rows[s] for s in selected],
        None if annotations is None else [annotations[s] for s in selected],
    )


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
    raise QueryEvaluationError(
        f"plan node {type(plan).__name__} has no columnar lowering"
    )  # pragma: no cover - dispatch is gated on the same isinstance checks


def _scan(executor: "PlanExecutor", plan: ScanOp) -> ColumnBatch:
    relation = executor.instance.relation(plan.relation)
    domain = executor.domain
    if domain is SET_DOMAIN:
        return ColumnBatch(list(dict.fromkeys(values for _, values in relation.tuples())))
    return _folded_batch(_plus_fold(_tuple_pairs(relation.tuples(), domain), domain))


# A conjunct applier maps (batch, selected row positions | None, params) to
# the surviving row positions; ``None`` means "all rows" and lets the first
# conjunct skip building an index list.
_ConjunctFn = Callable[[ColumnBatch, "list[int] | None", Any], "list[int]"]


def _row_applier(predicate, schema) -> _ConjunctFn:
    keep = compile_predicate(predicate, schema)

    def generic(batch, selected, params):
        rows = batch.rows()
        positions = range(len(rows)) if selected is None else selected
        return [s for s in positions if keep(rows[s], params)]

    return generic


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
    if isinstance(conjunct, Or):
        probe = _membership_probe(conjunct, schema)
        if probe is not None:
            return probe
    return _row_applier(conjunct, schema)


def _membership_probe(disjunction: Or, schema) -> "_ConjunctFn | None":
    """``c = v1 ∨ c = v2 ∨ …`` over one column as a single set probe.

    Taken only when every literal is hashable, non-NULL and not NaN.  Then
    ``x in values`` agrees with the row-at-a-time test for every column value
    ``x``: a NULL matches no non-NULL literal, and set membership is hash
    plus ``==``, with equal values hashing alike (``1``, ``1.0``, ``True``).
    A NaN literal is excluded because membership tries identity before
    ``==``, and ``NaN = NaN`` is false.
    """
    equalities = [constant_equality(operand) for operand in disjunction.operands]
    if any(item is None for item in equalities):
        return None
    if len({name for name, _ in equalities}) != 1:
        return None
    values = [value for _, value in equalities]
    if any(value is None or value != value for value in values):
        return None
    try:
        members = frozenset(values)
    except TypeError:
        return None
    index = _index_of(schema, equalities[0][0])

    def member(batch, selected, params):
        column = batch.column(index)
        positions = range(len(column)) if selected is None else selected
        return [s for s in positions if column[s] in members]

    return member


def _filter(executor: "PlanExecutor", plan: FilterOp) -> ColumnBatch:
    batch = _child_batch(executor, plan.child)
    if predicate_can_raise(plan.predicate, plan.schema):
        # Row-at-a-time over the whole predicate: which row raises first (and
        # therefore which error the caller sees) must not change.
        appliers = [_row_applier(plan.predicate, plan.schema)]
    else:
        # Compile every conjunct before applying any, so e.g. unknown
        # attributes raise even when the input is empty or an earlier
        # conjunct filters everything out.
        appliers = [_compile_conjunct(c, plan.schema) for c in plan.predicate.conjuncts()]
    selected: "list[int] | None" = None
    params = executor.params
    for apply_conjunct in appliers:
        selected = apply_conjunct(batch, selected, params)
        if not selected:
            break
    return batch if selected is None else _select(batch, selected)


def _project(executor: "PlanExecutor", plan: ProjectOp) -> ColumnBatch:
    batch = _child_batch(executor, plan.child)
    extract = key_function(plan.indexes)
    if batch.annotations is None:
        return ColumnBatch(list(dict.fromkeys(map(extract, batch.rows()))))
    pairs = zip(map(extract, batch.rows()), batch.annotations)
    return _folded_batch(_plus_fold(pairs, executor.domain))


def _build_table(executor: "PlanExecutor", plan: PlanNode, key: tuple[int, ...]) -> dict:
    """Build-side hash table: key tuple → its rows (or ``(row, annotation)``
    pairs outside the Set domain) in first-seen order."""
    if isinstance(plan, ScanOp):
        if executor.span_meta is not None:  # the join's span is current
            current_span().attributes["from_index"] = True
        relation = executor.instance.relation(plan.relation)
        return index_table(relation, key, executor.domain)
    extract = key_function(key)
    table: dict[tuple, list] = {}
    batch = _child_batch(executor, plan)
    if batch.annotations is None:
        for row in batch.rows():
            table.setdefault(extract(row), []).append(row)
    else:
        for pair in zip(batch.rows(), batch.annotations):
            table.setdefault(extract(pair[0]), []).append(pair)
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
    if probe.annotations is not None:
        return _annotated_join(executor.domain, plan, table, probe, extract, residual, params)
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
    return ColumnBatch(out)


def _annotated_join(domain, plan, table, probe, extract, residual, params) -> ColumnBatch:
    """The hash join's probe loop for batches that carry annotations."""
    build_left = plan.build_left
    keep_right = plan.keep_right
    out: dict[Values, Any] = {}
    for probe_row, probe_a in zip(probe.rows(), probe.annotations):
        matches = table.get(extract(probe_row))
        if not matches:
            continue
        for build_row, build_a in matches:
            if build_left:
                left_row, left_a, right_row, right_a = build_row, build_a, probe_row, probe_a
            else:
                left_row, left_a, right_row, right_a = probe_row, probe_a, build_row, build_a
            if keep_right is None:
                combined = left_row + right_row
            else:
                combined = left_row + tuple(right_row[i] for i in keep_right)
            if residual and not all(p(combined, params) for p in residual):
                continue
            annotation = domain.times(left_a, right_a)
            existing = out.get(combined)
            out[combined] = annotation if existing is None else domain.plus(existing, annotation)
    return _folded_batch(out)
