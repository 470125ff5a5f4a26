"""Plan execution: one operator set, generic over the annotation domain.

Every operator produces an *annotated row set*: the distinct rows of its
result in first-seen order, each with an annotation in the executing
:class:`~repro.engine.domains.AnnotationDomain`.  Running a plan under
:data:`~repro.engine.domains.SET_DOMAIN` yields exactly the rows of the
classic evaluator; under :data:`~repro.engine.domains.PROVENANCE_DOMAIN` the
same operators yield Boolean how-provenance.

Scan, filter, project and hash join run on the batches of
:mod:`repro.engine.columnar` under every domain (annotation-free under the
Set domain).  Cross product, union, difference, intersection and
aggregation, which have no columnar lowering, live here and work on the
``dict[Values, annotation]`` form of their inputs.  Predicates are compiled
into closures with attribute positions resolved once.
"""

from __future__ import annotations

import math
from operator import itemgetter
from typing import Any, Callable, Mapping, MutableMapping, Sequence

from repro.catalog.instance import DatabaseInstance, Values
from repro.catalog.schema import RelationSchema
from repro.errors import NotApplicableError, QueryEvaluationError, UnknownAttributeError
from repro.engine.domains import AnnotationDomain
from repro.engine.logical import (
    AggregateOp,
    CrossOp,
    DifferenceOp,
    FilterOp,
    IntersectOp,
    JoinOp,
    PlanNode,
    ProjectOp,
    ScanOp,
    UnionOp,
)
from repro.obs.analyze import q_error
from repro.obs.trace import active_tracer
from repro.ra.ast import AggregateFunction
from repro.ra.predicates import (
    COMPARISON_OPS,
    And,
    Arithmetic,
    ColumnRef,
    Comparison,
    Literal,
    Not,
    Or,
    Param,
    Predicate,
    Scalar,
    TruePredicate,
)

ParamValues = Mapping[str, Any]

#: Error message kept byte-identical with the historical provenance evaluator.
AGGREGATION_NOT_SUPPORTED = (
    "Boolean how-provenance does not cover aggregation; "
    "use repro.provenance.aggregate for GroupBy queries"
)


# ---------------------------------------------------------------------------
# Predicate compilation
# ---------------------------------------------------------------------------


def compile_scalar(scalar: Scalar, schema: RelationSchema) -> Callable[[Values, ParamValues], Any]:
    """Compile a scalar into a closure with attribute positions resolved."""
    if isinstance(scalar, Literal):
        value = scalar.value
        return lambda row, params: value
    if isinstance(scalar, ColumnRef):
        try:
            index = schema.index_of(scalar.name)
        except UnknownAttributeError as exc:
            raise QueryEvaluationError(str(exc)) from exc
        return lambda row, params: row[index]
    if isinstance(scalar, Param):
        name = scalar.name

        def read_param(row: Values, params: ParamValues) -> Any:
            if name not in params:
                raise QueryEvaluationError(f"unbound query parameter @{name}")
            return params[name]

        return read_param
    if isinstance(scalar, Arithmetic):
        left = compile_scalar(scalar.left, schema)
        right = compile_scalar(scalar.right, schema)
        op = scalar.op

        def arith(row: Values, params: ParamValues) -> Any:
            a = left(row, params)
            b = right(row, params)
            if a is None or b is None:
                return None
            try:
                if op == "+":
                    return a + b
                if op == "-":
                    return a - b
                if op == "*":
                    return a * b
                return a / b
            except ZeroDivisionError as exc:
                raise QueryEvaluationError("division by zero in scalar expression") from exc

        return arith
    # Unknown scalar subclass: fall back to its own evaluate().
    return lambda row, params: scalar.evaluate(schema, row, params)


def compile_predicate(
    predicate: Predicate, schema: RelationSchema
) -> Callable[[Values, ParamValues], bool]:
    """Compile a predicate into a closure (SQL NULL comparison semantics)."""
    if isinstance(predicate, TruePredicate):
        return lambda row, params: True
    if isinstance(predicate, Comparison):
        left = compile_scalar(predicate.left, schema)
        right = compile_scalar(predicate.right, schema)
        op = COMPARISON_OPS[predicate.op]

        def compare(row: Values, params: ParamValues) -> bool:
            a = left(row, params)
            b = right(row, params)
            if a is None or b is None:
                return False
            return op(a, b)

        return compare
    if isinstance(predicate, And):
        parts = [compile_predicate(p, schema) for p in predicate.operands]
        return lambda row, params: all(p(row, params) for p in parts)
    if isinstance(predicate, Or):
        parts = [compile_predicate(p, schema) for p in predicate.operands]
        return lambda row, params: any(p(row, params) for p in parts)
    if isinstance(predicate, Not):
        inner = compile_predicate(predicate.operand, schema)
        return lambda row, params: not inner(row, params)
    # Unknown predicate subclass: fall back to its own evaluate().
    return lambda row, params: predicate.evaluate(schema, row, params)


def key_function(indexes: tuple[int, ...]) -> Callable[[Values], tuple]:
    """Fast extractor of the value tuple at ``indexes``."""
    if not indexes:
        return lambda row: ()
    if len(indexes) == 1:
        index = indexes[0]
        return lambda row: (row[index],)
    getter = itemgetter(*indexes)
    return lambda row: getter(row)


# ---------------------------------------------------------------------------
# Aggregate computation
# ---------------------------------------------------------------------------


def _order_independent_sum(values: Sequence[Any]) -> Any:
    """Sum that does not depend on input order, even for floats.

    ``math.fsum`` is correctly rounded, so any permutation of the inputs
    yields the same bits.  A group's members arrive in an order set by the
    plan: the build sides a session picked (a warm session keeps the plan it
    compiled before an edit, a cold one re-estimates), the plan flavour, or
    an oracle's own iteration order.  The grade must not depend on any of
    them.  Integer-only inputs keep the exact int result.
    """
    if any(isinstance(v, float) for v in values):
        return math.fsum(values)
    return sum(values)


def apply_aggregate(func: AggregateFunction, values: Sequence[Any]) -> Any:
    """One aggregate over the non-NULL input values of a group."""
    if func is AggregateFunction.COUNT:
        return len(values)
    if not values:
        return None
    if func is AggregateFunction.SUM:
        return _order_independent_sum(values)
    if func is AggregateFunction.AVG:
        return _order_independent_sum(values) / len(values)
    if func is AggregateFunction.MIN:
        return min(values)
    if func is AggregateFunction.MAX:
        return max(values)
    raise QueryEvaluationError(f"unsupported aggregate function {func}")  # pragma: no cover


# ---------------------------------------------------------------------------
# Executor
# ---------------------------------------------------------------------------

#: Plan nodes with a columnar lowering (see :mod:`repro.engine.columnar`).
_COLUMNAR_NODES = (ScanOp, FilterOp, ProjectOp, JoinOp)


def referenced_params(
    plan: PlanNode, cache: MutableMapping[PlanNode, frozenset]
) -> frozenset:
    """Names of the query parameters a subplan's predicates read.

    Memoised in ``cache`` (the session's ``param_refs``), so every
    executor derives identical memo keys for one plan.
    """
    cached = cache.get(plan)
    if cached is None:
        refs: set[str] = set()
        if isinstance(plan, FilterOp):
            refs |= plan.predicate.referenced_params()
        elif isinstance(plan, (JoinOp, CrossOp)):
            for predicate in plan.residual:
                refs |= predicate.referenced_params()
        for child in plan.children():
            refs |= referenced_params(child, cache)
        cached = frozenset(refs)
        cache[plan] = cached
    return cached


def plan_memo_key(
    plan: PlanNode,
    params: ParamValues,
    cache: MutableMapping[PlanNode, frozenset],
) -> tuple | None:
    """Session-memo key for a (plan, parameter binding) pair.

    The binding part is the restriction of ``params`` to the parameters the
    plan references, so param-independent plans share one entry across
    bindings.  Returns ``None`` when a referenced value is unhashable (the
    execution is then simply not cached).
    """
    try:
        refs = referenced_params(plan, cache)
        if refs:
            binding = tuple(
                (name, params[name]) for name in sorted(refs) if name in params
            )
            key = (plan, binding)
        else:
            key = (plan, ())
        hash(key)
    except TypeError:
        return None
    return key


class PlanExecutor:
    """Executes a plan over one instance under one annotation domain.

    ``memo`` maps ``(plan, relevant params)`` to finished results (column
    batches or annotated row dicts); because plan nodes compare structurally,
    equal subplans — within one query or across queries in a session — are
    computed once.  The params
    part of the key is the restriction of the parameter binding to the
    parameters the subplan actually references, so param-independent subplans
    (all scans, most joins) are shared across bindings.  Results are shared
    with the memo, so operators never mutate their inputs.
    """

    def __init__(
        self,
        instance: DatabaseInstance,
        params: ParamValues,
        domain: AnnotationDomain,
        memo: MutableMapping[tuple, "dict[Values, Any]"],
        param_refs: MutableMapping[PlanNode, frozenset] | None = None,
        *,
        span_meta: "Callable[[PlanNode], tuple[str, str, float | None]] | None" = None,
    ) -> None:
        self.instance = instance
        self.params = params
        self.domain = domain
        self.memo = memo
        self.param_refs = {} if param_refs is None else param_refs
        # Traced execution: ``span_meta(plan)`` gives ``(span name, detail,
        # est_rows)`` and every run_cached opens that span on the tracer of
        # the span current at construction.
        self.span_meta = span_meta
        self.tracer = active_tracer() if span_meta is not None else None

    def _referenced_params(self, plan: PlanNode) -> frozenset:
        """Names of the query parameters the subplan's predicates read."""
        return referenced_params(plan, self.param_refs)

    def run(self, plan: PlanNode) -> "dict[Values, Any]":
        """Annotated row dict for ``plan`` (memo entries may be columnar)."""
        result = self.run_cached(plan)
        return result if isinstance(result, dict) else result.to_mapping()

    def run_cached(self, plan: PlanNode):
        """Memoized execution returning a dict or a ``ColumnBatch``."""
        if self.span_meta is not None:
            return self._run_traced(plan)
        return self._lookup_or_compute(plan)[0]

    def _lookup_or_compute(self, plan: PlanNode) -> tuple[Any, bool]:
        """``(result, served from the memo)`` for ``plan``."""
        key = plan_memo_key(plan, self.params, self.param_refs)
        if key is None:  # unhashable literal/parameter value: skip caching
            return self._execute(plan), False
        result = self.memo.get(key)
        if result is not None:
            return result, True
        result = self.memo[key] = self._execute(plan)
        return result, False

    def _run_traced(self, plan: PlanNode):
        """:meth:`run_cached` inside an ``op.<Operator>`` span.

        The span nests under the operator that asked for ``plan`` and closes
        with its output rows, memo attribution, result form and q-error.
        """
        name, detail, est_rows = self.span_meta(plan)
        with self.tracer.span(name, attributes={"detail": detail} if detail else None) as span:
            result, cached = self._lookup_or_compute(plan)
            attributes = span.attributes
            attributes["rows"] = rows = len(result)
            attributes["cached"] = cached
            attributes["columnar"] = not isinstance(result, dict)  # a ColumnBatch
            if est_rows is not None:
                attributes["est_rows"] = est_rows
                attributes["q_error"] = q_error(est_rows, rows)
        return result

    # -- dispatch ------------------------------------------------------------

    def _execute(self, plan: PlanNode):
        if isinstance(plan, _COLUMNAR_NODES):
            from repro.engine.columnar import execute_columnar

            return execute_columnar(self, plan)
        if isinstance(plan, CrossOp):
            return self._cross(plan)
        if isinstance(plan, UnionOp):
            return self._union(plan)
        if isinstance(plan, DifferenceOp):
            return self._difference(plan)
        if isinstance(plan, IntersectOp):
            return self._intersect(plan)
        if isinstance(plan, AggregateOp):
            return self._aggregate(plan)
        raise QueryEvaluationError(f"unsupported plan node {type(plan).__name__}")

    # -- operators -----------------------------------------------------------

    def _cross(self, plan: CrossOp) -> "dict[Values, Any]":
        domain = self.domain
        params = self.params
        residual = [compile_predicate(p, plan.schema) for p in plan.residual]
        right_rows = self.run(plan.right)
        out: dict[Values, Any] = {}
        for left_row, left_a in self.run(plan.left).items():
            for right_row, right_a in right_rows.items():
                combined = left_row + right_row
                if residual and not all(p(combined, params) for p in residual):
                    continue
                annotation = domain.times(left_a, right_a)
                existing = out.get(combined)
                out[combined] = (
                    annotation if existing is None else domain.plus(existing, annotation)
                )
        return out

    def _union(self, plan: UnionOp) -> "dict[Values, Any]":
        domain = self.domain
        out = dict(self.run(plan.left))
        for row, annotation in self.run(plan.right).items():
            existing = out.get(row)
            out[row] = annotation if existing is None else domain.plus(existing, annotation)
        return out

    def _difference(self, plan: DifferenceOp) -> "dict[Values, Any]":
        domain = self.domain
        right = self.run(plan.right)
        out: dict[Values, Any] = {}
        for row, annotation in self.run(plan.left).items():
            counter = right.get(row)
            if counter is None:
                out[row] = annotation
                continue
            combined = domain.minus(annotation, counter)
            if not domain.is_absent(combined):
                out[row] = combined
        return out

    def _intersect(self, plan: IntersectOp) -> "dict[Values, Any]":
        domain = self.domain
        right = self.run(plan.right)
        out: dict[Values, Any] = {}
        for row, annotation in self.run(plan.left).items():
            counter = right.get(row)
            if counter is not None:
                out[row] = domain.times(annotation, counter)
        return out

    def _aggregate(self, plan: AggregateOp) -> "dict[Values, Any]":
        """One output row per group; its annotation is the plus-fold of its
        members' in input order."""
        domain = self.domain
        if not domain.supports_aggregation:
            raise NotApplicableError(AGGREGATION_NOT_SUPPORTED)
        extract = key_function(plan.group_indexes)
        groups: dict[tuple, list[Values]] = {}
        annotations: dict[tuple, Any] = {}
        for row, annotation in self.run(plan.child).items():
            key = extract(row)
            members = groups.get(key)
            if members is None:
                groups[key] = [row]
                annotations[key] = annotation
            else:
                members.append(row)
                annotations[key] = domain.plus(annotations[key], annotation)
        out: dict[Values, Any] = {}
        for key, members in groups.items():
            computed = []
            for spec, index in plan.aggregates:
                if index < 0:
                    computed.append(len(members))
                else:
                    values = [row[index] for row in members if row[index] is not None]
                    computed.append(apply_aggregate(spec.func, values))
            out[key + tuple(computed)] = annotations[key]
        return out
