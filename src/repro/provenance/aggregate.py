"""Provenance for aggregate queries (§5 of the paper).

Following Amsterdamer et al., tuples contribute *symbolically* to aggregate
values: an aggregate such as ``AVG(grade)`` over a group becomes a symbolic
expression ``t4⊗100 +_AVG t5⊗75`` whose value depends on which contributing
tuples are kept in the counterexample.  HAVING predicates over aggregates
become symbolic comparisons, and constants in those comparisons may be
replaced by integer *parameters* for the Smallest Parameterized
Counterexample Problem (Definition 3).

The module supports the "aggregate-at-top" query form the paper's Agg-Basic
algorithm targets::

    [Projection] [Selection over aggregates/group keys]* GroupBy (SPJUD core)

Queries whose aggregation is nested more deeply are handled by the heuristic
algorithm (Agg-Opt, Algorithm 3) in :mod:`repro.core.aggregates`.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

from repro.catalog.instance import DatabaseInstance, Values
from repro.catalog.schema import RelationSchema
from repro.errors import NotApplicableError
from repro.provenance.annotate import AnnotatedRelation, ProvenanceEvaluator
from repro.provenance.boolexpr import Assignment, BoolExpr, bor_all
from repro.ra.ast import (
    AggregateFunction,
    AggregateSpec,
    GroupBy,
    Projection,
    RAExpression,
    Rename,
    Selection,
)
from repro.ra.predicates import (
    And,
    ColumnRef,
    Comparison,
    Literal,
    Not,
    Or,
    Param,
    Predicate,
    TruePredicate,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.session import EngineSession

ParamValues = Mapping[str, Any]

_FLOAT_TOLERANCE = 1e-9


# ---------------------------------------------------------------------------
# Symbolic numeric expressions
# ---------------------------------------------------------------------------


class NumExpr:
    """A numeric expression whose value depends on the kept-tuple assignment."""

    def evaluate(self, assignment: Assignment, params: ParamValues) -> Any:
        raise NotImplementedError

    def variables(self) -> frozenset[str]:
        return frozenset()

    def parameters(self) -> frozenset[str]:
        return frozenset()


@dataclass(frozen=True)
class NumConst(NumExpr):
    """A constant numeric (or string, for group-key comparisons) value."""

    value: Any

    def evaluate(self, assignment: Assignment, params: ParamValues) -> Any:
        return self.value

    def __str__(self) -> str:
        return repr(self.value)


@dataclass(frozen=True)
class NumParam(NumExpr):
    """An integer parameter chosen by the solver (parameterized queries)."""

    name: str

    def evaluate(self, assignment: Assignment, params: ParamValues) -> Any:
        if self.name not in params:
            raise NotApplicableError(f"unbound parameter @{self.name}")
        return params[self.name]

    def parameters(self) -> frozenset[str]:
        return frozenset({self.name})

    def __str__(self) -> str:
        return f"@{self.name}"


@dataclass(frozen=True)
class SymbolicAggregate(NumExpr):
    """An aggregate over symbolic contributions ``(provenance, value)``.

    A contribution participates when its provenance expression is true under
    the assignment.  ``COUNT`` of an empty set is 0; all other aggregates of
    an empty set are ``None`` (SQL NULL).
    """

    func: AggregateFunction
    contributions: tuple[tuple[BoolExpr, Any], ...]

    def included_values(self, assignment: Assignment) -> list[Any]:
        return [
            value
            for condition, value in self.contributions
            if value is not None and condition.evaluate(assignment)
        ]

    def evaluate(self, assignment: Assignment, params: ParamValues) -> Any:
        return fold_aggregate(self.func, self.included_values(assignment))

    def variables(self) -> frozenset[str]:
        result: frozenset[str] = frozenset()
        for condition, _ in self.contributions:
            result |= condition.variables()
        return result

    def __str__(self) -> str:
        terms = " + ".join(f"{cond}⊗{value}" for cond, value in self.contributions)
        return f"{self.func.value.upper()}[{terms}]"


# ---------------------------------------------------------------------------
# Symbolic constraints
# ---------------------------------------------------------------------------


class AggConstraint:
    """A Boolean constraint over tuple variables, parameters and aggregates."""

    def evaluate(self, assignment: Assignment, params: ParamValues) -> bool:
        raise NotImplementedError

    def variables(self) -> frozenset[str]:
        return frozenset()

    def parameters(self) -> frozenset[str]:
        return frozenset()


@dataclass(frozen=True)
class BoolCondition(AggConstraint):
    """Lift a Boolean provenance expression into the aggregate constraint language."""

    expression: BoolExpr

    def evaluate(self, assignment: Assignment, params: ParamValues) -> bool:
        return self.expression.evaluate(assignment)

    def variables(self) -> frozenset[str]:
        return self.expression.variables()

    def __str__(self) -> str:
        return str(self.expression)


@dataclass(frozen=True)
class AggComparison(AggConstraint):
    """``left op right`` with SQL semantics: NULL operands never satisfy it."""

    op: str
    left: NumExpr
    right: NumExpr

    def evaluate(self, assignment: Assignment, params: ParamValues) -> bool:
        left = self.left.evaluate(assignment, params)
        right = self.right.evaluate(assignment, params)
        if left is None or right is None:
            return False
        return comparator(self.op)(left, right)

    def variables(self) -> frozenset[str]:
        return self.left.variables() | self.right.variables()

    def parameters(self) -> frozenset[str]:
        return self.left.parameters() | self.right.parameters()

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class ValuesDiffer(AggConstraint):
    """True when the two values are *distinct* (NULL is distinct from non-NULL)."""

    left: NumExpr
    right: NumExpr

    def evaluate(self, assignment: Assignment, params: ParamValues) -> bool:
        left = self.left.evaluate(assignment, params)
        right = self.right.evaluate(assignment, params)
        if left is None and right is None:
            return False
        if left is None or right is None:
            return True
        return not _values_equal(left, right)

    def variables(self) -> frozenset[str]:
        return self.left.variables() | self.right.variables()

    def parameters(self) -> frozenset[str]:
        return self.left.parameters() | self.right.parameters()

    def __str__(self) -> str:
        return f"({self.left} ≠ {self.right})"


@dataclass(frozen=True)
class AggAnd(AggConstraint):
    operands: tuple[AggConstraint, ...]

    def evaluate(self, assignment: Assignment, params: ParamValues) -> bool:
        return all(op.evaluate(assignment, params) for op in self.operands)

    def variables(self) -> frozenset[str]:
        result: frozenset[str] = frozenset()
        for operand in self.operands:
            result |= operand.variables()
        return result

    def parameters(self) -> frozenset[str]:
        result: frozenset[str] = frozenset()
        for operand in self.operands:
            result |= operand.parameters()
        return result

    def __str__(self) -> str:
        return "(" + " ∧ ".join(str(op) for op in self.operands) + ")"


@dataclass(frozen=True)
class AggOr(AggConstraint):
    operands: tuple[AggConstraint, ...]

    def evaluate(self, assignment: Assignment, params: ParamValues) -> bool:
        return any(op.evaluate(assignment, params) for op in self.operands)

    def variables(self) -> frozenset[str]:
        result: frozenset[str] = frozenset()
        for operand in self.operands:
            result |= operand.variables()
        return result

    def parameters(self) -> frozenset[str]:
        result: frozenset[str] = frozenset()
        for operand in self.operands:
            result |= operand.parameters()
        return result

    def __str__(self) -> str:
        return "(" + " ∨ ".join(str(op) for op in self.operands) + ")"


@dataclass(frozen=True)
class AggNot(AggConstraint):
    operand: AggConstraint

    def evaluate(self, assignment: Assignment, params: ParamValues) -> bool:
        return not self.operand.evaluate(assignment, params)

    def variables(self) -> frozenset[str]:
        return self.operand.variables()

    def parameters(self) -> frozenset[str]:
        return self.operand.parameters()

    def __str__(self) -> str:
        return f"¬{self.operand}"


@dataclass(frozen=True)
class AggTrue(AggConstraint):
    def evaluate(self, assignment: Assignment, params: ParamValues) -> bool:
        return True

    def __str__(self) -> str:
        return "⊤"


def agg_and(operands: Sequence[AggConstraint]) -> AggConstraint:
    flattened = [op for op in operands if not isinstance(op, AggTrue)]
    if not flattened:
        return AggTrue()
    if len(flattened) == 1:
        return flattened[0]
    return AggAnd(tuple(flattened))


def agg_or(operands: Sequence[AggConstraint]) -> AggConstraint:
    if not operands:
        raise NotApplicableError("empty disjunction in aggregate constraint")
    if len(operands) == 1:
        return operands[0]
    return AggOr(tuple(operands))


def _values_equal(left: Any, right: Any) -> bool:
    if isinstance(left, (int, float)) and isinstance(right, (int, float)):
        return math.isclose(float(left), float(right), rel_tol=_FLOAT_TOLERANCE, abs_tol=_FLOAT_TOLERANCE)
    return left == right


_COMPARATORS: dict[str, Callable[[Any, Any], bool]] = {
    "=": _values_equal,
    "!=": lambda left, right: not _values_equal(left, right),
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def comparator(op: str) -> Callable[[Any, Any], bool]:
    """The test behind ``left op right`` on two non-NULL values."""
    try:
        return _COMPARATORS[op]
    except KeyError:
        raise NotApplicableError(f"unsupported comparison operator {op!r}") from None


def fold_aggregate(func: AggregateFunction, values: Sequence[Any]) -> Any:
    """The aggregate of the contributing values, in contribution order.

    ``COUNT`` of nothing is 0; every other aggregate of nothing is ``None``
    (SQL NULL).
    """
    if func is AggregateFunction.COUNT:
        return len(values)
    if not values:
        return None
    if func is AggregateFunction.SUM:
        return sum(values)
    if func is AggregateFunction.AVG:
        return sum(values) / len(values)
    if func is AggregateFunction.MIN:
        return min(values)
    if func is AggregateFunction.MAX:
        return max(values)
    raise NotApplicableError(f"unsupported aggregate {func}")  # pragma: no cover


# ---------------------------------------------------------------------------
# Aggregate-at-top query decomposition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AggregateQueryForm:
    """A query decomposed as wrappers over a single GroupBy over an SPJUD core."""

    core: RAExpression
    group_by: GroupBy
    wrappers: tuple[RAExpression, ...]  # outermost first; Selection/Projection/Rename only
    output_schema: RelationSchema


def decompose_aggregate_query(
    expression: RAExpression, schema_provider
) -> AggregateQueryForm:
    """Decompose an aggregate-at-top query or raise :class:`NotApplicableError`.

    ``schema_provider`` is the :class:`~repro.catalog.schema.DatabaseSchema`
    used to compute the output schema.
    """
    wrappers: list[RAExpression] = []
    node = expression
    while isinstance(node, (Selection, Projection, Rename)):
        wrappers.append(node)
        node = node.children()[0]
    if not isinstance(node, GroupBy):
        raise NotApplicableError(
            "query is not in aggregate-at-top form (expected GroupBy below "
            "selections/projections, found "
            f"{type(node).__name__})"
        )
    group_by = node
    core = group_by.child
    for descendant in core.walk():
        if isinstance(descendant, GroupBy):
            raise NotApplicableError("nested aggregation is not supported by Agg-Basic")
    return AggregateQueryForm(
        core=core,
        group_by=group_by,
        wrappers=tuple(wrappers),
        output_schema=expression.output_schema(schema_provider),
    )


def is_aggregate_at_top(expression: RAExpression, schema_provider) -> bool:
    """True when :func:`decompose_aggregate_query` accepts the expression."""
    try:
        decompose_aggregate_query(expression, schema_provider)
    except NotApplicableError:
        return False
    return True


# ---------------------------------------------------------------------------
# Aggregate provenance computation
# ---------------------------------------------------------------------------


@dataclass
class GroupAnnotation:
    """Provenance of one output group of an aggregate-at-top query."""

    #: Values of the non-aggregate output columns (the group identity used to
    #: match groups across the reference and test queries).
    key: Values
    #: Group presence: at least one contributing core row is kept.
    presence: BoolExpr
    #: Presence plus all HAVING conditions (symbolic).
    condition: AggConstraint
    #: Symbolic value of every *output* column, keyed by output column name.
    #: Non-aggregate columns are constants.
    outputs: dict[str, NumExpr] = field(default_factory=dict)

    def variables(self) -> frozenset[str]:
        result = self.presence.variables() | self.condition.variables()
        for expr in self.outputs.values():
            result |= expr.variables()
        return result


@dataclass
class AggregateAnnotation:
    """Provenance-annotated result of an aggregate-at-top query."""

    schema: RelationSchema
    #: Output column names that identify a group (non-aggregate columns).
    key_columns: tuple[str, ...]
    #: Output column names carrying aggregate values.
    value_columns: tuple[str, ...]
    groups: dict[Values, GroupAnnotation] = field(default_factory=dict)

    def variables(self) -> frozenset[str]:
        result: frozenset[str] = frozenset()
        for group in self.groups.values():
            result |= group.variables()
        return result


def annotate_aggregate_query(
    expression: RAExpression,
    instance: DatabaseInstance,
    params: ParamValues | None = None,
    session: "EngineSession | None" = None,
) -> AggregateAnnotation:
    """Compute aggregate provenance for an aggregate-at-top query.

    ``session`` (when bound to this very instance) shares the caller's engine
    caches, so the SPJUD core's scans and subplans are not recomputed per
    grading call.
    """
    params = params or {}
    form = decompose_aggregate_query(expression, instance.schema)
    if session is not None and session.instance is instance:
        core_schema_, core_rows = session.annotated_rows(form.core, params)
        core_annotated = AnnotatedRelation(core_schema_, core_rows)
    else:
        core_annotated = ProvenanceEvaluator(instance, params).annotated(form.core)
    core_schema = core_annotated.schema

    group_idx = [core_schema.index_of(name) for name in form.group_by.group_by]
    grouped: dict[Values, list[tuple[Values, BoolExpr]]] = {}
    for row, expr in core_annotated.items():
        grouped.setdefault(tuple(row[i] for i in group_idx), []).append((row, expr))

    # Columns produced by the GroupBy node, before any wrappers.
    gb_columns = list(form.group_by.group_by) + [spec.alias for spec in form.group_by.aggregates]
    annotations: list[tuple[dict[str, NumExpr], dict[str, Any], BoolExpr]] = []
    for key, members in grouped.items():
        presence = bor_all(expr for _, expr in members)
        symbolic: dict[str, NumExpr] = {}
        concrete: dict[str, Any] = {}
        for name, value in zip(form.group_by.group_by, key):
            concrete[name] = value
            symbolic[name] = NumConst(value)
        for spec in form.group_by.aggregates:
            symbolic[spec.alias] = _symbolic_aggregate(spec, core_schema, members)
        annotations.append((symbolic, concrete, presence))

    groups: dict[Values, GroupAnnotation] = {}
    key_columns, value_columns, output_columns = _output_column_split(form, gb_columns)
    for symbolic, concrete, presence in annotations:
        condition: AggConstraint = BoolCondition(presence)
        columns = dict(symbolic)
        # Apply wrappers innermost-first (they were collected outermost-first).
        skip = False
        for wrapper in reversed(form.wrappers):
            if isinstance(wrapper, Selection):
                converted = _convert_predicate(wrapper.predicate, columns, concrete, params)
                if isinstance(converted, bool):
                    if not converted:
                        skip = True
                        break
                else:
                    condition = agg_and([condition, converted])
            elif isinstance(wrapper, Projection):
                new_columns: dict[str, NumExpr] = {}
                new_concrete: dict[str, Any] = {}
                for column, out_name in zip(wrapper.columns, wrapper.output_names()):
                    new_columns[out_name] = columns[column]
                    if column in concrete:
                        new_concrete[out_name] = concrete[column]
                columns = new_columns
                concrete = new_concrete
            elif isinstance(wrapper, Rename):
                columns, concrete = _apply_rename(wrapper, columns, concrete)
        if skip:
            continue
        key = tuple(concrete[name] for name in key_columns)
        outputs = {name: columns[name] for name in output_columns}
        existing = groups.get(key)
        annotation = GroupAnnotation(key=key, presence=presence, condition=condition, outputs=outputs)
        if existing is None:
            groups[key] = annotation
        else:
            # Two distinct grouping keys collapse to the same projected key:
            # either one being present (with its own condition) witnesses it.
            groups[key] = GroupAnnotation(
                key=key,
                presence=bor_all([existing.presence, presence]),
                condition=agg_or([existing.condition, annotation.condition]),
                outputs=existing.outputs,
            )
    return AggregateAnnotation(
        schema=form.output_schema,
        key_columns=key_columns,
        value_columns=value_columns,
        groups=groups,
    )


def _output_column_split(
    form: AggregateQueryForm, gb_columns: list[str]
) -> tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...]]:
    """Split output columns into group-identity columns and aggregate columns."""
    aggregate_aliases = {spec.alias for spec in form.group_by.aggregates}
    # Track renames through the wrappers to know which output columns are aggregates.
    mapping = {name: name for name in gb_columns}
    for wrapper in reversed(form.wrappers):
        if isinstance(wrapper, Projection):
            mapping = {
                out_name: mapping[column]
                for column, out_name in zip(wrapper.columns, wrapper.output_names())
                if column in mapping
            }
        elif isinstance(wrapper, Rename):
            if wrapper.prefix is not None:
                mapping = {f"{wrapper.prefix}.{k}": v for k, v in mapping.items()}
            else:
                rename_map = dict(wrapper.attribute_mapping)
                mapping = {rename_map.get(k, k): v for k, v in mapping.items()}
    output_columns = tuple(form.output_schema.attribute_names)
    key_columns = tuple(
        name for name in output_columns if mapping.get(name, name) not in aggregate_aliases
    )
    value_columns = tuple(name for name in output_columns if name not in key_columns)
    return key_columns, value_columns, output_columns


def _symbolic_aggregate(
    spec: AggregateSpec, schema: RelationSchema, members: list[tuple[Values, BoolExpr]]
) -> SymbolicAggregate:
    contributions = []
    if spec.attribute is None:
        for _, expr in members:
            contributions.append((expr, 1))
    else:
        index = schema.index_of(spec.attribute)
        for row, expr in members:
            value = row[index]
            if spec.func is AggregateFunction.COUNT:
                value = 1 if value is not None else None
            contributions.append((expr, value))
    return SymbolicAggregate(spec.func, tuple(contributions))


def _apply_rename(
    wrapper: Rename, columns: dict[str, NumExpr], concrete: dict[str, Any]
) -> tuple[dict[str, NumExpr], dict[str, Any]]:
    if wrapper.prefix is not None:
        mapping = {name: f"{wrapper.prefix}.{name}" for name in columns}
    else:
        mapping = {name: dict(wrapper.attribute_mapping).get(name, name) for name in columns}
    new_columns = {mapping[name]: expr for name, expr in columns.items()}
    new_concrete = {mapping[name]: value for name, value in concrete.items() if name in mapping}
    return new_columns, new_concrete


def _convert_predicate(
    predicate: Predicate,
    columns: dict[str, NumExpr],
    concrete: dict[str, Any],
    params: ParamValues,
) -> AggConstraint | bool:
    """Convert a HAVING-style predicate into an :class:`AggConstraint`.

    Predicates that only touch concrete group-key values fold to a plain bool.
    """
    if isinstance(predicate, TruePredicate):
        return True
    if isinstance(predicate, And):
        converted = [_convert_predicate(p, columns, concrete, params) for p in predicate.operands]
        if any(c is False for c in converted):
            return False
        constraints = [c for c in converted if not isinstance(c, bool)]
        if not constraints:
            return True
        return agg_and(constraints)
    if isinstance(predicate, Or):
        converted = [_convert_predicate(p, columns, concrete, params) for p in predicate.operands]
        if any(c is True for c in converted):
            return True
        constraints = [c for c in converted if not isinstance(c, bool)]
        if not constraints:
            return False
        return agg_or(constraints)
    if isinstance(predicate, Not):
        converted = _convert_predicate(predicate.operand, columns, concrete, params)
        if isinstance(converted, bool):
            return not converted
        return AggNot(converted)
    if isinstance(predicate, Comparison):
        left = _convert_scalar(predicate.left, columns, concrete)
        right = _convert_scalar(predicate.right, columns, concrete)
        if isinstance(left, NumConst) and isinstance(right, NumConst):
            return AggComparison(predicate.op, left, right).evaluate({}, params)
        return AggComparison(predicate.op, left, right)
    raise NotApplicableError(
        f"unsupported HAVING predicate for aggregate provenance: {predicate}"
    )


def _convert_scalar(scalar, columns: dict[str, NumExpr], concrete: dict[str, Any]) -> NumExpr:
    if isinstance(scalar, Literal):
        return NumConst(scalar.value)
    if isinstance(scalar, Param):
        return NumParam(scalar.name)
    if isinstance(scalar, ColumnRef):
        if scalar.name in concrete:
            return NumConst(concrete[scalar.name])
        if scalar.name in columns:
            return columns[scalar.name]
        raise NotApplicableError(f"HAVING references unknown column {scalar.name!r}")
    raise NotApplicableError(f"unsupported scalar in HAVING predicate: {scalar}")
