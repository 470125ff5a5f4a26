"""Logical query plans compiled from the RA AST.

Compilation resolves everything that does not depend on the data: output
schemas, attribute positions for projections, group-bys and aggregate inputs,
and the split of join predicates into hashable equi-join key columns plus a
residual filter.  The result is a tree of frozen, hashable plan nodes — two
structurally equal RA subtrees compile to *equal* plans, which is what lets
the engine's memo cache share work across queries inside a grading session.

Plan nodes also carry the physical knobs the optimizer may set (currently the
hash-join build side); the defaults reproduce the historical interpreter's
behaviour exactly (build on the right input, probe with the left).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.catalog.schema import DatabaseSchema, RelationSchema
from repro.errors import QueryEvaluationError, UnknownAttributeError
from repro.ra.analysis import split_equijoin_conjuncts  # noqa: F401 — re-exported
from repro.ra.ast import (
    AggregateSpec,
    Difference,
    GroupBy,
    Intersection,
    Join,
    NaturalJoin,
    Projection,
    RAExpression,
    RelationRef,
    Rename,
    Selection,
    Union,
)
from repro.ra.predicates import ColumnRef, Comparison, Predicate


def resolve_aggregate_input(spec: AggregateSpec, schema: RelationSchema) -> int:
    """Position of the aggregate's input attribute; ``-1`` for ``COUNT(*)``.

    Raises :class:`QueryEvaluationError` naming the aggregate and the missing
    attribute instead of surfacing a confusing ``index_of('')`` failure.
    """
    if spec.attribute is None:
        return -1
    try:
        return schema.index_of(spec.attribute)
    except UnknownAttributeError as exc:
        raise QueryEvaluationError(
            f"aggregate {spec.func.value.upper()}({spec.attribute}) AS {spec.alias} "
            f"references unknown attribute {spec.attribute!r} "
            f"(available: {schema.attribute_names})"
        ) from exc


# ---------------------------------------------------------------------------
# Plan nodes
# ---------------------------------------------------------------------------


class PlanNode:
    """Base class of logical/physical plan nodes (frozen, hashable)."""

    def children(self) -> tuple["PlanNode", ...]:
        return ()


def _cached_hash(cls):
    """Memoize the dataclass-generated structural hash on the instance.

    Plan trees are dict keys everywhere — the result memo, the scan-set and
    parameter-reference caches — and the generated hash walks the
    whole subtree on every probe.  Nodes are frozen, so the hash is computed
    once and stashed; deep equality is untouched.
    """
    generated = cls.__hash__

    def __hash__(self, _generated=generated):
        value = self.__dict__.get("_structural_hash")
        if value is None:
            value = _generated(self)
            object.__setattr__(self, "_structural_hash", value)
        return value

    cls.__hash__ = __hash__
    return cls


@_cached_hash
@dataclass(frozen=True)
class ScanOp(PlanNode):
    """Scan a base relation, deduplicating values under the annotation domain."""

    relation: str


@_cached_hash
@dataclass(frozen=True)
class FilterOp(PlanNode):
    """Keep the rows satisfying ``predicate`` (evaluated against ``schema``)."""

    child: PlanNode
    predicate: Predicate
    schema: RelationSchema

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)


@_cached_hash
@dataclass(frozen=True)
class ProjectOp(PlanNode):
    """Keep the columns at ``indexes``, folding duplicate output rows."""

    child: PlanNode
    indexes: tuple[int, ...]

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)


@_cached_hash
@dataclass(frozen=True)
class JoinOp(PlanNode):
    """Hash equi-join on key columns with an optional residual filter.

    ``keep_right`` is ``None`` for theta joins (emit all right columns) and a
    tuple of right-column positions for natural joins (shared columns appear
    once).  ``schema`` is the concatenated schema residual predicates are
    evaluated against.  ``build_left`` selects the hash-table side; the
    default (build right, probe left) matches the historical interpreter.
    """

    left: PlanNode
    right: PlanNode
    left_key: tuple[int, ...]
    right_key: tuple[int, ...]
    residual: tuple[Predicate, ...]
    schema: RelationSchema
    keep_right: tuple[int, ...] | None = None
    build_left: bool = False

    def children(self) -> tuple[PlanNode, ...]:
        return (self.left, self.right)


@_cached_hash
@dataclass(frozen=True)
class CrossOp(PlanNode):
    """Nested-loop cross product with an optional residual filter.

    Emits every left row concatenated with every right row (a natural join
    of relations with no shared attributes degenerates to exactly this, so no
    column-dropping machinery is needed here).
    """

    left: PlanNode
    right: PlanNode
    residual: tuple[Predicate, ...]
    schema: RelationSchema

    def children(self) -> tuple[PlanNode, ...]:
        return (self.left, self.right)


@_cached_hash
@dataclass(frozen=True)
class UnionOp(PlanNode):
    left: PlanNode
    right: PlanNode

    def children(self) -> tuple[PlanNode, ...]:
        return (self.left, self.right)


@_cached_hash
@dataclass(frozen=True)
class DifferenceOp(PlanNode):
    left: PlanNode
    right: PlanNode

    def children(self) -> tuple[PlanNode, ...]:
        return (self.left, self.right)


@_cached_hash
@dataclass(frozen=True)
class IntersectOp(PlanNode):
    left: PlanNode
    right: PlanNode

    def children(self) -> tuple[PlanNode, ...]:
        return (self.left, self.right)


@_cached_hash
@dataclass(frozen=True)
class AggregateOp(PlanNode):
    """Hash aggregation: group by ``group_indexes``, compute ``aggregates``.

    Each aggregate is ``(spec, input_index)`` with ``input_index == -1`` for
    ``COUNT(*)``, resolved at compile time.
    """

    child: PlanNode
    group_indexes: tuple[int, ...]
    aggregates: tuple[tuple[AggregateSpec, int], ...]

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------


def compile_plan(expression: RAExpression, db: DatabaseSchema) -> PlanNode:
    """Compile an RA expression into a logical plan over ``db``.

    Renames compile away entirely (they only change schemas, which are
    resolved here), so ``ρ(X)`` and ``X`` share one plan — and one cache
    entry.
    """
    if isinstance(expression, RelationRef):
        return ScanOp(expression.name)
    if isinstance(expression, Selection):
        return FilterOp(
            compile_plan(expression.child, db),
            expression.predicate,
            expression.child.output_schema(db),
        )
    if isinstance(expression, Projection):
        schema = expression.child.output_schema(db)
        indexes = tuple(schema.index_of(c) for c in expression.columns)
        return ProjectOp(compile_plan(expression.child, db), indexes)
    if isinstance(expression, Rename):
        return compile_plan(expression.child, db)
    if isinstance(expression, Join):
        return _compile_theta_join(expression, db)
    if isinstance(expression, NaturalJoin):
        return _compile_natural_join(expression, db)
    if isinstance(expression, Union):
        return UnionOp(compile_plan(expression.left, db), compile_plan(expression.right, db))
    if isinstance(expression, Difference):
        return DifferenceOp(compile_plan(expression.left, db), compile_plan(expression.right, db))
    if isinstance(expression, Intersection):
        return IntersectOp(compile_plan(expression.left, db), compile_plan(expression.right, db))
    if isinstance(expression, GroupBy):
        schema = expression.child.output_schema(db)
        group_indexes = tuple(schema.index_of(name) for name in expression.group_by)
        aggregates = tuple(
            (spec, resolve_aggregate_input(spec, schema)) for spec in expression.aggregates
        )
        return AggregateOp(compile_plan(expression.child, db), group_indexes, aggregates)
    raise QueryEvaluationError(f"unsupported RA node type {type(expression).__name__}")


def _compile_theta_join(node: Join, db: DatabaseSchema) -> PlanNode:
    left_schema = node.left.output_schema(db)
    right_schema = node.right.output_schema(db)
    combined = node.output_schema(db)
    pairs, residual = split_equijoin_conjuncts(
        node.effective_predicate(), left_schema, right_schema
    )
    left_plan = compile_plan(node.left, db)
    right_plan = compile_plan(node.right, db)
    if not pairs:
        return CrossOp(left_plan, right_plan, tuple(residual), combined)
    return JoinOp(
        left_plan,
        right_plan,
        tuple(left_schema.index_of(a) for a, _ in pairs),
        tuple(right_schema.index_of(b) for _, b in pairs),
        tuple(residual),
        combined,
    )


def _compile_natural_join(node: NaturalJoin, db: DatabaseSchema) -> PlanNode:
    left_schema = node.left.output_schema(db)
    right_schema = node.right.output_schema(db)
    shared = node.shared_attributes(db)
    combined = node.output_schema(db)
    left_plan = compile_plan(node.left, db)
    right_plan = compile_plan(node.right, db)
    if not shared:
        return CrossOp(left_plan, right_plan, (), combined)
    shared_set = set(shared)
    keep_right = tuple(
        i for i, attr in enumerate(right_schema.attributes) if attr.name not in shared_set
    )
    return JoinOp(
        left_plan,
        right_plan,
        tuple(left_schema.index_of(name) for name in shared),
        tuple(right_schema.index_of(name) for name in shared),
        (),
        combined,
        keep_right=keep_right,
    )


def plan_operators(plan: PlanNode) -> Sequence[PlanNode]:
    """Pre-order traversal of a plan (for diagnostics and tests)."""
    nodes = [plan]
    for child in plan.children():
        nodes.extend(plan_operators(child))
    return nodes
