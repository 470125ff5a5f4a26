"""Plan optimization: pushdown and hash-join build sides.

The optimizer has two stages:

1. **AST rewrites** reuse :mod:`repro.ra.rewrite` — the selection-pushdown
   pass built for Optσ is exactly the rewrite a general engine wants, so
   :func:`optimize_expression` applies it to every subtree where it is safe
   (predicates that can raise act as barriers, see
   :func:`repro.ra.analysis.predicate_can_raise`).  The same pass sinks each
   join conjunct to the lowest join whose columns cover it.
2. **Build-side choice** works on the compiled plan:
   :func:`choose_build_sides` builds each hash join's table on the input
   with the smaller estimated cardinality.  Estimates come from one
   memoized :class:`CardinalityEstimator` per pass, fed by relation sizes
   alone (no per-column statistics), so the pass reads no row of the
   instance and stays linear in plan size.

Both stages are semantics-preserving for every annotation domain, but only
stage 1 is *structure*-preserving for order-sensitive annotations: flipping
a hash join's build side changes how Boolean provenance is folded.  So there
are two plan flavours: order-insensitive domains (the Set domain) run both
stages, order-sensitive ones (provenance) run stage 1 only.
"""

from __future__ import annotations

from dataclasses import replace

from repro.catalog.instance import DatabaseInstance
from repro.catalog.schema import DatabaseSchema
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
from repro.ra.analysis import predicate_can_raise
from repro.ra.ast import RAExpression, Selection
from repro.ra.predicates import (
    And,
    Comparison,
    Not,
    Or,
    Predicate,
    TruePredicate,
)
from repro.ra.rewrite import push_selections_down

#: Predicate selectivities (System-R style constants).
_EQUALITY_SELECTIVITY = 0.15
_INEQUALITY_SELECTIVITY = 1.0 - _EQUALITY_SELECTIVITY
_ORDERED_SELECTIVITY = 0.3
_DEFAULT_SELECTIVITY = 0.4
_MIN_SELECTIVITY = 0.001


def optimize_expression(expression: RAExpression, db: DatabaseSchema) -> RAExpression:
    """AST-level rewrites: push selections down wherever that is safe.

    A selection whose predicate can raise must see exactly the rows the
    unoptimized plan feeds it, so the subtree rooted at such a selection is
    left untouched — but every sibling branch (the other side of a union,
    say) still optimizes, and nothing is ever moved into or out of the
    frozen subtree.
    """
    flags: dict[int, bool] = {}

    def has_raising(node: RAExpression) -> bool:
        cached = flags.get(id(node))
        if cached is None:
            cached = (
                isinstance(node, Selection)
                and predicate_can_raise(node.predicate, node.child.output_schema(db))
            ) or any(has_raising(child) for child in node.children())
            flags[id(node)] = cached
        return cached

    def rewrite(node: RAExpression) -> RAExpression:
        if not has_raising(node):
            return push_selections_down(node, db)
        return node.with_children(tuple(rewrite(child) for child in node.children()))

    return rewrite(expression)


# ---------------------------------------------------------------------------
# Cardinality estimation
# ---------------------------------------------------------------------------


class CardinalityEstimator:
    """Memoized row-count estimation over one instance.

    One estimator is shared across a whole optimization pass, so every
    distinct plan node is costed exactly once (plan nodes compare
    structurally, so repeated subtrees share one memo entry).  Base
    relations contribute their sizes; every operator above them applies a
    fixed rule: predicates by System-R selectivity constants, equi-joins as
    large as their larger input (the foreign-key case), aggregates at a
    quarter of their input.

    The dispatch in :meth:`_compute` is exhaustive: an unknown node type
    raises :class:`TypeError` instead of silently defaulting, so a new
    operator cannot be mis-costed without a signal.
    """

    def __init__(self, instance: DatabaseInstance) -> None:
        self.instance = instance
        self._memo: dict[PlanNode, float] = {}

    def estimate(self, plan: PlanNode) -> float:
        """Estimated output cardinality of ``plan`` (never negative)."""
        cached = self._memo.get(plan)
        if cached is None:
            cached = max(self._compute(plan), 0.0)
            self._memo[plan] = cached
        return cached

    def _compute(self, plan: PlanNode) -> float:
        if isinstance(plan, ScanOp):
            return float(len(self.instance.relation(plan.relation)))
        if isinstance(plan, FilterOp):
            return self.estimate(plan.child) * _predicate_selectivity(plan.predicate)
        if isinstance(plan, ProjectOp):
            return self.estimate(plan.child)
        if isinstance(plan, JoinOp):
            # FK-style equi-joins return about as many rows as the larger input.
            rows = max(self.estimate(plan.left), self.estimate(plan.right))
            return _residual_rows(rows, plan.residual)
        if isinstance(plan, CrossOp):
            rows = self.estimate(plan.left) * self.estimate(plan.right)
            return _residual_rows(rows, plan.residual)
        if isinstance(plan, UnionOp):
            return self.estimate(plan.left) + self.estimate(plan.right)
        if isinstance(plan, DifferenceOp):
            # Upper bound: the right side removes an unknown number of rows.
            return self.estimate(plan.left)
        if isinstance(plan, IntersectOp):
            return min(self.estimate(plan.left), self.estimate(plan.right))
        if isinstance(plan, AggregateOp):
            rows = self.estimate(plan.child)
            if not plan.group_indexes:
                return min(rows, 1.0)
            return max(rows * 0.25, 1.0)
        raise TypeError(
            f"no cardinality estimate for plan node {type(plan).__name__}; "
            "add a dispatch entry to CardinalityEstimator._compute"
        )


def _residual_rows(rows: float, residual: tuple[Predicate, ...]) -> float:
    for predicate in residual:
        rows *= _predicate_selectivity(predicate)
    return rows


def _clamp(selectivity: float) -> float:
    return min(max(selectivity, _MIN_SELECTIVITY), 1.0)


def _predicate_selectivity(predicate: Predicate) -> float:
    selectivity = 1.0
    for conjunct in predicate.conjuncts():
        selectivity *= _conjunct_selectivity(conjunct)
    return _clamp(selectivity)


def _conjunct_selectivity(conjunct: Predicate) -> float:
    if isinstance(conjunct, TruePredicate):
        return 1.0
    if isinstance(conjunct, Comparison):
        if conjunct.op == "=":
            return _EQUALITY_SELECTIVITY
        if conjunct.op == "!=":
            return _INEQUALITY_SELECTIVITY
        return _ORDERED_SELECTIVITY
    if isinstance(conjunct, And):
        return _predicate_selectivity(conjunct)
    if isinstance(conjunct, Or):
        miss = 1.0
        for operand in conjunct.operands:
            miss *= 1.0 - _conjunct_selectivity(operand)
        return _clamp(1.0 - miss)
    if isinstance(conjunct, Not):
        return _clamp(1.0 - _conjunct_selectivity(conjunct.operand))
    return _DEFAULT_SELECTIVITY


# ---------------------------------------------------------------------------
# Build-side choice
# ---------------------------------------------------------------------------


def choose_build_sides(plan: PlanNode, estimator: CardinalityEstimator) -> PlanNode:
    """Rebuild the plan with each hash join building on its smaller input."""
    if isinstance(plan, JoinOp):
        left = choose_build_sides(plan.left, estimator)
        right = choose_build_sides(plan.right, estimator)
        build_left = estimator.estimate(left) < estimator.estimate(right)
        return replace(plan, left=left, right=right, build_left=build_left)
    if isinstance(plan, (FilterOp, ProjectOp, AggregateOp)):
        return replace(plan, child=choose_build_sides(plan.child, estimator))
    if isinstance(plan, (CrossOp, UnionOp, DifferenceOp, IntersectOp)):
        return replace(
            plan,
            left=choose_build_sides(plan.left, estimator),
            right=choose_build_sides(plan.right, estimator),
        )
    return plan
