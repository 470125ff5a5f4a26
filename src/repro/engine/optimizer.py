"""Plan optimization: pushdown, semijoins, build sides.

The optimizer has two stages:

1. **AST rewrites** reuse :mod:`repro.ra.rewrite` — the selection-pushdown
   pass built for Optσ is exactly the rewrite a general engine wants, so
   :func:`optimize_expression` applies it to every subtree where it is safe
   (predicates that can raise act as barriers, see
   :func:`repro.ra.analysis.predicate_can_raise`).  The same pass sinks each
   join conjunct to the lowest join whose columns cover it.
2. **Plan rewrites** work on the compiled plan and use statistics from the
   bound instance (:class:`~repro.engine.stats.StatsCatalog`):

   * :func:`apply_semijoin_reduction` filters the larger input of a
     foreign-key join by a semijoin against the other side when the
     estimate says enough rows die;
   * :func:`choose_build_sides` builds each hash join's table on the input
     with the smaller estimated cardinality.

   All estimates flow through one memoized :class:`CardinalityEstimator`
   per pass, so optimization time stays linear in plan size.

Both stages are semantics-preserving for every annotation domain, but only
stage 1 is *structure*-preserving for order-sensitive annotations: flipping
a hash join's build side changes how Boolean provenance is folded.  So there
are two plan flavours: order-insensitive domains (the Set domain) run both
stages, order-sensitive ones (provenance) run stage 1 only.
"""

from __future__ import annotations

from dataclasses import replace

from repro.catalog.instance import DatabaseInstance
from repro.catalog.schema import DatabaseSchema, RelationSchema
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
    SemiJoinOp,
    UnionOp,
)
from repro.engine.stats import PlanStats, StatsCatalog
from repro.ra.analysis import predicate_can_raise
from repro.ra.ast import RAExpression, Selection
from repro.ra.predicates import (
    And,
    ColumnRef,
    Comparison,
    Not,
    Or,
    Predicate,
    TruePredicate,
)
from repro.ra.rewrite import push_selections_down

#: Selectivity fallbacks for predicates the statistics cannot see through
#: (System-R style constants).
_EQUALITY_SELECTIVITY = 0.15
_ORDERED_SELECTIVITY = 0.3
_DEFAULT_SELECTIVITY = 0.4
_MIN_SELECTIVITY = 0.001


#: Largest estimated surviving fraction for which a foreign-key join input
#: is still worth semijoin-reducing: a semijoin that keeps nearly every row
#: just adds a pass.
SEMIJOIN_FACTOR = 0.5


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


def _clamped(rows: float, ndv: tuple[float | None, ...]) -> PlanStats:
    rows = max(rows, 0.0)
    return PlanStats(rows, tuple(None if n is None else min(n, max(rows, 1.0)) for n in ndv))


def _distinct_bound(rows: float, ndv: tuple[float | None, ...]) -> float:
    """Upper bound on distinct tuples over the columns in ``ndv``."""
    bound = 1.0
    for n in ndv:
        if n is None:
            return rows
        bound *= max(n, 1.0)
        if bound >= rows:
            return rows
    return min(bound, rows)


class CardinalityEstimator:
    """Memoized, statistics-backed cardinality estimation over one instance.

    One estimator is shared across a whole optimization pass, so every
    distinct plan node is costed exactly once (plan nodes compare
    structurally, so repeated subtrees share one memo entry).  The previous
    free function re-walked the entire subtree at every join node, which
    made optimization quadratic-to-exponential on deep join chains.

    The dispatch in :meth:`_compute` is exhaustive: an unknown node type
    raises :class:`TypeError` instead of silently defaulting, so a new
    operator cannot be mis-costed without a signal.
    """

    def __init__(self, instance: DatabaseInstance, stats: StatsCatalog | None = None) -> None:
        self.instance = instance
        self.stats = stats if stats is not None else StatsCatalog(instance)
        self._memo: dict[PlanNode, PlanStats] = {}

    def estimate(self, plan: PlanNode) -> float:
        """Estimated output cardinality of ``plan``."""
        return self.plan_stats(plan).rows

    def plan_stats(self, plan: PlanNode) -> PlanStats:
        """Estimated rows and per-column distinct counts of ``plan``."""
        cached = self._memo.get(plan)
        if cached is None:
            cached = self._compute(plan)
            self._memo[plan] = cached
        return cached

    # -- dispatch ------------------------------------------------------------

    def _compute(self, plan: PlanNode) -> PlanStats:
        if isinstance(plan, ScanOp):
            return self.stats.scan_stats(plan.relation)
        if isinstance(plan, FilterOp):
            child = self.plan_stats(plan.child)
            selectivity = self._predicate_selectivity(plan.predicate, plan.schema, child)
            return _clamped(child.rows * selectivity, child.ndv)
        if isinstance(plan, ProjectOp):
            child = self.plan_stats(plan.child)
            ndv = tuple(child.ndv[i] for i in plan.indexes)
            return _clamped(_distinct_bound(child.rows, ndv), ndv)
        if isinstance(plan, JoinOp):
            return self._join_stats(plan)
        if isinstance(plan, SemiJoinOp):
            left = self.plan_stats(plan.left)
            right = self.plan_stats(plan.right)
            fraction = _semijoin_fraction(left, right, plan.left_key, plan.right_key)
            return _clamped(left.rows * fraction, left.ndv)
        if isinstance(plan, CrossOp):
            left = self.plan_stats(plan.left)
            right = self.plan_stats(plan.right)
            ndv = left.ndv + right.ndv
            rows = left.rows * right.rows
            combined = PlanStats(rows, ndv)
            for predicate in plan.residual:
                rows *= self._predicate_selectivity(predicate, plan.schema, combined)
            return _clamped(rows, ndv)
        if isinstance(plan, UnionOp):
            left = self.plan_stats(plan.left)
            right = self.plan_stats(plan.right)
            rows = left.rows + right.rows
            ndv = tuple(
                None if a is None or b is None else a + b
                for a, b in zip(left.ndv, right.ndv)
            )
            return _clamped(rows, ndv)
        if isinstance(plan, DifferenceOp):
            # Upper bound: the right side removes an unknown number of rows.
            return self.plan_stats(plan.left)
        if isinstance(plan, IntersectOp):
            left = self.plan_stats(plan.left)
            right = self.plan_stats(plan.right)
            return _clamped(min(left.rows, right.rows), left.ndv)
        if isinstance(plan, AggregateOp):
            child = self.plan_stats(plan.child)
            group_ndv = tuple(child.ndv[i] for i in plan.group_indexes)
            if not plan.group_indexes:
                rows = min(child.rows, 1.0)
            elif all(n is not None for n in group_ndv):
                rows = _distinct_bound(child.rows, group_ndv)
            else:
                rows = max(child.rows * 0.25, 1.0)
            ndv = group_ndv + (None,) * len(plan.aggregates)
            return _clamped(rows, ndv)
        raise TypeError(
            f"no cardinality estimate for plan node {type(plan).__name__}; "
            "add a dispatch entry to CardinalityEstimator._compute"
        )

    # -- operators -----------------------------------------------------------

    def _join_stats(self, plan: JoinOp) -> PlanStats:
        left = self.plan_stats(plan.left)
        right = self.plan_stats(plan.right)
        selectivity = 1.0
        known = True
        for a, b in zip(plan.left_key, plan.right_key):
            candidates = [n for n in (left.ndv[a], right.ndv[b]) if n is not None]
            if not candidates:
                known = False
                break
            selectivity /= max(max(candidates), 1.0)
        if known:
            rows = left.rows * right.rows * selectivity
        else:
            # Stats-free fallback: FK-style equi-joins return about as many
            # rows as the larger input.
            rows = max(left.rows, right.rows)
        if plan.keep_right is None:
            ndv = left.ndv + right.ndv
        else:
            ndv = left.ndv + tuple(right.ndv[i] for i in plan.keep_right)
        combined = PlanStats(rows, ndv)
        for predicate in plan.residual:
            rows *= self._predicate_selectivity(predicate, plan.schema, combined)
        return _clamped(rows, ndv)

    # -- selectivity ---------------------------------------------------------

    def _predicate_selectivity(
        self, predicate: Predicate, schema: RelationSchema, stats: PlanStats
    ) -> float:
        selectivity = 1.0
        for conjunct in predicate.conjuncts():
            selectivity *= self._conjunct_selectivity(conjunct, schema, stats)
        return min(max(selectivity, _MIN_SELECTIVITY), 1.0)

    def _conjunct_selectivity(
        self, conjunct: Predicate, schema: RelationSchema, stats: PlanStats
    ) -> float:
        if isinstance(conjunct, TruePredicate):
            return 1.0
        if isinstance(conjunct, Comparison):
            if conjunct.op in ("=", "!="):
                equality = self._equality_selectivity(conjunct, schema, stats)
                if conjunct.op == "=":
                    return equality
                return min(max(1.0 - equality, _MIN_SELECTIVITY), 1.0)
            return _ORDERED_SELECTIVITY
        if isinstance(conjunct, And):
            return self._predicate_selectivity(conjunct, schema, stats)
        if isinstance(conjunct, Or):
            miss = 1.0
            for operand in conjunct.operands:
                miss *= 1.0 - self._conjunct_selectivity(operand, schema, stats)
            return min(max(1.0 - miss, _MIN_SELECTIVITY), 1.0)
        if isinstance(conjunct, Not):
            inner = self._conjunct_selectivity(conjunct.operand, schema, stats)
            return min(max(1.0 - inner, _MIN_SELECTIVITY), 1.0)
        return _DEFAULT_SELECTIVITY

    def _equality_selectivity(
        self, comparison: Comparison, schema: RelationSchema, stats: PlanStats
    ) -> float:
        candidates = [
            n
            for scalar in (comparison.left, comparison.right)
            for n in (self._column_ndv(scalar, schema, stats),)
            if n
        ]
        if candidates:
            return 1.0 / max(max(candidates), 1.0)
        return _EQUALITY_SELECTIVITY

    @staticmethod
    def _column_ndv(scalar, schema: RelationSchema, stats: PlanStats) -> float | None:
        if isinstance(scalar, ColumnRef) and schema.has_attribute(scalar.name):
            index = schema.index_of(scalar.name)
            if index < len(stats.ndv):
                return stats.ndv[index]
        return None


def _semijoin_fraction(
    left: PlanStats,
    right: PlanStats,
    left_key: tuple[int, ...],
    right_key: tuple[int, ...],
) -> float:
    """Estimated fraction of left rows surviving a semijoin against right."""
    fraction = 1.0
    known = False
    for a, b in zip(left_key, right_key):
        ndv_l = left.ndv[a]
        ndv_r = right.ndv[b]
        if ndv_l is not None and ndv_r is not None and ndv_l > 0:
            known = True
            fraction *= min(1.0, ndv_r / ndv_l)
    return fraction if known else 0.5


def estimate_rows(
    plan: PlanNode, instance: DatabaseInstance, estimator: CardinalityEstimator | None = None
) -> float:
    """Estimated output cardinality of a plan over ``instance``.

    Thin wrapper over :class:`CardinalityEstimator`; pass an estimator to
    share its memo across calls.  Raises :class:`TypeError` on plan node
    types without an estimation rule.
    """
    if estimator is None:
        estimator = CardinalityEstimator(instance)
    return estimator.estimate(plan)


# ---------------------------------------------------------------------------
# Build-side choice
# ---------------------------------------------------------------------------


def choose_build_sides(
    plan: PlanNode, instance: DatabaseInstance, estimator: CardinalityEstimator | None = None
) -> PlanNode:
    """Rebuild the plan with each hash join building on its smaller input."""
    if estimator is None:
        estimator = CardinalityEstimator(instance)
    return _choose_build_sides(plan, estimator)


def _choose_build_sides(plan: PlanNode, estimator: CardinalityEstimator) -> PlanNode:
    if isinstance(plan, JoinOp):
        left = _choose_build_sides(plan.left, estimator)
        right = _choose_build_sides(plan.right, estimator)
        build_left = estimator.estimate(left) < estimator.estimate(right)
        return replace(plan, left=left, right=right, build_left=build_left)
    if isinstance(plan, (FilterOp, ProjectOp, AggregateOp)):
        return replace(plan, child=_choose_build_sides(plan.child, estimator))
    if isinstance(plan, (SemiJoinOp, CrossOp, UnionOp, DifferenceOp, IntersectOp)):
        return replace(
            plan,
            left=_choose_build_sides(plan.left, estimator),
            right=_choose_build_sides(plan.right, estimator),
        )
    return plan


# ---------------------------------------------------------------------------
# Semijoin reduction
# ---------------------------------------------------------------------------


def apply_semijoin_reduction(
    plan: PlanNode,
    instance: DatabaseInstance,
    estimator: CardinalityEstimator | None = None,
) -> PlanNode:
    """Semijoin-reduce the larger input of foreign-key equi-joins.

    A join whose key columns trace back (through filters, projections and
    joins) to the child/parent columns of a declared
    :class:`~repro.catalog.constraints.ForeignKeyConstraint` is an FK join;
    its larger input is filtered by a semijoin against the other side before
    the join proper.  The reduction is applied only when the estimated
    surviving fraction is at most :data:`SEMIJOIN_FACTOR`, and never to a bare scan —
    wrapping one would destroy the cached hash-index build path, which is
    cheaper than any semijoin.  The semijoin's filter side is the join's
    other input *verbatim*, so the executor memo computes it once and the
    semijoin costs one extra key-set pass, not a re-evaluation.
    """
    if estimator is None:
        estimator = CardinalityEstimator(instance)
    fk_pairs = _foreign_key_pairs(instance.schema)
    if not fk_pairs:
        return plan
    origins: dict[PlanNode, tuple] = {}
    return _reduce(plan, estimator, fk_pairs, origins)


def _foreign_key_pairs(db: DatabaseSchema) -> list[frozenset]:
    """Each FK as a frozenset of ((child_rel, col), (parent_rel, col)) pairs."""
    pairs = []
    for fk in db.foreign_keys():
        child = db.relations[fk.child]
        parent = db.relations[fk.parent]
        pairs.append(
            frozenset(
                ((fk.child, child.index_of(ca)), (fk.parent, parent.index_of(pa)))
                for ca, pa in zip(fk.child_attributes, fk.parent_attributes)
            )
        )
    return pairs


def _column_origins(
    plan: PlanNode, estimator: CardinalityEstimator, memo: dict[PlanNode, tuple]
) -> tuple:
    """Per output column: the ``(relation, column)`` it copies, or ``None``."""
    cached = memo.get(plan)
    if cached is not None:
        return cached
    if isinstance(plan, ScanOp):
        arity = estimator.instance.relation(plan.relation).schema.arity
        origins = tuple((plan.relation, i) for i in range(arity))
    elif isinstance(plan, (FilterOp, SemiJoinOp)):
        child = plan.child if isinstance(plan, FilterOp) else plan.left
        origins = _column_origins(child, estimator, memo)
    elif isinstance(plan, ProjectOp):
        child = _column_origins(plan.child, estimator, memo)
        origins = tuple(child[i] for i in plan.indexes)
    elif isinstance(plan, JoinOp):
        left = _column_origins(plan.left, estimator, memo)
        right = _column_origins(plan.right, estimator, memo)
        if plan.keep_right is None:
            origins = left + right
        else:
            origins = left + tuple(right[i] for i in plan.keep_right)
    elif isinstance(plan, CrossOp):
        origins = _column_origins(plan.left, estimator, memo) + _column_origins(
            plan.right, estimator, memo
        )
    else:
        # Set operations merge rows from two origins and aggregates compute
        # fresh values; neither traces back to a single base column.
        origins = (None,) * estimator.plan_stats(plan).width
    memo[plan] = origins
    return origins


def _reduce(
    plan: PlanNode,
    estimator: CardinalityEstimator,
    fk_pairs: list[frozenset],
    origins: dict[PlanNode, tuple],
) -> PlanNode:
    if isinstance(plan, (FilterOp, ProjectOp, AggregateOp)):
        return replace(plan, child=_reduce(plan.child, estimator, fk_pairs, origins))
    if isinstance(plan, (CrossOp, SemiJoinOp, UnionOp, DifferenceOp, IntersectOp)):
        return replace(
            plan,
            left=_reduce(plan.left, estimator, fk_pairs, origins),
            right=_reduce(plan.right, estimator, fk_pairs, origins),
        )
    if not isinstance(plan, JoinOp):
        return plan
    left = _reduce(plan.left, estimator, fk_pairs, origins)
    right = _reduce(plan.right, estimator, fk_pairs, origins)
    node = replace(plan, left=left, right=right)
    left_origins = _column_origins(node.left, estimator, origins)
    right_origins = _column_origins(node.right, estimator, origins)
    key_pairs = set()
    for a, b in zip(node.left_key, node.right_key):
        if left_origins[a] is None or right_origins[b] is None:
            return node
        key_pairs.add((left_origins[a], right_origins[b]))
    swapped = {(b, a) for a, b in key_pairs}
    if not any(fk <= key_pairs or fk <= swapped for fk in fk_pairs):
        return node
    left_stats = estimator.plan_stats(node.left)
    right_stats = estimator.plan_stats(node.right)
    if left_stats.rows >= right_stats.rows:
        target, other = node.left, node.right
        target_key, other_key = node.left_key, node.right_key
        target_stats, other_stats = left_stats, right_stats
    else:
        target, other = node.right, node.left
        target_key, other_key = node.right_key, node.left_key
        target_stats, other_stats = right_stats, left_stats
    if isinstance(target, ScanOp):
        return node
    fraction = _semijoin_fraction(target_stats, other_stats, target_key, other_key)
    if fraction > SEMIJOIN_FACTOR:
        return node
    reduced = SemiJoinOp(target, other, target_key, other_key)
    if target is node.left:
        return replace(node, left=reduced)
    return replace(node, right=reduced)
