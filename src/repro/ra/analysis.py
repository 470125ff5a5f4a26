"""Query analysis: operator usage, complexity metrics and class detection.

The paper's complexity dichotomy (Table 1) and its algorithm dispatch depend
on which operators a query uses and *where* they appear:

* ``JU*`` — joins and unions only, with every union above all joins;
* ``SPJUD*`` — differences only at the top of the tree (grammar
  ``Q -> q+ | Q - Q`` where ``q+`` is an SPJU query);
* aggregate queries are handled by the separate algorithms of §5.

This module computes these facts for arbitrary expression trees.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.catalog.schema import RelationSchema
from repro.catalog.types import DataType, comparable, is_numeric
from repro.ra.predicates import Arithmetic, ColumnRef, Comparison, Literal, Param, Predicate
from repro.ra.ast import (
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

_JOIN_NODES = (Join, NaturalJoin, Intersection)


def split_equijoin_conjuncts(
    predicate: Predicate,
    left_schema: RelationSchema,
    right_schema: RelationSchema,
) -> tuple[list[tuple[str, str]], list[Predicate]]:
    """Split a join predicate into hashable equi-join pairs and residual conjuncts.

    Returns ``(pairs, residual)`` where each pair is ``(left_column,
    right_column)`` and the residual predicates must still be evaluated on the
    concatenated tuple.  Pure predicate/schema analysis — shared by the plan
    compiler, the reference interpreters, and the SQL writer.
    """
    pairs: list[tuple[str, str]] = []
    residual: list[Predicate] = []
    for conjunct in predicate.conjuncts():
        if (
            isinstance(conjunct, Comparison)
            and conjunct.op == "="
            and isinstance(conjunct.left, ColumnRef)
            and isinstance(conjunct.right, ColumnRef)
        ):
            left_name, right_name = conjunct.left.name, conjunct.right.name
            if left_schema.has_attribute(left_name) and right_schema.has_attribute(right_name):
                pairs.append((left_name, right_name))
                continue
            if left_schema.has_attribute(right_name) and right_schema.has_attribute(left_name):
                pairs.append((right_name, left_name))
                continue
        residual.append(conjunct)
    return pairs, residual


_ORDERED_OPS = frozenset({"<", "<=", ">", ">="})


def _scalar_dtype(scalar, schema: RelationSchema) -> DataType | None:
    """Static type of a scalar against ``schema``; ``None`` when unknown."""
    if isinstance(scalar, ColumnRef):
        if schema.has_attribute(scalar.name):
            return schema.attribute(scalar.name).dtype
        return None
    if isinstance(scalar, Literal):
        value = scalar.value
        if isinstance(value, bool):
            return DataType.BOOL
        if isinstance(value, (int, float)):
            return DataType.FLOAT
        if isinstance(value, str):
            return DataType.STRING
        return None
    if isinstance(scalar, Arithmetic):
        left = _scalar_dtype(scalar.left, schema)
        right = _scalar_dtype(scalar.right, schema)
        if left is not None and right is not None and is_numeric(left) and is_numeric(right):
            return DataType.FLOAT
        return None
    return None  # parameters and unknown scalar types


def _scalar_can_raise(scalar, schema: RelationSchema) -> bool:
    if isinstance(scalar, Param):
        # An unbound parameter raises only when the predicate is evaluated,
        # so its selection must keep seeing exactly the original rows.
        return True
    if isinstance(scalar, Arithmetic):
        if scalar.op == "/":
            return True  # division by zero
        if _scalar_can_raise(scalar.left, schema) or _scalar_can_raise(scalar.right, schema):
            return True
        # Non-numeric operands make +,-,* raise TypeError when evaluated.
        return _scalar_dtype(scalar, schema) is None
    return False


def predicate_can_raise(predicate: Predicate, schema: RelationSchema) -> bool:
    """True when evaluating the predicate may abort on some rows.

    Division and ill-typed expressions (a string column ordered against a
    number — typical of malformed student queries) raise only on the rows
    they are evaluated over; moving such a predicate, or moving other
    predicates past it, would change which rows it sees and can turn a query
    the reference interpreter answers into an error (or the reverse).
    """
    if isinstance(predicate, Comparison):
        if _scalar_can_raise(predicate.left, schema) or _scalar_can_raise(predicate.right, schema):
            return True
        if predicate.op in _ORDERED_OPS:
            left = _scalar_dtype(predicate.left, schema)
            right = _scalar_dtype(predicate.right, schema)
            return left is None or right is None or not comparable(left, right)
        return False  # = and != never raise between mismatched Python types
    operands = getattr(predicate, "operands", None)
    if operands is not None:
        return any(predicate_can_raise(p, schema) for p in operands)
    operand = getattr(predicate, "operand", None)
    if operand is not None:
        return predicate_can_raise(operand, schema)
    return False


class QueryClass(enum.Enum):
    """Syntactic query classes used by the algorithm dispatcher."""

    SJ = "SJ"
    SPU = "SPU"
    PJ = "PJ"
    JU = "JU"
    JU_STAR = "JU*"
    SPJU = "SPJU"
    SPJUD_STAR = "SPJUD*"
    SPJUD = "SPJUD"
    AGGREGATE = "SPJUDA"


@dataclass(frozen=True)
class QueryProfile:
    """Operator usage and complexity metrics of one RA expression."""

    uses_selection: bool
    uses_projection: bool
    uses_join: bool
    uses_union: bool
    uses_difference: bool
    uses_aggregate: bool
    num_operators: int
    num_joins: int
    num_unions: int
    num_differences: int
    num_aggregates: int
    height: int
    num_base_relations: int
    query_class: QueryClass

    @property
    def is_monotone(self) -> bool:
        """Monotone queries (no difference, no aggregation) never lose answers
        when tuples are added to the input."""
        return not self.uses_difference and not self.uses_aggregate

    @property
    def polytime_data_complexity(self) -> bool:
        """Whether SWP is poly-time in data complexity for this class (Table 1)."""
        return self.query_class is not QueryClass.SPJUD

    @property
    def polytime_combined_complexity(self) -> bool:
        """Whether SWP is poly-time in combined complexity for this class (Table 1)."""
        return self.query_class in (QueryClass.SJ, QueryClass.SPU, QueryClass.JU_STAR)


def _predicate_selects(predicate) -> bool:
    """True when a join predicate does more than equate columns of the two sides."""
    from repro.ra.predicates import ColumnRef, Comparison

    for conjunct in predicate.conjuncts():
        if not isinstance(conjunct, Comparison):
            return True
        if conjunct.op != "=":
            return True
        if not (isinstance(conjunct.left, ColumnRef) and isinstance(conjunct.right, ColumnRef)):
            return True
    return False


def unions_after_joins(expression: RAExpression) -> bool:
    """True when no union occurs below a join (the ``JU*`` restriction)."""
    for node in expression.walk():
        if isinstance(node, _JOIN_NODES):
            for descendant in node.walk():
                if descendant is node:
                    continue
                if isinstance(descendant, Union):
                    return False
    return True


def differences_only_at_top(expression: RAExpression) -> bool:
    """True when every difference sits above all other operators (``SPJUD*``).

    Formally the expression must be derivable from ``Q -> q+ | Q - Q`` with
    ``q+`` an SPJU query: no difference node may appear strictly below a
    non-difference operator node.
    """
    for node in expression.walk():
        if isinstance(node, (Difference, RelationRef, Rename)):
            continue
        for descendant in node.walk():
            if descendant is node:
                continue
            if isinstance(descendant, Difference):
                return False
    return True


def spju_terminals(expression: RAExpression) -> list[RAExpression]:
    """The maximal difference-free subtrees of an SPJUD* expression.

    These are the ``q+`` terminals in the grammar ``Q -> q+ | Q - Q``; the
    SPJUD* poly-time algorithm (Theorem 7) enumerates witnesses per terminal.
    """
    terminals: list[RAExpression] = []

    def visit(node: RAExpression) -> None:
        if isinstance(node, Difference):
            visit(node.left)
            visit(node.right)
        else:
            terminals.append(node)

    visit(expression)
    return terminals


def profile(expression: RAExpression) -> QueryProfile:
    """Compute the :class:`QueryProfile` of an expression."""
    uses_selection = uses_projection = uses_join = False
    uses_union = uses_difference = uses_aggregate = False
    num_joins = num_unions = num_differences = num_aggregates = 0
    for node in expression.walk():
        if isinstance(node, Selection):
            uses_selection = True
        elif isinstance(node, Projection):
            uses_projection = True
        elif isinstance(node, _JOIN_NODES):
            uses_join = True
            num_joins += 1
            # A theta-join whose predicate compares against constants or uses
            # non-equality operators embeds a selection; classify it as S+J.
            if isinstance(node, Join) and node.predicate is not None and _predicate_selects(node.predicate):
                uses_selection = True
        elif isinstance(node, Union):
            uses_union = True
            num_unions += 1
        elif isinstance(node, Difference):
            uses_difference = True
            num_differences += 1
        elif isinstance(node, GroupBy):
            uses_aggregate = True
            num_aggregates += 1

    query_class = _classify(
        expression,
        uses_selection=uses_selection,
        uses_projection=uses_projection,
        uses_join=uses_join,
        uses_union=uses_union,
        uses_difference=uses_difference,
        uses_aggregate=uses_aggregate,
    )
    return QueryProfile(
        uses_selection=uses_selection,
        uses_projection=uses_projection,
        uses_join=uses_join,
        uses_union=uses_union,
        uses_difference=uses_difference,
        uses_aggregate=uses_aggregate,
        num_operators=expression.operator_count(),
        num_joins=num_joins,
        num_unions=num_unions,
        num_differences=num_differences,
        num_aggregates=num_aggregates,
        height=expression.height(),
        num_base_relations=len(expression.base_relations()),
        query_class=query_class,
    )


def _classify(
    expression: RAExpression,
    *,
    uses_selection: bool,
    uses_projection: bool,
    uses_join: bool,
    uses_union: bool,
    uses_difference: bool,
    uses_aggregate: bool,
) -> QueryClass:
    if uses_aggregate:
        return QueryClass.AGGREGATE
    if uses_difference:
        if differences_only_at_top(expression):
            return QueryClass.SPJUD_STAR
        return QueryClass.SPJUD

    # Monotone SPJU fragment: pick the most specific label from Table 1.
    if uses_join and uses_union and not uses_selection and not uses_projection:
        if unions_after_joins(expression):
            return QueryClass.JU_STAR
        return QueryClass.JU
    if uses_join and uses_projection and not uses_union:
        if uses_selection:
            return QueryClass.SPJU
        return QueryClass.PJ
    if uses_join and not uses_projection and not uses_union:
        return QueryClass.SJ
    if not uses_join:
        return QueryClass.SPU
    return QueryClass.SPJU
