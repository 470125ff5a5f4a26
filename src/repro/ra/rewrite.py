"""Query rewrites: selection pushdown and query parameterization.

The Optσ algorithm (Algorithm 2) adds a selection ``σ_{A=t}`` on top of
``Q1 − Q2`` so that only one output tuple's provenance is computed, and relies
on the DBMS optimizer to push that selection down.  This module performs that
pushdown explicitly; it doubles as the AST-level optimization pass of the
execution engine (:func:`repro.engine.optimizer.optimize_expression`):

* selections commute with selections, projections (after renaming through the
  projection's aliases), renames, unions, differences and intersections;
* at a join, each conjunct is pushed to whichever side contains all of its
  columns, and equality conjuncts ``col = const`` are additionally propagated
  across the join's equi-join pairs to the other side;
* at a GroupBy, conjuncts touching only grouping attributes are pushed below;
* a theta join whose child is itself a theta join sinks each of its conjuncts
  that reads only that child's columns into the child's predicate, so the
  conjunct filters at the lowest join that can evaluate it.

:func:`parameterize_query` implements §5.3.1: constants compared against
aggregate aliases in HAVING-style selections become named parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

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
from repro.ra.predicates import (
    ColumnRef,
    Comparison,
    Literal,
    Param,
    Predicate,
    conj,
    constant_equality,
)
from repro.catalog.schema import DatabaseSchema
from repro.ra.analysis import predicate_can_raise


def add_tuple_selection(
    expression: RAExpression, db: DatabaseSchema, row: tuple
) -> Selection:
    """``σ_{A1=t.A1 ∧ …}(expression)`` selecting exactly the output tuple ``row``."""
    schema = expression.output_schema(db)
    conjuncts = [
        Comparison("=", ColumnRef(attr.name), Literal(value))
        for attr, value in zip(schema.attributes, row)
        if value is not None
    ]
    return Selection(expression, conj(conjuncts))


def push_selections_down(expression: RAExpression, db: DatabaseSchema) -> RAExpression:
    """Push every selection in ``expression`` as far down as possible."""
    return _push(expression, db)


def _push(node: RAExpression, db: DatabaseSchema) -> RAExpression:
    if isinstance(node, Selection):
        child = _push(node.child, db)
        return push_selection_into(node.predicate, child, db)
    children = [_push(child, db) for child in node.children()]
    if not children:
        return node
    rebuilt = node.with_children(children)
    if isinstance(rebuilt, Join):
        return _sink_join_conjuncts(rebuilt, db)
    return rebuilt


def _sink_join_conjuncts(node: Join, db: DatabaseSchema) -> Join:
    """Move each conjunct that reads only one join child's columns into it.

    Only a child that is itself a theta join receives, and the conjunct is
    appended to its predicate: it stays a join residual (or becomes an
    equi-join key), so a bare-relation side keeps its hash-index build path.
    A join whose predicate can raise neither gives nor receives, since
    moving a conjunct changes the rows the raising one is evaluated on.
    """
    children = node.children()
    if node.predicate is None or not any(isinstance(child, Join) for child in children):
        return node
    schemas = [child.output_schema(db) for child in children]
    if predicate_can_raise(node.predicate, schemas[0].concat(schemas[1])):
        return node
    receivers = [
        set(schema.attribute_names)
        if isinstance(child, Join)
        and not (child.predicate is not None and predicate_can_raise(child.predicate, schema))
        else None
        for child, schema in zip(children, schemas)
    ]
    sunk: list[list[Predicate]] = [[], []]
    kept: list[Predicate] = []
    for conjunct in node.predicate.conjuncts():
        referenced = conjunct.referenced_columns()
        for side, names in enumerate(receivers):
            if names is not None and referenced and referenced <= names:
                sunk[side].append(conjunct)
                break
        else:
            kept.append(conjunct)
    if not sunk[0] and not sunk[1]:
        return node
    rebuilt = list(children)
    for side, conjuncts in enumerate(sunk):
        if conjuncts:
            child = children[side]
            own = [] if child.predicate is None else child.predicate.conjuncts()
            merged = Join(child.left, child.right, conj(own + conjuncts))
            rebuilt[side] = _sink_join_conjuncts(merged, db)
    return Join(rebuilt[0], rebuilt[1], conj(kept) if kept else None)


def push_selection_into(
    predicate: Predicate, node: RAExpression, db: DatabaseSchema
) -> RAExpression:
    """``σ_predicate(node)`` pushed down, for a ``node`` already pushed down.

    Only the nodes on the way down are rebuilt: every subtree the selection
    does not reach is returned as the very same object.
    """
    conjuncts = predicate.conjuncts()

    if isinstance(node, Selection):
        # Merge and keep pushing through the inner selection's child.
        merged = conj(conjuncts + node.predicate.conjuncts())
        return push_selection_into(merged, node.child, db)

    if isinstance(node, (Union, Difference, Intersection)):
        left_schema = node.children()[0].output_schema(db)
        right_schema = node.children()[1].output_schema(db)
        left_pred = predicate
        right_pred = _rename_predicate_columns(
            predicate,
            dict(zip(left_schema.attribute_names, right_schema.attribute_names)),
        )
        left = push_selection_into(left_pred, node.children()[0], db)
        right = push_selection_into(right_pred, node.children()[1], db)
        return node.with_children([left, right])

    if isinstance(node, Projection):
        mapping = {out: col for col, out in zip(node.columns, node.output_names())}
        if all(
            name in mapping
            for conjunct in conjuncts
            for name in conjunct.referenced_columns()
        ):
            renamed = _rename_predicate_columns(predicate, mapping)
            pushed = push_selection_into(renamed, node.child, db)
            return node.with_children([pushed])
        return Selection(node, predicate)

    if isinstance(node, Rename):
        child_schema = node.child.output_schema(db)
        out_schema = node.output_schema(db)
        mapping = dict(zip(out_schema.attribute_names, child_schema.attribute_names))
        renamed = _rename_predicate_columns(predicate, mapping)
        pushed = push_selection_into(renamed, node.child, db)
        return node.with_children([pushed])

    if isinstance(node, (Join, NaturalJoin)):
        return _push_into_join(conjuncts, node, db)

    if isinstance(node, GroupBy):
        group_attrs = set(node.group_by)
        pushable = [c for c in conjuncts if c.referenced_columns() <= group_attrs]
        remaining = [c for c in conjuncts if c not in pushable]
        result: RAExpression = node
        if pushable:
            pushed_child = push_selection_into(conj(pushable), node.child, db)
            result = node.with_children([pushed_child])
        if remaining:
            result = Selection(result, conj(remaining))
        return result

    # Base relation or anything else: stop here.
    return Selection(node, predicate)


def _push_into_join(
    conjuncts: list[Predicate], node: Join | NaturalJoin, db: DatabaseSchema
) -> RAExpression:
    left, right = node.children()
    left_schema = left.output_schema(db)
    right_schema = right.output_schema(db)
    left_names = set(left_schema.attribute_names)
    right_names = set(right_schema.attribute_names)

    left_conjuncts: list[Predicate] = []
    right_conjuncts: list[Predicate] = []
    kept: list[Predicate] = []
    for conjunct in conjuncts:
        referenced = conjunct.referenced_columns()
        if referenced <= left_names:
            left_conjuncts.append(conjunct)
        elif referenced <= right_names:
            right_conjuncts.append(conjunct)
        else:
            kept.append(conjunct)

    # Equality propagation: col = const can cross the join along equi-join pairs.
    for pair_left, pair_right in equijoin_pairs(node, left_schema, right_schema, db):
        for conjunct in conjuncts:
            constant = constant_equality(conjunct)
            if constant is None:
                continue
            column, literal = constant
            if column == pair_left:
                right_conjuncts.append(Comparison("=", ColumnRef(pair_right), Literal(literal)))
            elif column == pair_right:
                left_conjuncts.append(Comparison("=", ColumnRef(pair_left), Literal(literal)))

    new_left = push_selection_into(conj(left_conjuncts), left, db) if left_conjuncts else left
    new_right = push_selection_into(conj(right_conjuncts), right, db) if right_conjuncts else right
    rebuilt = node.with_children([new_left, new_right])
    if kept:
        return Selection(rebuilt, conj(kept))
    return rebuilt


def equijoin_pairs(
    node: Join | NaturalJoin, left_schema, right_schema, db: DatabaseSchema
) -> list[tuple[str, str]]:
    """The join's ``left column = right column`` pairs, left column first."""
    if isinstance(node, NaturalJoin):
        return [(name, name) for name in node.shared_attributes(db)]
    pairs: list[tuple[str, str]] = []
    for conjunct in node.effective_predicate().conjuncts():
        if (
            isinstance(conjunct, Comparison)
            and conjunct.op == "="
            and isinstance(conjunct.left, ColumnRef)
            and isinstance(conjunct.right, ColumnRef)
        ):
            a, b = conjunct.left.name, conjunct.right.name
            if left_schema.has_attribute(a) and right_schema.has_attribute(b):
                pairs.append((a, b))
            elif left_schema.has_attribute(b) and right_schema.has_attribute(a):
                pairs.append((b, a))
    return pairs


def _rename_predicate_columns(predicate: Predicate, mapping: dict[str, str]) -> Predicate:
    """Rewrite column references in ``predicate`` according to ``mapping``."""
    from repro.ra.predicates import And, Not, Or

    if isinstance(predicate, Comparison):
        return Comparison(
            predicate.op,
            _rename_scalar(predicate.left, mapping),
            _rename_scalar(predicate.right, mapping),
        )
    if isinstance(predicate, And):
        return And(tuple(_rename_predicate_columns(p, mapping) for p in predicate.operands))
    if isinstance(predicate, Or):
        return Or(tuple(_rename_predicate_columns(p, mapping) for p in predicate.operands))
    if isinstance(predicate, Not):
        return Not(_rename_predicate_columns(predicate.operand, mapping))
    return predicate


def _rename_scalar(scalar, mapping: dict[str, str]):
    from repro.ra.predicates import Arithmetic

    if isinstance(scalar, ColumnRef):
        return ColumnRef(mapping.get(scalar.name, scalar.name))
    if isinstance(scalar, Arithmetic):
        return Arithmetic(
            scalar.op, _rename_scalar(scalar.left, mapping), _rename_scalar(scalar.right, mapping)
        )
    return scalar


# ---------------------------------------------------------------------------
# Parameterization (§5.3.1)
# ---------------------------------------------------------------------------


@dataclass
class ParameterizedQuery:
    """A query with HAVING constants replaced by parameters, plus their originals."""

    query: RAExpression
    original_values: dict[str, Any]


def expression_parameters(expression: RAExpression) -> set[str]:
    """Names of every ``@param`` referenced by the expression's predicates."""
    names: set[str] = set()
    for node in expression.walk():
        predicate = getattr(node, "predicate", None)
        if predicate is not None:
            names |= predicate.referenced_params()
    return names


def parameterize_query(
    expression: RAExpression,
    db: DatabaseSchema,
    *,
    shared_names: dict[Any, str] | None = None,
    reserved_names: set[str] | None = None,
) -> ParameterizedQuery:
    """Replace constants in aggregate-comparing selections by parameters.

    ``shared_names`` lets the caller parameterize two queries consistently:
    the same constant value maps to the same parameter name in both, which is
    what Example 6 does with ``@numCS``.  Generated names never shadow a
    parameter the query (or ``reserved_names`` — e.g. the sibling query of a
    grading pair, or the caller's binding) already uses: a collision would
    silently rebind an existing ``@p1`` to the freed constant's value.
    """
    names = shared_names if shared_names is not None else {}
    original: dict[str, Any] = {}
    reserved = set(reserved_names or ())
    reserved |= expression_parameters(expression)
    reserved |= set(names.values())

    def aggregate_aliases(node: RAExpression) -> set[str]:
        aliases: set[str] = set()
        for descendant in node.walk():
            if isinstance(descendant, GroupBy):
                aliases |= {spec.alias for spec in descendant.aggregates}
        return aliases

    def rewrite(node: RAExpression) -> RAExpression:
        children = [rewrite(child) for child in node.children()]
        rebuilt = node.with_children(children) if children else node
        if isinstance(rebuilt, Selection):
            aliases = aggregate_aliases(rebuilt.child)
            if aliases:
                new_predicate = _parameterize_predicate(
                    rebuilt.predicate, aliases, names, original, reserved
                )
                return Selection(rebuilt.child, new_predicate)
        return rebuilt

    rewritten = rewrite(expression)
    return ParameterizedQuery(rewritten, original)


def _parameterize_predicate(
    predicate: Predicate,
    aggregate_aliases: set[str],
    names: dict[Any, str],
    original: dict[str, Any],
    reserved: set[str],
) -> Predicate:
    from repro.ra.predicates import And, Not, Or

    if isinstance(predicate, Comparison):
        touches_aggregate = any(
            isinstance(side, ColumnRef) and side.name in aggregate_aliases
            for side in (predicate.left, predicate.right)
        )
        if not touches_aggregate:
            return predicate
        left, right = predicate.left, predicate.right
        if isinstance(left, Literal):
            left = _literal_to_param(left, names, original, reserved)
        if isinstance(right, Literal):
            right = _literal_to_param(right, names, original, reserved)
        return Comparison(predicate.op, left, right)
    if isinstance(predicate, And):
        return And(
            tuple(
                _parameterize_predicate(p, aggregate_aliases, names, original, reserved)
                for p in predicate.operands
            )
        )
    if isinstance(predicate, Or):
        return Or(
            tuple(
                _parameterize_predicate(p, aggregate_aliases, names, original, reserved)
                for p in predicate.operands
            )
        )
    if isinstance(predicate, Not):
        return Not(
            _parameterize_predicate(
                predicate.operand, aggregate_aliases, names, original, reserved
            )
        )
    return predicate


def _literal_to_param(
    literal: Literal, names: dict[Any, str], original: dict[str, Any], reserved: set[str]
) -> Param:
    value = literal.value
    if value not in names:
        index = len(names)
        name = f"p{index}"
        while name in reserved:
            index += 1
            name = f"p{index}"
        names[value] = name
        reserved.add(name)
    name = names[value]
    original[name] = value
    return Param(name)
