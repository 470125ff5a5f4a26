"""Compile relational algebra expressions to executable SQLite SQL.

RATest's original implementation translated RA queries into SQL CTEs and ran
them on SQL Server.  This module is that translation for SQLite: ``to_sql``
produces a ``WITH step_1 AS (...), ... SELECT ... FROM step_n`` statement —
one CTE per operator, mirroring the paper's rewriting rules — that executes
verbatim on a database loaded via
:func:`repro.engine.backends.sqlite.connect_instance` and returns exactly
the rows the engine computes.

The scalar/predicate rendering and type rules live in :mod:`repro.sqltext`
— one implementation shared with the plan-level compiler of the SQLite
oracle (:mod:`repro.engine.backends.sqlite`), so the two SQL paths cannot
drift.  Neither path grades anything: grading runs on the engine, and this
text is for reading, exporting and differential tests.
Dialect-correctness notes:

* set semantics: base-relation scans and projections are ``SELECT
  DISTINCT``; ``UNION``/``EXCEPT``/``INTERSECT`` carry explicit,
  schema-ordered column lists in both operands, so positional alignment
  never depends on a ``*`` expansion;
* identifiers are quoted whenever they are not plain unreserved words —
  prefix-renamed attributes like ``s.name`` become ``"s.name"``;
* ``NULL`` literals render as ``NULL`` (never as an empty string or the
  text ``None``), and comparisons wrap in ``COALESCE(..., 0)`` so ``NOT``
  over a NULL comparison behaves like the engine's two-valued logic;
* equi-join conjuncts that the engine hoists into hash-join keys compare
  with the null-safe ``IS`` operator, matching dictionary-key equality;
* division renders as ``repro_div(a, b)`` (registered by
  :func:`~repro.engine.backends.sqlite.prepare_connection`) to get Python's
  true division and division-by-zero error;
* ``@name`` query parameters are kept verbatim — ``@name`` is native SQLite
  parameter syntax, bindable as ``{"name": value}``.

``predicate_to_sql`` remains the compact human-readable rendering used in
reports; the executable form of a predicate appears only inside ``to_sql``
output.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.catalog.schema import DatabaseSchema, RelationSchema
from repro.catalog.types import DataType
from repro.sqltext import (
    COMPARISON_SQL,
    BackendUnsupportedError,
    Resolver,
    comparable_in_sql,
    quote_identifier,
    render_predicate,
    sql_literal,
)
from repro.ra.analysis import split_equijoin_conjuncts
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

@dataclass
class _CTEBuilder:
    db: DatabaseSchema
    steps: list[tuple[str, str]] = field(default_factory=list)
    scans: dict[str, str] = field(default_factory=dict)
    counter: int = 0

    def add(self, sql: str) -> str:
        self.counter += 1
        name = f"step_{self.counter}"
        self.steps.append((name, sql))
        return name


def to_sql(expression: RAExpression, db: DatabaseSchema) -> str:
    """Executable SQLite rendering of an RA expression as a chain of CTEs.

    Raises :class:`~repro.engine.backends.sqlite.BackendUnsupportedError`
    for the few constructs SQLite cannot express faithfully (non-finite
    float literals, non-``+`` string arithmetic).
    """
    builder = _CTEBuilder(db)
    final, schema = _emit(expression, builder)
    last_name, last_sql = builder.steps[-1]
    if last_name == final and len(builder.steps) == 1:
        return last_sql
    ctes = ",\n".join(f"{name} AS (\n  {sql}\n)" for name, sql in builder.steps)
    columns = ", ".join(quote_identifier(a.name) for a in schema.attributes)
    return f"WITH {ctes}\nSELECT {columns} FROM {final}"


def predicate_to_sql(predicate: Predicate) -> str:
    """Compact SQL-style rendering of a predicate (for reports and docs)."""
    return _display_predicate(predicate)


# ---------------------------------------------------------------------------
# Operator emission
# ---------------------------------------------------------------------------


def _column_list(schema: RelationSchema) -> str:
    return ", ".join(quote_identifier(a.name) for a in schema.attributes)


def _schema_resolver(schema: RelationSchema, qualifier: str | None = None) -> Resolver:
    prefix = f"{qualifier}." if qualifier else ""

    def resolve(name: str) -> tuple[str, DataType | None]:
        attr = schema.attribute(name)  # raises UnknownAttributeError if absent
        return f"{prefix}{quote_identifier(attr.name, force=bool(qualifier))}", attr.dtype

    return resolve


def _two_sided_resolver(
    left: RelationSchema, right: RelationSchema
) -> Resolver:
    resolve_left = _schema_resolver(left, "L")
    resolve_right = _schema_resolver(right, "R")

    def resolve(name: str) -> tuple[str, DataType | None]:
        if left.has_attribute(name):
            return resolve_left(name)
        return resolve_right(name)

    return resolve


def _param_sql(param: Param) -> str:
    """``@name`` is native SQLite parameter syntax; keep it verbatim."""
    return f"@{param.name}"


def _exec_predicate(predicate: Predicate, resolve: Resolver) -> str:
    """Executable (0/1-valued) rendering — the shared dialect rules."""
    return render_predicate(predicate, resolve, _param_sql)


def _emit(node: RAExpression, builder: _CTEBuilder) -> tuple[str, RelationSchema]:
    if isinstance(node, RelationRef):
        return _emit_scan(node, builder)
    if isinstance(node, Selection):
        child, schema = _emit(node.child, builder)
        condition = _exec_predicate(node.predicate, _schema_resolver(schema))
        sql = f"SELECT {_column_list(schema)} FROM {child} WHERE {condition}"
        return builder.add(sql), schema
    if isinstance(node, Projection):
        child, schema = _emit(node.child, builder)
        output = node.output_schema(builder.db)
        columns = ", ".join(
            _aliased(quote_identifier(column, force="." in column), alias)
            for column, alias in zip(node.columns, node.output_names())
        )
        return builder.add(f"SELECT DISTINCT {columns} FROM {child}"), output
    if isinstance(node, Rename):
        child, schema = _emit(node.child, builder)
        output = node.output_schema(builder.db)
        columns = ", ".join(
            _aliased(quote_identifier(old.name, force="." in old.name), new.name)
            for old, new in zip(schema.attributes, output.attributes)
        )
        return builder.add(f"SELECT {columns} FROM {child}"), output
    if isinstance(node, Join):
        return _emit_theta_join(node, builder)
    if isinstance(node, NaturalJoin):
        return _emit_natural_join(node, builder)
    if isinstance(node, (Union, Difference, Intersection)):
        operator = {Union: "UNION", Difference: "EXCEPT", Intersection: "INTERSECT"}[
            type(node)
        ]
        left, left_schema = _emit(node.left, builder)
        right, right_schema = _emit(node.right, builder)
        # Explicit, schema-ordered column lists on both operands: compound
        # selects match columns by *position*, so the operand ordering must
        # be pinned here, not inherited from whatever the operand CTEs emit.
        sql = (
            f"SELECT {_column_list(left_schema)} FROM {left}"
            f" {operator} "
            f"SELECT {_column_list(right_schema)} FROM {right}"
        )
        return builder.add(sql), node.output_schema(builder.db)
    if isinstance(node, GroupBy):
        return _emit_group_by(node, builder)
    raise TypeError(f"cannot render node of type {type(node).__name__}")  # pragma: no cover


def _aliased(source_sql: str, alias: str) -> str:
    quoted = quote_identifier(alias)
    if source_sql == quoted:
        return source_sql
    return f"{source_sql} AS {quoted}"


def _emit_scan(node: RelationRef, builder: _CTEBuilder) -> tuple[str, RelationSchema]:
    schema = builder.db.relation(node.name)
    cached = builder.scans.get(node.name)
    if cached is None:
        # DISTINCT: the storage layer permits duplicate value rows (distinct
        # tids); the engine's scan deduplicates, so the SQL scan must too.
        sql = (
            f"SELECT DISTINCT {_column_list(schema)} "
            f"FROM {quote_identifier(node.name)}"
        )
        cached = builder.scans[node.name] = builder.add(sql)
    return cached, schema


def _emit_theta_join(node: Join, builder: _CTEBuilder) -> tuple[str, RelationSchema]:
    left, left_schema = _emit(node.left, builder)
    right, right_schema = _emit(node.right, builder)
    combined = node.output_schema(builder.db)
    pairs, residual = split_equijoin_conjuncts(
        node.effective_predicate(), left_schema, right_schema
    )
    resolve = _two_sided_resolver(left_schema, right_schema)
    columns = ", ".join(
        [
            _aliased(f"L.{quote_identifier(a.name, force=True)}", a.name)
            for a in left_schema.attributes
        ]
        + [
            _aliased(f"R.{quote_identifier(a.name, force=True)}", a.name)
            for a in right_schema.attributes
        ]
    )
    where = " AND ".join(
        _exec_predicate(p, resolve)
        for p in residual
        if not isinstance(p, TruePredicate)
    )
    for a, b in pairs:
        if not comparable_in_sql(
            left_schema.attribute(a).dtype, right_schema.attribute(b).dtype
        ):
            raise BackendUnsupportedError(
                "equi-join key types diverge from dict-key equality in SQLite"
            )
    if pairs:
        # IS, not =: the engine hoists these conjuncts into hash-join keys,
        # where NULL keys match NULL keys.
        condition = " AND ".join(
            f"L.{quote_identifier(a, force=True)} IS R.{quote_identifier(b, force=True)}"
            for a, b in pairs
        )
        sql = f"SELECT {columns} FROM {left} AS L JOIN {right} AS R ON {condition}"
        if where:
            sql += f" WHERE {where}"
    else:
        sql = f"SELECT {columns} FROM {left} AS L CROSS JOIN {right} AS R"
        if where:
            sql += f" WHERE {where}"
    return builder.add(sql), combined


def _emit_natural_join(node: NaturalJoin, builder: _CTEBuilder) -> tuple[str, RelationSchema]:
    left, left_schema = _emit(node.left, builder)
    right, right_schema = _emit(node.right, builder)
    combined = node.output_schema(builder.db)
    shared = node.shared_attributes(builder.db)
    shared_set = set(shared)
    columns = ", ".join(
        [
            _aliased(f"L.{quote_identifier(a.name, force=True)}", a.name)
            for a in left_schema.attributes
        ]
        + [
            _aliased(f"R.{quote_identifier(a.name, force=True)}", a.name)
            for a in right_schema.attributes
            if a.name not in shared_set
        ]
    )
    for name in shared:
        if not comparable_in_sql(
            left_schema.attribute(name).dtype, right_schema.attribute(name).dtype
        ):
            raise BackendUnsupportedError(
                "natural-join key types diverge from dict-key equality in SQLite"
            )
    if shared:
        condition = " AND ".join(
            f"L.{quote_identifier(name, force=True)} IS R.{quote_identifier(name, force=True)}"
            for name in shared
        )
        sql = f"SELECT {columns} FROM {left} AS L JOIN {right} AS R ON {condition}"
    else:
        sql = f"SELECT {columns} FROM {left} AS L CROSS JOIN {right} AS R"
    return builder.add(sql), combined


def _emit_group_by(node: GroupBy, builder: _CTEBuilder) -> tuple[str, RelationSchema]:
    child, schema = _emit(node.child, builder)
    output = node.output_schema(builder.db)
    group = ", ".join(quote_identifier(name, force="." in name) for name in node.group_by)
    aggregates = ", ".join(
        f"{spec.func.value.upper()}"
        f"({quote_identifier(spec.attribute, force='.' in spec.attribute) if spec.attribute else '*'})"
        f" AS {quote_identifier(spec.alias)}"
        for spec in node.aggregates
    )
    select_list = ", ".join(part for part in (group, aggregates) if part)
    sql = f"SELECT {select_list} FROM {child}"
    if node.group_by:
        sql += f" GROUP BY {group}"
    else:
        # Constant-expression grouping: one group when input is non-empty,
        # *no* output row when it is empty — matching the engine, unlike
        # SQL's plain ungrouped aggregate.
        sql += " GROUP BY 1 + 0"
    return builder.add(sql), output


# ---------------------------------------------------------------------------
# Display rendering (reports; not fed to a database)
# ---------------------------------------------------------------------------


def _display_predicate(predicate: Predicate) -> str:
    if isinstance(predicate, TruePredicate):
        return "TRUE"
    if isinstance(predicate, Comparison):
        op = COMPARISON_SQL[predicate.op]
        return f"{_display_scalar(predicate.left)} {op} {_display_scalar(predicate.right)}"
    if isinstance(predicate, And):
        return " AND ".join(f"({_display_predicate(p)})" for p in predicate.operands)
    if isinstance(predicate, Or):
        return " OR ".join(f"({_display_predicate(p)})" for p in predicate.operands)
    if isinstance(predicate, Not):
        return f"NOT ({_display_predicate(predicate.operand)})"
    raise TypeError(f"cannot render predicate of type {type(predicate).__name__}")


def _display_scalar(scalar: Scalar) -> str:
    if isinstance(scalar, ColumnRef):
        return quote_identifier(scalar.name)
    if isinstance(scalar, Literal):
        try:
            return sql_literal(scalar.value)
        except BackendUnsupportedError:
            # Display must never refuse: exotic values (nan, huge ints) are
            # only a problem for the executable path.
            return str(scalar.value)
    if isinstance(scalar, Param):
        return f"@{scalar.name}"
    if isinstance(scalar, Arithmetic):
        return f"({_display_scalar(scalar.left)} {scalar.op} {_display_scalar(scalar.right)})"
    raise TypeError(f"cannot render scalar of type {type(scalar).__name__}")
