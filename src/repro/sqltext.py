"""SQLite-dialect SQL text rendering shared by both RA-to-SQL compilers.

Two compilers in this codebase emit executable SQLite SQL — the AST-level
writer (:mod:`repro.parser.sql_writer`) and the plan-level compiler of the
SQLite oracle (:mod:`repro.engine.backends.sqlite`).  Their scalar/predicate rendering and
type rules must never drift apart (the differential fuzz suite exists to
catch exactly that), so the single implementation lives here, in a module
that depends only on the catalog and predicate layers.

The semantics encoded here mirror the in-process engine, not idiomatic SQL:

* comparisons wrap in ``COALESCE(..., 0)`` so a comparison against ``NULL``
  is *false* (and ``NOT`` of it *true*) — the engine's two-valued logic;
* strings only compare with strings (:func:`comparable_in_sql`): SQLite's
  comparison affinity and cross-type ordering would otherwise answer
  questions the Python operators raise ``TypeError`` for;
* division renders as the ``repro_div`` user function (Python true division,
  raises on zero); string ``+`` becomes ``||`` only when both sides are
  strings; boolean arithmetic is refused;
* anything that cannot be expressed faithfully raises
  :class:`BackendUnsupportedError`: the SQL is refused rather than allowed
  to answer differently from the engine.
"""

from __future__ import annotations

import math
from typing import Any, Callable

from repro.catalog.types import DataType
from repro.errors import ReproError
from repro.ra.predicates import (
    And,
    Arithmetic,
    Comparison,
    ColumnRef,
    Literal,
    Not,
    Or,
    Param,
    Predicate,
    Scalar,
    TruePredicate,
)

#: Resolves a column name to (SQL text, declared type or None).
Resolver = Callable[[str], "tuple[str, DataType | None]"]
#: Renders a query parameter reference as SQL text.
ParamRenderer = Callable[[Param], str]
#: Records that a parameter is used where a value of the given type is
#: expected (so the oracle can refuse type-incompatible bindings at run time).
Expectation = Callable[[str, DataType], None]


class BackendUnsupportedError(ReproError):
    """The construct (or its data) cannot be expressed faithfully in SQLite.

    The SQLite oracle raises it instead of returning rows that might differ
    from the engine's, so it signals "no answer", never a wrong one.
    """


# ---------------------------------------------------------------------------
# Identifiers and literals
# ---------------------------------------------------------------------------

#: SQLite reserved words that must be quoted when used as identifiers.  The
#: list is the subset of SQLite's keyword table likely to collide with
#: relation/attribute names; quoting is also forced for any identifier that
#: is not a plain ``[A-Za-z_][A-Za-z0-9_]*`` word.
SQLITE_RESERVED = frozenset(
    """
    abort action add after all alter analyze and as asc attach autoincrement
    before begin between by cascade case cast check collate column commit
    conflict constraint create cross current current_date current_time
    current_timestamp database default deferrable deferred delete desc detach
    distinct do drop each else end escape except exclude exclusive exists
    explain fail filter first following for foreign from full glob group
    groups having if ignore immediate in index indexed initially inner insert
    instead intersect into is isnull join key last left like limit match
    natural no not nothing notnull null nulls of offset on or order others
    outer over partition plan pragma preceding primary query raise range
    recursive references regexp reindex release rename replace restrict right
    rollback row rows savepoint select set table temp temporary then ties to
    transaction trigger unbounded union unique update using vacuum values
    view virtual when where window with without
    """.split()
)


def quote_identifier(name: str, *, force: bool = False) -> str:
    """Quote ``name`` for SQLite when needed (always correct, rarely noisy)."""
    plain = (
        name.isidentifier()
        and name.isascii()
        and name.lower() not in SQLITE_RESERVED
    )
    if plain and not force:
        return name
    return '"' + name.replace('"', '""') + '"'


def sql_literal(value: Any) -> str:
    """Render a Python constant as a SQLite literal (``None`` is ``NULL``)."""
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        if not -(2**63) <= value < 2**63:
            raise BackendUnsupportedError(f"integer literal {value} exceeds 64 bits")
        return str(value)
    if isinstance(value, float):
        if math.isnan(value) or math.isinf(value):
            raise BackendUnsupportedError(f"non-finite float literal {value!r}")
        return repr(value)
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    raise BackendUnsupportedError(f"cannot render literal {value!r} as SQL")


def literal_type(value: Any) -> DataType | None:
    """Best-effort :class:`DataType` of a constant (``None`` when unknown)."""
    if isinstance(value, bool):
        return DataType.BOOL
    if isinstance(value, int):
        return DataType.INT
    if isinstance(value, float):
        return DataType.FLOAT
    if isinstance(value, str):
        return DataType.STRING
    return None


def comparable_in_sql(left: DataType | None, right: DataType | None) -> bool:
    """Whether a comparison of these types means the same thing in SQLite.

    Unknown types (parameters, NULL literals) pass.  Strings only compare
    with strings: SQLite's comparison affinity can coerce a numeric operand
    to text against a TEXT column (``name = 5`` may match ``'5'``), and its
    cross-type ordering would silently answer ordering comparisons the
    Python operators raise ``TypeError`` for.  INT/FLOAT/BOOL inter-compare
    identically on both sides (Python ``True == 1`` ≡ SQLite ``1 = 1``).
    """
    if left is None or right is None or left is right:
        return True
    non_text = (DataType.INT, DataType.FLOAT, DataType.BOOL)
    return left in non_text and right in non_text


#: RA comparison operators → their SQL spelling (``!=`` renders as ``<>``).
COMPARISON_SQL = {"=": "=", "!=": "<>", "<": "<", "<=": "<=", ">": ">", ">=": ">="}


# ---------------------------------------------------------------------------
# Scalars and predicates
# ---------------------------------------------------------------------------


def render_scalar(
    scalar: Scalar,
    resolve: Resolver,
    param_sql: ParamRenderer,
    expect: Expectation | None = None,
) -> tuple[str, DataType | None]:
    """SQL text plus (best-effort) type of a scalar expression."""
    if isinstance(scalar, Literal):
        return sql_literal(scalar.value), literal_type(scalar.value)
    if isinstance(scalar, ColumnRef):
        try:
            return resolve(scalar.name)
        except BackendUnsupportedError:
            raise
        except Exception as exc:
            raise BackendUnsupportedError(str(exc)) from exc
    if isinstance(scalar, Param):
        return param_sql(scalar), None
    if isinstance(scalar, Arithmetic):
        left, left_type = render_scalar(scalar.left, resolve, param_sql, expect)
        right, right_type = render_scalar(scalar.right, resolve, param_sql, expect)
        # Type guards come first: a string or boolean operand must fall back
        # to the Python operators (which concatenate, raise, or
        # bool-arithmetic as Python defines) for *every* operator, including
        # division.
        if DataType.STRING in (left_type, right_type):
            if scalar.op == "+" and left_type == right_type:
                return f"({left} || {right})", DataType.STRING
            raise BackendUnsupportedError(
                f"string arithmetic {scalar.op!r} has no SQLite equivalent"
            )
        if DataType.BOOL in (left_type, right_type):
            raise BackendUnsupportedError("boolean arithmetic is not compiled")
        if expect is not None:
            # A parameter used in arithmetic must be bound to a number;
            # SQLite's text-to-number coercion would otherwise disagree
            # with Python's TypeError.
            for operand in (scalar.left, scalar.right):
                if isinstance(operand, Param):
                    expect(operand.name, DataType.FLOAT)
        if scalar.op == "/":
            # Python semantics: true division, float result, raises on /0.
            return f"repro_div({left}, {right})", DataType.FLOAT
        result_type = (
            DataType.FLOAT
            if DataType.FLOAT in (left_type, right_type)
            else left_type or right_type
        )
        return f"({left} {scalar.op} {right})", result_type
    raise BackendUnsupportedError(
        f"cannot compile scalar of type {type(scalar).__name__}"
    )


def render_predicate(
    predicate: Predicate,
    resolve: Resolver,
    param_sql: ParamRenderer,
    expect: Expectation | None = None,
) -> str:
    """Render a predicate as a 0/1-valued SQL expression.

    Comparisons coalesce ``NULL`` to false before any ``NOT``/``AND``/``OR``
    combine them, matching the engine's two-valued logic.
    """
    if isinstance(predicate, TruePredicate):
        return "1"
    if isinstance(predicate, Comparison):
        left, left_type = render_scalar(predicate.left, resolve, param_sql, expect)
        right, right_type = render_scalar(predicate.right, resolve, param_sql, expect)
        if not comparable_in_sql(left_type, right_type):
            raise BackendUnsupportedError(
                f"comparison of {left_type.value} with {right_type.value} "
                "does not mean the same thing in SQLite"
            )
        if expect is not None:
            if isinstance(predicate.left, Param) and right_type is not None:
                expect(predicate.left.name, right_type)
            if isinstance(predicate.right, Param) and left_type is not None:
                expect(predicate.right.name, left_type)
        op = COMPARISON_SQL[predicate.op]
        return f"COALESCE({left} {op} {right}, 0)"
    if isinstance(predicate, And):
        return "(" + " AND ".join(
            render_predicate(p, resolve, param_sql, expect) for p in predicate.operands
        ) + ")"
    if isinstance(predicate, Or):
        return "(" + " OR ".join(
            render_predicate(p, resolve, param_sql, expect) for p in predicate.operands
        ) + ")"
    if isinstance(predicate, Not):
        return f"(NOT {render_predicate(predicate.operand, resolve, param_sql, expect)})"
    raise BackendUnsupportedError(
        f"cannot compile predicate of type {type(predicate).__name__}"
    )
