"""Scalar and predicate expressions used by selections, joins and HAVING.

Expressions are evaluated against a single value tuple whose layout is given
by a :class:`~repro.catalog.schema.RelationSchema`.  Parameters (the ``@name``
placeholders of parameterized queries, §5.3.1 of the paper) are resolved from
a parameter dictionary at evaluation time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.catalog.schema import RelationSchema
from repro.errors import QueryEvaluationError, UnknownAttributeError

ParamValues = Mapping[str, Any]

#: Comparison operators supported in predicates, in their textual form.
COMPARISON_OPS: dict[str, Callable[[Any, Any], bool]] = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}

ARITHMETIC_OPS: dict[str, Callable[[Any, Any], Any]] = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
}


class Scalar:
    """Base class of scalar expressions (things that evaluate to a value)."""

    def evaluate(self, schema: RelationSchema, row: Sequence[Any], params: ParamValues) -> Any:
        raise NotImplementedError

    def referenced_columns(self) -> set[str]:
        return set()

    def referenced_params(self) -> set[str]:
        return set()

    def substitute_params(self, bindings: ParamValues) -> "Scalar":
        """Return a copy with the given parameters replaced by constants."""
        return self


class Predicate:
    """Base class of Boolean predicate expressions."""

    def evaluate(self, schema: RelationSchema, row: Sequence[Any], params: ParamValues) -> bool:
        raise NotImplementedError

    def referenced_columns(self) -> set[str]:
        return set()

    def referenced_params(self) -> set[str]:
        return set()

    def substitute_params(self, bindings: ParamValues) -> "Predicate":
        return self

    def conjuncts(self) -> list["Predicate"]:
        """Flatten a top-level conjunction into its conjuncts."""
        return [self]

    # Convenience combinators so callers can write ``p & q``, ``p | q``, ``~p``.
    def __and__(self, other: "Predicate") -> "Predicate":
        return And((self, other))

    def __or__(self, other: "Predicate") -> "Predicate":
        return Or((self, other))

    def __invert__(self) -> "Predicate":
        return Not(self)


# ---------------------------------------------------------------------------
# Scalars
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ColumnRef(Scalar):
    """A reference to an attribute of the input tuple, by name."""

    name: str

    def evaluate(self, schema: RelationSchema, row: Sequence[Any], params: ParamValues) -> Any:
        try:
            return row[schema.index_of(self.name)]
        except UnknownAttributeError as exc:
            raise QueryEvaluationError(str(exc)) from exc

    def referenced_columns(self) -> set[str]:
        return {self.name}

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Literal(Scalar):
    """A constant value."""

    value: Any

    def evaluate(self, schema: RelationSchema, row: Sequence[Any], params: ParamValues) -> Any:
        return self.value

    def __str__(self) -> str:
        if isinstance(self.value, str):
            return f"'{self.value}'"
        return str(self.value)


@dataclass(frozen=True)
class Param(Scalar):
    """A named query parameter (``@name``), bound at evaluation time."""

    name: str

    def evaluate(self, schema: RelationSchema, row: Sequence[Any], params: ParamValues) -> Any:
        if self.name not in params:
            raise QueryEvaluationError(f"unbound query parameter @{self.name}")
        return params[self.name]

    def referenced_params(self) -> set[str]:
        return {self.name}

    def substitute_params(self, bindings: ParamValues) -> Scalar:
        if self.name in bindings:
            return Literal(bindings[self.name])
        return self

    def __str__(self) -> str:
        return f"@{self.name}"


@dataclass(frozen=True)
class Arithmetic(Scalar):
    """A binary arithmetic expression over scalars."""

    op: str
    left: Scalar
    right: Scalar

    def __post_init__(self) -> None:
        if self.op not in ARITHMETIC_OPS:
            raise QueryEvaluationError(f"unknown arithmetic operator {self.op!r}")

    def evaluate(self, schema: RelationSchema, row: Sequence[Any], params: ParamValues) -> Any:
        left = self.left.evaluate(schema, row, params)
        right = self.right.evaluate(schema, row, params)
        if left is None or right is None:
            return None
        try:
            return ARITHMETIC_OPS[self.op](left, right)
        except ZeroDivisionError as exc:
            raise QueryEvaluationError("division by zero in scalar expression") from exc

    def referenced_columns(self) -> set[str]:
        return self.left.referenced_columns() | self.right.referenced_columns()

    def referenced_params(self) -> set[str]:
        return self.left.referenced_params() | self.right.referenced_params()

    def substitute_params(self, bindings: ParamValues) -> Scalar:
        return Arithmetic(
            self.op, self.left.substitute_params(bindings), self.right.substitute_params(bindings)
        )

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


# ---------------------------------------------------------------------------
# Predicates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Comparison(Predicate):
    """``left op right`` where op is one of =, !=, <, <=, >, >=."""

    op: str
    left: Scalar
    right: Scalar

    def __post_init__(self) -> None:
        if self.op not in COMPARISON_OPS:
            raise QueryEvaluationError(f"unknown comparison operator {self.op!r}")

    def evaluate(self, schema: RelationSchema, row: Sequence[Any], params: ParamValues) -> bool:
        left = self.left.evaluate(schema, row, params)
        right = self.right.evaluate(schema, row, params)
        if left is None or right is None:
            # SQL-style: comparisons with NULL are not satisfied.
            return False
        return COMPARISON_OPS[self.op](left, right)

    def referenced_columns(self) -> set[str]:
        return self.left.referenced_columns() | self.right.referenced_columns()

    def referenced_params(self) -> set[str]:
        return self.left.referenced_params() | self.right.referenced_params()

    def substitute_params(self, bindings: ParamValues) -> Predicate:
        return Comparison(
            self.op, self.left.substitute_params(bindings), self.right.substitute_params(bindings)
        )

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


@dataclass(frozen=True)
class And(Predicate):
    """Conjunction of predicates."""

    operands: tuple[Predicate, ...]

    def __post_init__(self) -> None:
        if not self.operands:
            raise QueryEvaluationError("AND requires at least one operand")

    def evaluate(self, schema: RelationSchema, row: Sequence[Any], params: ParamValues) -> bool:
        return all(p.evaluate(schema, row, params) for p in self.operands)

    def referenced_columns(self) -> set[str]:
        return set().union(*(p.referenced_columns() for p in self.operands))

    def referenced_params(self) -> set[str]:
        return set().union(*(p.referenced_params() for p in self.operands))

    def substitute_params(self, bindings: ParamValues) -> Predicate:
        return And(tuple(p.substitute_params(bindings) for p in self.operands))

    def conjuncts(self) -> list[Predicate]:
        result: list[Predicate] = []
        for operand in self.operands:
            result.extend(operand.conjuncts())
        return result

    def __str__(self) -> str:
        return " AND ".join(f"({p})" for p in self.operands)


@dataclass(frozen=True)
class Or(Predicate):
    """Disjunction of predicates."""

    operands: tuple[Predicate, ...]

    def __post_init__(self) -> None:
        if not self.operands:
            raise QueryEvaluationError("OR requires at least one operand")

    def evaluate(self, schema: RelationSchema, row: Sequence[Any], params: ParamValues) -> bool:
        return any(p.evaluate(schema, row, params) for p in self.operands)

    def referenced_columns(self) -> set[str]:
        return set().union(*(p.referenced_columns() for p in self.operands))

    def referenced_params(self) -> set[str]:
        return set().union(*(p.referenced_params() for p in self.operands))

    def substitute_params(self, bindings: ParamValues) -> Predicate:
        return Or(tuple(p.substitute_params(bindings) for p in self.operands))

    def __str__(self) -> str:
        return " OR ".join(f"({p})" for p in self.operands)


@dataclass(frozen=True)
class Not(Predicate):
    """Negation of a predicate."""

    operand: Predicate

    def evaluate(self, schema: RelationSchema, row: Sequence[Any], params: ParamValues) -> bool:
        return not self.operand.evaluate(schema, row, params)

    def referenced_columns(self) -> set[str]:
        return self.operand.referenced_columns()

    def referenced_params(self) -> set[str]:
        return self.operand.referenced_params()

    def substitute_params(self, bindings: ParamValues) -> Predicate:
        return Not(self.operand.substitute_params(bindings))

    def __str__(self) -> str:
        return f"NOT ({self.operand})"


@dataclass(frozen=True)
class TruePredicate(Predicate):
    """The always-true predicate (used for cross products)."""

    def evaluate(self, schema: RelationSchema, row: Sequence[Any], params: ParamValues) -> bool:
        return True

    def __str__(self) -> str:
        return "TRUE"


# ---------------------------------------------------------------------------
# Convenience constructors
# ---------------------------------------------------------------------------


def col(name: str) -> ColumnRef:
    """Shorthand for :class:`ColumnRef`."""
    return ColumnRef(name)


def lit(value: Any) -> Literal:
    """Shorthand for :class:`Literal`."""
    return Literal(value)


def param(name: str) -> Param:
    """Shorthand for :class:`Param`."""
    return Param(name)


def _as_scalar(value: Any) -> Scalar:
    if isinstance(value, Scalar):
        return value
    if isinstance(value, str):
        return ColumnRef(value)
    return Literal(value)


def eq(left: Any, right: Any) -> Comparison:
    """``left = right`` where bare strings are column names, other values literals."""
    return Comparison("=", _as_scalar(left), _as_scalar(right))


def neq(left: Any, right: Any) -> Comparison:
    return Comparison("!=", _as_scalar(left), _as_scalar(right))


def lt(left: Any, right: Any) -> Comparison:
    return Comparison("<", _as_scalar(left), _as_scalar(right))


def le(left: Any, right: Any) -> Comparison:
    return Comparison("<=", _as_scalar(left), _as_scalar(right))


def gt(left: Any, right: Any) -> Comparison:
    return Comparison(">", _as_scalar(left), _as_scalar(right))


def ge(left: Any, right: Any) -> Comparison:
    return Comparison(">=", _as_scalar(left), _as_scalar(right))


def conj(predicates: Iterable[Predicate]) -> Predicate:
    """Conjunction of an iterable of predicates (TRUE when empty)."""
    preds = tuple(predicates)
    if not preds:
        return TruePredicate()
    if len(preds) == 1:
        return preds[0]
    return And(preds)


def disj(predicates: Iterable[Predicate]) -> Predicate:
    """Disjunction of a non-empty iterable of predicates."""
    preds = tuple(predicates)
    if len(preds) == 1:
        return preds[0]
    return Or(preds)


def constant_equality(predicate: Predicate) -> tuple[str, Any] | None:
    """``(column, constant)`` for ``column = literal`` or ``literal = column``."""
    if not isinstance(predicate, Comparison) or predicate.op != "=":
        return None
    if isinstance(predicate.left, ColumnRef) and isinstance(predicate.right, Literal):
        return predicate.left.name, predicate.right.value
    if isinstance(predicate.right, ColumnRef) and isinstance(predicate.left, Literal):
        return predicate.right.name, predicate.left.value
    return None


def equals_constant(attribute: str, value: Any) -> Comparison:
    """``attribute = value`` with ``value`` taken literally even if a string."""
    return Comparison("=", ColumnRef(attribute), Literal(value))
