"""SQLite as a differential oracle: logical plans compiled to SQL.

The original RATest translated relational algebra into SQL CTEs and ran them
on SQL Server; this module does the same against SQLite — the one production
engine every Python install ships with — to check the in-process engine.
:meth:`SqliteBackend.rows` compiles a query's pushdown-only plan (no
build-side choice) to a ``WITH`` chain, one CTE per operator,
runs it on a ``:memory:`` copy of the instance (reloaded whenever the
instance's ``data_version`` changes) and returns the row set the engine
must agree with.  Grading never runs here.

Faithfulness to the in-process engine is the whole point, so the generated
SQL mirrors its semantics rather than idiomatic SQL (the scalar/predicate
rules live in :mod:`repro.sqltext`, shared with the AST-level writer in
:mod:`repro.parser.sql_writer`):

* set semantics via ``SELECT DISTINCT`` on scans and projections and plain
  ``UNION``/``EXCEPT``/``INTERSECT`` for the set operators;
* hoisted equi-join keys compare with ``IS`` (null-safe), because the hash
  join's dictionary lookup treats ``NULL`` as equal to ``NULL``;
* every CTE exposes positional columns ``c1..cN``, sidestepping quoting and
  duplicate-name questions for plan-internal columns (renames compile away
  in plans; callers re-attach the expression's output schema);
* parameters bind as ``:p_<name>``, and bindings SQLite would store or
  compare differently from Python (a string where a number is compared,
  NaN, an integer beyond 64 bits) are refused.

Anything the dialect cannot express faithfully raises
:class:`~repro.sqltext.BackendUnsupportedError`: the oracle refuses rather
than answers wrong, and nothing falls back silently.
"""

from __future__ import annotations

import math
import sqlite3
import threading
from dataclasses import dataclass
from typing import Any, Mapping

from repro.catalog.instance import DatabaseInstance, Values
from repro.catalog.schema import DatabaseSchema, RelationSchema
from repro.catalog.types import DataType
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
    compile_plan,
)
from repro.engine.optimizer import optimize_expression
from repro.errors import QueryEvaluationError
from repro.ra.ast import AggregateFunction, RAExpression
from repro.ra.predicates import Param, Predicate
from repro.sqltext import (
    BackendUnsupportedError,
    comparable_in_sql,
    literal_type,
    quote_identifier,
    render_predicate,
)

ParamValues = Mapping[str, Any]


class _PythonDivision:
    """``repro_div`` UDF: Python true-division semantics inside SQLite.

    sqlite3 flattens every UDF exception into an opaque
    ``OperationalError("user-defined function raised exception")``, so the
    callable records the real exception for the oracle to re-raise — a
    division by zero must surface as the engine's error, and anything else
    (say, a string-typed parameter value) as the same exception the Python
    operators would have raised.
    """

    def __init__(self) -> None:
        self.last_error: BaseException | None = None

    def __call__(self, a: Any, b: Any) -> Any:
        if a is None or b is None:
            return None
        try:
            return a / b
        except BaseException as exc:
            self.last_error = exc
            raise

    def take_error(self) -> BaseException | None:
        error, self.last_error = self.last_error, None
        return error


def prepare_connection(
    conn: sqlite3.Connection, *, division: _PythonDivision | None = None
) -> sqlite3.Connection:
    """Register the engine-compatibility functions on a connection.

    ``division`` lets the oracle supply its own recorder instance so UDF
    failures can be re-raised as their real exceptions.
    """
    conn.create_function(
        "repro_div", 2, division or _PythonDivision(), deterministic=True
    )
    return conn


_SQL_TYPES = {
    DataType.INT: "INTEGER",
    DataType.FLOAT: "REAL",
    DataType.STRING: "TEXT",
    DataType.BOOL: "INTEGER",
}


def create_table_sql(schema: RelationSchema) -> str:
    """``CREATE TABLE`` statement for one relation schema."""
    columns = ", ".join(
        f"{quote_identifier(attr.name)} {_SQL_TYPES[attr.dtype]}"
        for attr in schema.attributes
    )
    return f"CREATE TABLE {quote_identifier(schema.name)} ({columns})"


_INT64 = range(-(2**63), 2**63)


def _refuse_unstorable(value: Any, where: str) -> None:
    """Raise :class:`BackendUnsupportedError` unless sqlite3 stores ``value`` as is.

    sqlite3 binds NaN as ``NULL`` without a word and raises
    ``OverflowError`` for an integer beyond 64 bits.
    """
    if isinstance(value, float) and math.isnan(value):
        raise BackendUnsupportedError(f"{where} contains NaN, which SQLite stores as NULL")
    if isinstance(value, int) and value not in _INT64:
        raise BackendUnsupportedError(
            f"{where} holds {value}, beyond SQLite's 64-bit integers"
        )


def load_instance(conn: sqlite3.Connection, instance: DatabaseInstance) -> None:
    """Create and populate one table per relation of ``instance``.

    Raises :class:`BackendUnsupportedError` when a value cannot be stored
    faithfully (integers beyond 64 bits; NaN, which sqlite3 would silently
    bind as ``NULL``).
    """

    def checked_rows(relation):
        where = f"relation {relation.schema.name!r}"
        for _, values in relation.tuples():
            for value in values:
                _refuse_unstorable(value, where)
            yield values

    for name, relation in instance.relations.items():
        conn.execute(create_table_sql(relation.schema))
        placeholders = ", ".join("?" * relation.schema.arity)
        insert = f"INSERT INTO {quote_identifier(name)} VALUES ({placeholders})"
        try:
            conn.executemany(insert, checked_rows(relation))
        except sqlite3.Error as exc:
            raise BackendUnsupportedError(
                f"cannot load relation {name!r} into SQLite: {exc}"
            ) from exc
    conn.commit()


def connect_instance(instance: DatabaseInstance) -> sqlite3.Connection:
    """A fresh prepared ``:memory:`` connection with ``instance`` loaded.

    Used by tests and tooling that execute SQL text directly (e.g. the
    round-trip tests for :mod:`repro.parser.sql_writer`); the oracle itself
    keeps a cached connection keyed by the instance's data version.
    """
    conn = sqlite3.connect(":memory:", check_same_thread=False)
    prepare_connection(conn)
    load_instance(conn, instance)
    return conn


# ---------------------------------------------------------------------------
# Plan compilation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CompiledPlan:
    """A plan compiled to one executable statement.

    ``params`` are the query-parameter names the statement binds (as
    ``:p_<name>``); ``param_types`` records, per parameter, the column/
    literal types it is compared or combined with (bindings of an
    incompatible runtime type are refused at execution time); ``dtypes``
    are the positional output types, used to convert fetched rows back to
    engine values (``BOOL`` columns come back from SQLite as 0/1 integers).
    """

    sql: str
    params: tuple[str, ...]
    dtypes: tuple[DataType, ...]
    param_types: tuple[tuple[str, tuple[DataType, ...]], ...] = ()


_AGGREGATE_SQL = {
    AggregateFunction.COUNT: "COUNT",
    AggregateFunction.SUM: "SUM",
    AggregateFunction.AVG: "AVG",
    AggregateFunction.MIN: "MIN",
    AggregateFunction.MAX: "MAX",
}


class _PlanCompiler:
    """Single-use compiler turning one plan tree into a CTE chain."""

    def __init__(self, db: DatabaseSchema) -> None:
        self.db = db
        self.ctes: list[str] = []
        self.params: dict[str, None] = {}  # ordered set of parameter names
        self.param_types: dict[str, set[DataType]] = {}
        self._counter = 0

    # -- CTE plumbing ------------------------------------------------------

    def _add_cte(self, body: str, arity: int) -> str:
        self._counter += 1
        name = f"s{self._counter}"
        columns = ", ".join(f"c{i + 1}" for i in range(arity))
        self.ctes.append(f"{name}({columns}) AS (\n  {body}\n)")
        return name

    @staticmethod
    def _column_list(arity: int) -> str:
        return ", ".join(f"c{i + 1}" for i in range(arity))

    # -- scalar / predicate rendering --------------------------------------

    def _param_sql(self, param: Param) -> str:
        if not param.name.isidentifier():
            raise BackendUnsupportedError(
                f"parameter name {param.name!r} is not bindable in SQLite"
            )
        self.params[param.name] = None
        return f":p_{param.name}"

    def _expect(self, name: str, dtype: DataType) -> None:
        self.param_types.setdefault(name, set()).add(dtype)

    def _predicate(
        self, predicate: Predicate, schema: RelationSchema, positions: list[str]
    ) -> str:
        def resolve(name: str) -> tuple[str, DataType | None]:
            index = schema.index_of(name)
            return positions[index], schema.attributes[index].dtype

        return render_predicate(predicate, resolve, self._param_sql, self._expect)

    # -- operators ---------------------------------------------------------

    def emit(self, plan: PlanNode) -> tuple[str, tuple[DataType, ...]]:
        """Emit CTEs for ``plan``; returns (cte name, positional dtypes)."""
        if isinstance(plan, ScanOp):
            return self._scan(plan)
        if isinstance(plan, FilterOp):
            return self._filter(plan)
        if isinstance(plan, ProjectOp):
            return self._project(plan)
        if isinstance(plan, JoinOp):
            return self._join(plan)
        if isinstance(plan, CrossOp):
            return self._cross(plan)
        if isinstance(plan, (UnionOp, DifferenceOp, IntersectOp)):
            return self._set_op(plan)
        if isinstance(plan, AggregateOp):
            return self._aggregate(plan)
        raise BackendUnsupportedError(
            f"cannot compile plan node of type {type(plan).__name__}"
        )

    def _scan(self, plan: ScanOp) -> tuple[str, tuple[DataType, ...]]:
        schema = self.db.relation(plan.relation)
        columns = ", ".join(quote_identifier(a.name, force=True) for a in schema.attributes)
        body = f"SELECT DISTINCT {columns} FROM {quote_identifier(plan.relation, force=True)}"
        name = self._add_cte(body, schema.arity)
        return name, tuple(a.dtype for a in schema.attributes)

    def _filter(self, plan: FilterOp) -> tuple[str, tuple[DataType, ...]]:
        child, dtypes = self.emit(plan.child)
        positions = [f"c{i + 1}" for i in range(len(dtypes))]
        condition = self._predicate(plan.predicate, plan.schema, positions)
        body = (
            f"SELECT {self._column_list(len(dtypes))} FROM {child} WHERE {condition}"
        )
        return self._add_cte(body, len(dtypes)), dtypes

    def _project(self, plan: ProjectOp) -> tuple[str, tuple[DataType, ...]]:
        child, dtypes = self.emit(plan.child)
        selected = ", ".join(
            f"c{index + 1} AS c{out + 1}" for out, index in enumerate(plan.indexes)
        )
        body = f"SELECT DISTINCT {selected} FROM {child}"
        return (
            self._add_cte(body, len(plan.indexes)),
            tuple(dtypes[i] for i in plan.indexes),
        )

    def _join(self, plan: JoinOp) -> tuple[str, tuple[DataType, ...]]:
        left, left_types = self.emit(plan.left)
        right, right_types = self.emit(plan.right)
        keep = (
            tuple(range(len(right_types))) if plan.keep_right is None else plan.keep_right
        )
        positions = [f"L.c{i + 1}" for i in range(len(left_types))] + [
            f"R.c{j + 1}" for j in keep
        ]
        selected = ", ".join(f"{expr} AS c{i + 1}" for i, expr in enumerate(positions))
        for a, b in zip(plan.left_key, plan.right_key):
            if not comparable_in_sql(left_types[a], right_types[b]):
                raise BackendUnsupportedError(
                    "equi-join key types diverge from dict-key equality in SQLite"
                )
        # IS, not =: the hash join matches keys through dict equality, where
        # NULL == NULL holds.
        condition = " AND ".join(
            f"L.c{a + 1} IS R.c{b + 1}" for a, b in zip(plan.left_key, plan.right_key)
        )
        body = f"SELECT {selected} FROM {left} AS L JOIN {right} AS R ON {condition}"
        if plan.residual:
            residual = " AND ".join(
                self._predicate(p, plan.schema, positions) for p in plan.residual
            )
            body += f" WHERE {residual}"
        dtypes = left_types + tuple(right_types[j] for j in keep)
        return self._add_cte(body, len(dtypes)), dtypes

    def _cross(self, plan: CrossOp) -> tuple[str, tuple[DataType, ...]]:
        left, left_types = self.emit(plan.left)
        right, right_types = self.emit(plan.right)
        positions = [f"L.c{i + 1}" for i in range(len(left_types))] + [
            f"R.c{j + 1}" for j in range(len(right_types))
        ]
        selected = ", ".join(f"{expr} AS c{i + 1}" for i, expr in enumerate(positions))
        body = f"SELECT {selected} FROM {left} AS L CROSS JOIN {right} AS R"
        if plan.residual:
            residual = " AND ".join(
                self._predicate(p, plan.schema, positions) for p in plan.residual
            )
            body += f" WHERE {residual}"
        dtypes = left_types + right_types
        return self._add_cte(body, len(dtypes)), dtypes

    def _set_op(self, plan: PlanNode) -> tuple[str, tuple[DataType, ...]]:
        operator = {
            UnionOp: "UNION",
            DifferenceOp: "EXCEPT",
            IntersectOp: "INTERSECT",
        }[type(plan)]
        left, left_types = self.emit(plan.left)  # type: ignore[attr-defined]
        right, _ = self.emit(plan.right)  # type: ignore[attr-defined]
        columns = self._column_list(len(left_types))
        body = f"SELECT {columns} FROM {left} {operator} SELECT {columns} FROM {right}"
        return self._add_cte(body, len(left_types)), left_types

    def _aggregate(self, plan: AggregateOp) -> tuple[str, tuple[DataType, ...]]:
        child, child_types = self.emit(plan.child)
        selected: list[str] = []
        dtypes: list[DataType] = []
        for out, index in enumerate(plan.group_indexes):
            selected.append(f"T.c{index + 1} AS c{out + 1}")
            dtypes.append(child_types[index])
        offset = len(plan.group_indexes)
        for out, (spec, index) in enumerate(plan.aggregates):
            if index < 0:
                expression = "COUNT(*)"
                dtypes.append(DataType.INT)
            else:
                expression = f"{_AGGREGATE_SQL[spec.func]}(T.c{index + 1})"
                if spec.func is AggregateFunction.COUNT:
                    dtypes.append(DataType.INT)
                elif spec.func is AggregateFunction.AVG:
                    dtypes.append(DataType.FLOAT)
                else:
                    dtypes.append(child_types[index])
            selected.append(f"{expression} AS c{offset + out + 1}")
        if plan.group_indexes:
            group = ", ".join(f"T.c{i + 1}" for i in plan.group_indexes)
        else:
            # A constant expression groups every row into one group while an
            # empty input yields *no* groups — matching the engine, where an
            # ungrouped aggregate over an empty input produces no output row
            # (unlike SQL's plain ungrouped aggregate, which produces one).
            group = "1 + 0"
        body = f"SELECT {', '.join(selected)} FROM {child} AS T GROUP BY {group}"
        return self._add_cte(body, len(dtypes)), tuple(dtypes)


def compile_plan_to_sql(plan: PlanNode, db: DatabaseSchema) -> CompiledPlan:
    """Compile a logical plan into one SQLite statement.

    Raises :class:`BackendUnsupportedError` for constructs the dialect
    cannot express faithfully.
    """
    compiler = _PlanCompiler(db)
    final, dtypes = compiler.emit(plan)
    ctes = ",\n".join(compiler.ctes)
    columns = ", ".join(f"c{i + 1}" for i in range(len(dtypes)))
    sql = f"WITH {ctes}\nSELECT {columns} FROM {final}"
    return CompiledPlan(
        sql=sql,
        params=tuple(compiler.params),
        dtypes=dtypes,
        param_types=tuple(
            (name, tuple(sorted(types, key=lambda t: t.value)))
            for name, types in compiler.param_types.items()
        ),
    )


# ---------------------------------------------------------------------------
# The oracle
# ---------------------------------------------------------------------------

_BINDABLE_TYPES = (bool, int, float, str)


class SqliteBackend:
    """Compute a query's rows on SQLite, independently of the engine.

    One oracle binds one :class:`~repro.catalog.instance.DatabaseInstance`;
    its ``:memory:`` database is (re)loaded lazily whenever the instance's
    ``data_version`` changes.  Thread-safe: one lock serializes loading and
    execution, which also satisfies sqlite3's cross-thread connection rules.
    """

    def __init__(self, instance: DatabaseInstance) -> None:
        self.instance = instance
        self._lock = threading.Lock()
        self._conn: sqlite3.Connection | None = None
        self._division = _PythonDivision()
        self._loaded_version: int | None = None
        self._load_failed_version: int | None = None

    # -- database lifecycle ------------------------------------------------

    def _connection(self) -> sqlite3.Connection:
        """The loaded connection for the instance's current data version."""
        version = self.instance.data_version
        if version == self._load_failed_version:
            raise BackendUnsupportedError(
                "instance data cannot be represented in SQLite"
            )
        if self._conn is None or version != self._loaded_version:
            if self._conn is not None:
                self._conn.close()
                self._conn = None
            conn = sqlite3.connect(":memory:", check_same_thread=False)
            prepare_connection(conn, division=self._division)
            try:
                load_instance(conn, self.instance)
            except BackendUnsupportedError:
                conn.close()
                self._load_failed_version = version
                raise
            self._conn = conn
            self._loaded_version = version
        return self._conn

    def close(self) -> None:
        with self._lock:
            if self._conn is not None:
                self._conn.close()
                self._conn = None
                self._loaded_version = None

    # -- execution ---------------------------------------------------------

    def _binding(self, compiled: CompiledPlan, params: ParamValues) -> dict[str, Any]:
        """Named-parameter binding, refusing type-unfaithful values.

        A *missing* parameter is refused, not an error: the Python operators
        resolve parameters lazily, so a plan whose predicate never runs
        (empty input) evaluates fine unbound — only they can tell.  Likewise
        a value whose runtime type would change a comparison's meaning (a
        string where numbers are compared) is refused, and so is a value
        sqlite3 cannot bind as is (NaN, an integer beyond 64 bits).
        """
        expected = dict(compiled.param_types)
        binding: dict[str, Any] = {}
        for name in compiled.params:
            if name not in params:
                raise BackendUnsupportedError(
                    f"parameter @{name} is unbound; only the Python operators "
                    "know whether it is ever evaluated"
                )
            value = params[name]
            if value is not None:
                if not isinstance(value, _BINDABLE_TYPES):
                    raise BackendUnsupportedError(
                        f"parameter @{name} value {value!r} is not a SQLite scalar"
                    )
                _refuse_unstorable(value, f"parameter @{name}")
                value_type = literal_type(value)
                for dtype in expected.get(name, ()):
                    if not comparable_in_sql(value_type, dtype):
                        raise BackendUnsupportedError(
                            f"parameter @{name} bound to a {value_type.value} where "
                            f"a {dtype.value} is expected; SQLite would coerce"
                        )
            binding[f"p_{name}"] = value
        return binding

    def execute_plan(self, plan: PlanNode, params: ParamValues | None = None) -> "dict[Values, bool]":
        """Run ``plan`` and return the set-domain annotated row dict.

        Raises :class:`BackendUnsupportedError` when the plan or its
        parameter binding cannot run faithfully on SQLite, and re-raises
        genuine query failures exactly as the Python engine would (division
        by zero surfaces as :class:`QueryEvaluationError`).
        """
        compiled = compile_plan_to_sql(plan, self.instance.schema)
        binding = self._binding(compiled, params or {})
        with self._lock:
            conn = self._connection()
            self._division.take_error()  # drop any stale record
            try:
                rows = conn.execute(compiled.sql, binding).fetchall()
            except sqlite3.Error as exc:
                recorded = self._division.take_error()
                if isinstance(recorded, ZeroDivisionError):
                    raise QueryEvaluationError(
                        "division by zero in scalar expression"
                    ) from recorded
                if recorded is not None:
                    # Surface exactly what the Python operators would have
                    # raised (e.g. TypeError for a string-typed parameter).
                    raise recorded
                raise BackendUnsupportedError(str(exc)) from exc
        bool_columns = [
            i for i, dtype in enumerate(compiled.dtypes) if dtype is DataType.BOOL
        ]
        if bool_columns:
            converted: dict[Values, bool] = {}
            for row in rows:
                values = list(row)
                for i in bool_columns:
                    if values[i] is not None:
                        values[i] = bool(values[i])
                converted[tuple(values)] = True
            return converted
        return {tuple(row): True for row in rows}

    def rows(
        self, expression: RAExpression, params: ParamValues | None = None
    ) -> frozenset:
        """The row set of ``expression``, computed on SQLite.

        Runs the pushdown-only plan, so the engine's build-side choice is
        checked against an executor that never saw it.  Raises :class:`BackendUnsupportedError` instead of answering
        when the plan or binding cannot run faithfully.
        """
        db = self.instance.schema
        plan = compile_plan(optimize_expression(expression, db), db)
        return frozenset(self.execute_plan(plan, params))
