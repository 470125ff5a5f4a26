"""The SQLite oracle: semantics units plus workload SQL round trips.

Two layers of guarantees:

* every course/beers/TPC-H workload query — correct references *and* wrong
  variants — (a) has the same row set on the engine and on the SQLite
  oracle (:meth:`SqliteBackend.rows`), and (b) has ``to_sql`` output that
  executes verbatim on a loaded SQLite database and returns the same rows;
* targeted unit tests for the dialect corners where SQL and the engine
  disagree by default: two-valued NULL logic under ``NOT``, null-safe join
  keys, Python division, BOOL round trips, quoting of reserved/dotted
  identifiers, parameter binding, empty-input aggregates, data-version
  reloads, and the refusal (``BackendUnsupportedError``) of plans, data and
  bindings SQLite cannot run faithfully.
"""

from __future__ import annotations

import pytest

from repro.catalog.constraints import ForeignKeyConstraint
from repro.catalog.instance import DatabaseInstance
from repro.catalog.schema import Attribute, DatabaseSchema, RelationSchema
from repro.catalog.types import DataType
from repro.engine.backends.sqlite import (
    BackendUnsupportedError,
    SqliteBackend,
    compile_plan_to_sql,
    connect_instance,
)
from repro.engine.logical import compile_plan
from repro.engine.session import EngineSession
from repro.errors import QueryEvaluationError
from repro.datagen import (
    tpch_instance,
    toy_beers_instance,
    toy_university_instance,
)
from repro.parser import parse_query, to_sql
from repro.ra.ast import RelationRef, Selection
from repro.ra.predicates import (
    Arithmetic,
    ColumnRef,
    Comparison,
    Literal,
    Not,
    Param,
    Predicate,
)
from repro.workload import beers_problems, course_questions, tpch_queries


def _workloads():
    university = toy_university_instance()
    beers = toy_beers_instance()
    tpch = tpch_instance(0.01, seed=3)
    cases = []
    for question in course_questions():
        for text in (question.correct_text, *question.wrong_texts):
            cases.append(("course", university, text))
    for problem in beers_problems():
        for text in (problem.correct_text, *problem.wrong_texts):
            cases.append(("beers", beers, text))
    for query in tpch_queries():
        for text in (query.correct_text, *query.wrong_texts):
            cases.append(("tpch", tpch, text))
    return cases


_WORKLOADS = _workloads()


def _per_instance(factory):
    cache = {}

    def get(instance):
        key = id(instance)
        if key not in cache:
            cache[key] = factory(instance)
        return cache[key]

    return get, cache


class TestWorkloadRoundTrips:
    """Acceptance: every workload query's SQL executes on SQLite."""

    @pytest.fixture(scope="class")
    def connections(self):
        connection_for, cache = _per_instance(connect_instance)
        yield connection_for
        for conn in cache.values():
            conn.close()

    @pytest.fixture(scope="class")
    def sessions(self):
        return _per_instance(EngineSession)[0]

    @pytest.fixture(scope="class")
    def oracles(self):
        return _per_instance(SqliteBackend)[0]

    @pytest.mark.parametrize(
        "workload,instance,text",
        _WORKLOADS,
        ids=[f"{w}-{i}" for i, (w, _, _) in enumerate(_WORKLOADS)],
    )
    def test_sql_text_executes_and_matches_engine(
        self, workload, instance, text, connections, sessions
    ):
        expression = parse_query(text)
        sql = to_sql(expression, instance.schema)
        fetched = frozenset(
            tuple(row) for row in connections(instance).execute(sql).fetchall()
        )
        expected = sessions(instance).evaluate(expression).rows
        assert fetched == expected

    @pytest.mark.parametrize(
        "workload,instance,text",
        _WORKLOADS,
        ids=[f"{w}-{i}" for i, (w, _, _) in enumerate(_WORKLOADS)],
    )
    def test_oracle_matches_engine(self, workload, instance, text, sessions, oracles):
        expression = parse_query(text)
        assert oracles(instance).rows(expression) == sessions(instance).evaluate(expression).rows


class TestNullSemantics:
    @pytest.fixture(scope="class")
    def instance(self):
        schema = DatabaseSchema.of(
            [
                RelationSchema.of(
                    "T",
                    [
                        Attribute("k", DataType.INT, nullable=True),
                        Attribute("v", DataType.STRING),
                    ],
                ),
                RelationSchema.of(
                    "U",
                    [
                        Attribute("k", DataType.INT, nullable=True),
                        Attribute("w", DataType.STRING),
                    ],
                ),
            ]
        )
        instance = DatabaseInstance(schema)
        instance.relation("T").insert_all([(1, "a"), (None, "b"), (2, "c")])
        instance.relation("U").insert_all([(None, "x"), (2, "y")])
        return instance

    def test_not_over_null_comparison_is_true(self, instance):
        # Engine logic: k = 1 is False when k IS NULL, so NOT(k = 1) keeps
        # the row.  Plain SQL three-valued logic would drop it.
        query = parse_query("\\select_{not (k = 1)} T")
        python = EngineSession(instance).evaluate(query)
        assert python.rows == SqliteBackend(instance).rows(query)
        assert (None, "b") in python.rows

    def test_null_join_keys_match_like_dict_keys(self, instance):
        # The hash join's dict lookup matches NULL with NULL; the compiled
        # SQL must use IS, not =, for hoisted key conjuncts.
        query = parse_query(
            "(\\rename_{prefix: a} T) \\join_{a.k = b.k} (\\rename_{prefix: b} U)"
        )
        python = EngineSession(instance).evaluate(query)
        assert python.rows == SqliteBackend(instance).rows(query)
        assert any(row[0] is None for row in python.rows)


class TestDialectCorners:
    def test_division_matches_python_semantics(self):
        instance = toy_university_instance()
        predicate = Comparison(
            ">",
            Arithmetic("/", ColumnRef("grade"), Literal(2)),
            Literal(44.0),
        )
        query = Selection(RelationRef("Registration"), predicate)
        python = EngineSession(instance).evaluate(query)
        assert python.rows == SqliteBackend(instance).rows(query)

    def test_division_by_zero_raises_on_engine_and_oracle(self):
        instance = toy_university_instance()
        predicate = Comparison(
            ">", Arithmetic("/", ColumnRef("grade"), Literal(0)), Literal(1)
        )
        query = Selection(RelationRef("Registration"), predicate)
        with pytest.raises(QueryEvaluationError):
            EngineSession(instance).evaluate(query)
        with pytest.raises(QueryEvaluationError):
            SqliteBackend(instance).rows(query)

    def test_cross_type_ordering_comparison_is_refused(self):
        # SQLite would order 'Mary' < 5 by storage class; the Python
        # operators raise TypeError.  The oracle must refuse, not answer.
        instance = toy_university_instance()
        query = parse_query("\\select_{name < 5} Student")
        with pytest.raises(TypeError):
            EngineSession(instance).evaluate(query)
        with pytest.raises(BackendUnsupportedError):
            SqliteBackend(instance).rows(query)

    def test_cross_type_equality_is_refused(self):
        # name = 5 is simply false everywhere in Python; SQLite's comparison
        # affinity could coerce and match — so it must not run on SQLite.
        instance = toy_university_instance()
        query = parse_query("\\select_{name = 5} Student")
        assert EngineSession(instance).evaluate(query).rows == frozenset()
        with pytest.raises(BackendUnsupportedError):
            SqliteBackend(instance).rows(query)

    def test_cross_type_grading_is_an_internal_error(self):
        from repro.api import GradingService

        instance = toy_university_instance()
        correct = "\\project_{name} Student"
        broken = "\\select_{name < 5} \\project_{name} Student"
        outcome = GradingService.for_instance(instance, name="h").check(correct, broken)
        assert outcome.error_kind == "internal_error"

    def test_string_division_is_not_compiled(self):
        instance = toy_university_instance()
        predicate = Comparison(
            "=", Arithmetic("/", ColumnRef("name"), Literal(2)), Literal(1.0)
        )
        plan = compile_plan(
            Selection(RelationRef("Student"), predicate), instance.schema
        )
        with pytest.raises(BackendUnsupportedError):
            compile_plan_to_sql(plan, instance.schema)

    def test_string_typed_parameter_division_is_refused(self):
        # The parameter is divided into a number, so the binding expects a
        # number: a string is refused before SQLite could coerce it, while
        # the Python operators raise their TypeError.
        instance = toy_university_instance()
        predicate = Comparison(
            ">", Arithmetic("/", ColumnRef("grade"), Param("d")), Literal(1)
        )
        query = Selection(RelationRef("Registration"), predicate)
        with pytest.raises(TypeError):
            EngineSession(instance).evaluate(query, {"d": "oops"})
        with pytest.raises(BackendUnsupportedError):
            SqliteBackend(instance).rows(query, {"d": "oops"})

    def test_bool_columns_round_trip(self):
        schema = DatabaseSchema.of(
            [
                RelationSchema.of(
                    "Flags",
                    [("name", DataType.STRING), ("active", DataType.BOOL)],
                )
            ]
        )
        instance = DatabaseInstance(schema)
        instance.relation("Flags").insert_all([("a", True), ("b", False)])
        query = parse_query("\\select_{active = true} Flags")
        python = EngineSession(instance).evaluate(query)
        sqlite = SqliteBackend(instance).rows(query)
        assert python.rows == sqlite == frozenset({("a", True)})
        (row,) = sqlite
        assert row[1] is True  # int 1 would break bit-identical serialization

    def test_reserved_and_dotted_identifiers(self):
        schema = DatabaseSchema.of(
            [
                RelationSchema.of(
                    "order",
                    [("group", DataType.STRING), ("select", DataType.INT)],
                )
            ]
        )
        instance = DatabaseInstance(schema)
        instance.relation("order").insert_all([("g1", 1), ("g2", 2)])
        query = parse_query('\\project_{p.group -> g} \\select_{p.select > 1} \\rename_{prefix: p} order')
        python = EngineSession(instance).evaluate(query)
        assert python.rows == SqliteBackend(instance).rows(query) == frozenset({("g2",)})
        sql = to_sql(query, schema)
        conn = connect_instance(instance)
        assert frozenset(conn.execute(sql).fetchall()) == {("g2",)}
        conn.close()

    def test_parameter_binding(self):
        instance = toy_university_instance()
        query = parse_query("\\project_{name} \\select_{grade >= @cutoff} Registration")
        python = EngineSession(instance).evaluate(query, {"cutoff": 95})
        oracle = SqliteBackend(instance)
        assert python.rows == oracle.rows(query, {"cutoff": 95})
        # An unbound parameter is an engine error and an oracle refusal.
        with pytest.raises(QueryEvaluationError, match="unbound query parameter"):
            EngineSession(instance).evaluate(query, {})
        with pytest.raises(BackendUnsupportedError, match="unbound"):
            oracle.rows(query, {})

    def test_string_valued_parameter_against_numeric_column_is_refused(self):
        # SQLite's cross-type ordering would happily answer grade < 'abc';
        # the binding check must refuse it (Python raises its TypeError).
        instance = toy_university_instance()
        query = parse_query("\\select_{grade < @p} Registration")
        with pytest.raises(TypeError):
            EngineSession(instance).evaluate(query, {"p": "abc"})
        with pytest.raises(BackendUnsupportedError):
            SqliteBackend(instance).rows(query, {"p": "abc"})

    def test_unbound_parameter_over_empty_input_is_refused(self):
        # The Python operators resolve parameters lazily: if the filter's
        # input is empty the parameter is never read, so no error.  Only
        # they can tell, so the oracle refuses to bind rather than guess.
        instance = toy_university_instance()
        query = parse_query(
            "\\select_{grade < @p} \\select_{dept = 'NOPE'} Registration"
        )
        assert EngineSession(instance).evaluate(query, {}).rows == frozenset()
        with pytest.raises(BackendUnsupportedError):
            SqliteBackend(instance).rows(query, {})

    def test_nan_parameter_is_refused(self):
        # sqlite3 binds NaN as NULL: grade != NULL keeps no row in SQLite,
        # while grade != nan keeps every row in Python.
        instance = toy_university_instance()
        query = parse_query("\\select_{grade != @p} Registration")
        python = EngineSession(instance).evaluate(query, {"p": float("nan")})
        assert len(python.rows) == len(instance.relation("Registration"))
        with pytest.raises(BackendUnsupportedError, match="NaN"):
            SqliteBackend(instance).rows(query, {"p": float("nan")})

    def test_oversized_integer_parameter_is_refused(self):
        # sqlite3 raises OverflowError binding an integer beyond 64 bits.
        instance = toy_university_instance()
        query = parse_query("\\select_{grade < @p} Registration")
        python = EngineSession(instance).evaluate(query, {"p": 2**70})
        assert len(python.rows) == len(instance.relation("Registration"))
        oracle = SqliteBackend(instance)
        with pytest.raises(BackendUnsupportedError, match="64-bit"):
            oracle.rows(query, {"p": 2**70})
        with pytest.raises(BackendUnsupportedError, match="64-bit"):
            oracle.rows(query, {"p": -(2**63) - 1})
        assert oracle.rows(query, {"p": 2**63 - 1}) == python.rows

    def test_ungrouped_aggregate_over_empty_input_yields_no_rows(self):
        instance = toy_university_instance()
        query = parse_query("\\aggr_{ ; count(*) -> n} \\select_{dept = 'NOPE'} Registration")
        python = EngineSession(instance).evaluate(query)
        assert python.rows == SqliteBackend(instance).rows(query) == frozenset()


class TestOracleLifecycle:
    def test_data_version_reload(self):
        instance = toy_university_instance()
        oracle = SqliteBackend(instance)
        query = parse_query("\\project_{name} Student")
        before = oracle.rows(query)
        instance.relation("Student").insert(("Zoe", "ART"))
        after = oracle.rows(query)
        assert ("Zoe",) in after and ("Zoe",) not in before
        assert after == EngineSession(instance).evaluate(query).rows

    def test_unsupported_plan_is_refused(self):
        class OpaquePredicate(Predicate):
            """Not a member of the compilable predicate grammar."""

            def evaluate(self, schema, row, params):
                return row[schema.index_of("dept")] == "CS"

            def referenced_columns(self):
                return {"dept"}

            def __eq__(self, other):
                return isinstance(other, OpaquePredicate)

            def __hash__(self):
                return hash("OpaquePredicate")

        instance = toy_university_instance()
        query = Selection(RelationRef("Registration"), OpaquePredicate())
        assert EngineSession(instance).evaluate(query).rows
        with pytest.raises(BackendUnsupportedError):
            SqliteBackend(instance).rows(query)

    def test_compile_rejects_opaque_scalars(self):
        instance = toy_university_instance()
        predicate = Comparison(
            "=", ColumnRef("dept"), Arithmetic("-", Literal("x"), Literal("y"))
        )
        plan = compile_plan(
            Selection(RelationRef("Registration"), predicate), instance.schema
        )
        with pytest.raises(BackendUnsupportedError):
            compile_plan_to_sql(plan, instance.schema)

    def test_nan_data_is_refused_instead_of_becoming_null(self):
        # sqlite3 binds NaN as NULL, which would silently change results;
        # the loader must refuse, on every call until the data changes.
        schema = DatabaseSchema.of(
            [RelationSchema.of("M", [("k", DataType.INT), ("x", DataType.FLOAT)])]
        )
        instance = DatabaseInstance(schema)
        instance.relation("M").insert_all([(1, 1.5), (2, float("nan"))])
        assert len(EngineSession(instance).evaluate(parse_query("M")).rows) == 2
        oracle = SqliteBackend(instance)
        with pytest.raises(BackendUnsupportedError, match="NaN"):
            oracle.rows(parse_query("M"))
        with pytest.raises(BackendUnsupportedError):
            oracle.rows(parse_query("M"))

    def test_oversized_integers_are_refused(self):
        instance = toy_university_instance()
        predicate = Comparison("<", ColumnRef("grade"), Literal(2**70))
        query = Selection(RelationRef("Registration"), predicate)
        assert EngineSession(instance).evaluate(query).rows
        with pytest.raises(BackendUnsupportedError):
            SqliteBackend(instance).rows(query)

    def test_oracle_rows_match_the_session_on_an_fk_join(self):
        # The session runs the build-side-optimized plan; the oracle runs the
        # pushdown-only plan, so it checks that choice from outside.
        schema = DatabaseSchema.of(
            [
                RelationSchema.of("Child", [("k", DataType.INT), ("v", DataType.INT)]),
                RelationSchema.of("Parent", [("k", DataType.INT)]),
            ]
        )
        schema.add_constraint(ForeignKeyConstraint("Child", ("k",), "Parent", ("k",)))
        instance = DatabaseInstance(schema)
        for i in range(100):
            instance.insert("Child", (i % 50, i))
        for i in range(5):
            instance.insert("Parent", (i,))
        query = parse_query(
            "(\\select_{c.v > 10} \\rename_{prefix: c} Child) "
            "\\join_{c.k = p.k} (\\rename_{prefix: p} Parent)"
        )
        expected = EngineSession(instance).evaluate(query).rows
        assert expected and SqliteBackend(instance).rows(query) == expected
