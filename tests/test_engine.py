"""Unit tests for the annotation-generic execution engine."""

import pytest

from repro.catalog.instance import DatabaseInstance
from repro.datagen import toy_university_instance, university_schema
from repro.engine import (
    SET_DOMAIN,
    CardinalityEstimator,
    EngineSession,
    JoinOp,
    ScanOp,
    choose_build_sides,
    compile_plan,
    plan_operators,
)
from repro.engine.reference import ReferenceEvaluator
from repro.engine.structural import KeyCache, StructuralKey
from repro.errors import NotApplicableError, QueryEvaluationError
from repro.provenance import annotate
from repro.ra import (
    AggregateFunction,
    AggregateSpec,
    compute_aggregate,
    count,
    difference,
    eq,
    equals_constant,
    evaluate,
    group_by,
    intersection,
    project,
    relation,
    rename_prefix,
    select,
    theta_join,
    union,
)


@pytest.fixture()
def instance():
    return toy_university_instance()


def _reference_rows(query, instance, params=None):
    return frozenset(ReferenceEvaluator(instance, params or {}).rows(query))


def _cs_students():
    return project(
        theta_join(
            rename_prefix(relation("Student"), "s"),
            rename_prefix(relation("Registration"), "r"),
            eq("s.name", "r.name"),
        ),
        ["s.name"],
    )


class TestStructuralKeys:
    def test_structurally_equal_nodes_share_a_key(self):
        cache = KeyCache()
        a = _cs_students()
        b = _cs_students()
        assert a is not b
        assert cache.key(a) == cache.key(b)
        assert hash(cache.key(a)) == hash(cache.key(b))

    def test_distinct_queries_do_not_collide(self):
        key1 = StructuralKey(relation("Student"))
        key2 = StructuralKey(relation("Registration"))
        assert key1 != key2

    def test_key_cache_is_o1_for_repeat_objects(self):
        cache = KeyCache()
        node = _cs_students()
        assert cache.key(node) is cache.key(node)


class TestStructuralMemoization:
    def test_difference_sides_share_the_cache(self, instance):
        """Structurally equal subtrees on both sides of a Difference are
        evaluated once — the regression behind keying the memo by ``id``."""
        query = difference(_cs_students(), _cs_students())
        session = EngineSession(instance)
        assert session.rows(query, {}) == []
        info = session.cache_info()
        # One plan for the difference; both sides compile to the same subplan,
        # so the result cache holds difference + subplan + its descendants
        # once each, not twice.
        operators = plan_operators(
            compile_plan(query, instance.schema)  # unoptimized shape is an upper bound
        )
        distinct = len(set(operators))
        assert info["cached_results"] <= distinct

    def test_repeated_rows_calls_hit_the_cache(self, instance):
        session = EngineSession(instance)
        first = session.rows(_cs_students(), {})
        second = session.rows(_cs_students(), {})  # a distinct but equal tree
        assert first == second
        info = session.cache_info()
        assert info["plan_hits"] >= 1

    def test_param_independent_subplans_shared_across_bindings(self, instance):
        from repro.ra import ge, param

        session = EngineSession(instance)
        query = select(relation("Registration"), ge("grade", param("cutoff")))
        assert len(session.evaluate(query, {"cutoff": 95})) == 3
        baseline = session.cache_info()["cached_results"]
        assert len(session.evaluate(query, {"cutoff": 200})) == 0
        # Only the filter depends on the binding: the Registration scan is
        # reused, so exactly one new memo entry appears per extra binding.
        assert session.cache_info()["cached_results"] == baseline + 1

    def test_unhashable_param_values_still_evaluate(self, instance):
        from repro.ra.predicates import Comparison, Literal, Param

        # An exotic predicate comparing against an unhashable parameter value:
        # caching is skipped for the dependent subplan, results stay correct.
        query = select(
            relation("Student"),
            Comparison("=", Literal(["CS"]), Param("majors")),
        )
        session = EngineSession(instance)
        result = session.evaluate(query, {"majors": ["CS"]})
        assert len(result) == len(instance.relation("Student"))
        assert len(session.evaluate(query, {"majors": ["ECON"]})) == 0


class TestComputeAggregateErrors:
    def test_unknown_attribute_names_the_aggregate(self):
        schema = university_schema().relation("Registration")
        spec = AggregateSpec(AggregateFunction.SUM, "points", "total")
        with pytest.raises(QueryEvaluationError) as excinfo:
            compute_aggregate(spec, schema, [("Mary", "208D", "ECON", 95)])
        message = str(excinfo.value)
        assert "SUM(points)" in message
        assert "'points'" in message
        assert "total" in message

    def test_count_star_still_counts_rows(self):
        schema = university_schema().relation("Registration")
        spec = AggregateSpec(AggregateFunction.COUNT, None, "n")
        assert compute_aggregate(spec, schema, [("a",), ("b",)]) == 2

    def test_engine_group_by_raises_the_same_clear_error(self, instance):
        query = group_by(relation("Registration"), ["name"], [count("missing", "n")])
        with pytest.raises(Exception) as excinfo:
            evaluate(query, instance)
        assert "missing" in str(excinfo.value)


class TestHashIndex:
    def test_index_is_cached_and_maintained_across_mutation(self, instance):
        student = instance.relation("Student")
        index = student.hash_index((1,))
        assert index is student.hash_index((1,))
        assert set(index) == {("CS",), ("ECON",)}
        assert [values for _, values in index[("CS",)]] == [
            ("Mary", "CS"),
            ("Jesse", "CS"),
        ]
        # Mutations maintain the cached index in place (no rebuild): the
        # same object reflects the insert, and a delete that empties a
        # bucket removes the bucket entirely.
        tid = student.insert(("Alice", "CS"))
        maintained = student.hash_index((1,))
        assert maintained is index
        assert len(maintained[("CS",)]) == 3
        assert (tid, ("Alice", "CS")) in maintained[("CS",)]
        for econ_tid, _values in list(index[("ECON",)]):
            student.delete(econ_tid)
        assert ("ECON",) not in student.hash_index((1,))

    def test_data_version_tracks_inserts(self, instance):
        before = instance.data_version
        instance.insert("Student", ("Zoe", "CS"))
        assert instance.data_version == before + 1


class TestSessionInvalidation:
    def test_session_sees_inserts(self, instance):
        session = EngineSession(instance)
        query = select(relation("Student"), equals_constant("major", "CS"))
        assert len(session.evaluate(query)) == 2
        instance.insert("Student", ("Alice", "CS"))
        assert len(session.evaluate(query)) == 3
        # The insert drops the cached entries over Student; the next
        # evaluation recomputes them from the base data.
        assert session.cache_info()["delta_dropped"] >= 1

    def test_annotate_sees_inserts_through_facade(self, instance):
        query = relation("Student")
        before = annotate(query, instance)
        tid = instance.insert("Student", ("Alice", "CS"))
        after = annotate(query, instance)
        assert ("Alice", "CS") not in before
        assert after.expression_for(("Alice", "CS")).variables() == {tid}


class TestOptimizer:
    def test_build_side_prefers_the_smaller_input(self):
        schema = university_schema()
        instance = DatabaseInstance(schema)
        for i in range(3):
            instance.insert("Student", (f"s{i}", "CS"))
        for i in range(50):
            instance.insert("Registration", (f"s{i % 3}", f"c{i}", "CS", 90))
        join = theta_join(
            rename_prefix(relation("Registration"), "r"),
            rename_prefix(relation("Student"), "s"),
            eq("r.name", "s.name"),
        )
        plan = choose_build_sides(compile_plan(join, schema), CardinalityEstimator(instance))
        join_ops = [op for op in plan_operators(plan) if isinstance(op, JoinOp)]
        assert len(join_ops) == 1
        # Left input (Registration) is larger, so the hash table builds right.
        assert not join_ops[0].build_left

        flipped = theta_join(
            rename_prefix(relation("Student"), "s"),
            rename_prefix(relation("Registration"), "r"),
            eq("s.name", "r.name"),
        )
        plan = choose_build_sides(compile_plan(flipped, schema), CardinalityEstimator(instance))
        join_ops = [op for op in plan_operators(plan) if isinstance(op, JoinOp)]
        assert join_ops[0].build_left

    def test_selective_filter_moves_the_build_side(self):
        """The build side follows filtered estimates, not raw relation sizes."""
        schema = university_schema()
        instance = DatabaseInstance(schema)
        for i in range(3):
            instance.insert("Student", (f"s{i}", "CS"))
        for i in range(50):
            instance.insert("Registration", (f"s{i % 3}", f"c{i}", "CS", 90))
        # Two equality conjuncts cut 50 rows to an estimated ~1, below Student's 3.
        narrowed = select(
            select(relation("Registration"), equals_constant("dept", "CS")),
            equals_constant("course", "c1"),
        )
        join = theta_join(
            rename_prefix(narrowed, "r"),
            rename_prefix(relation("Student"), "s"),
            eq("r.name", "s.name"),
        )
        plan = choose_build_sides(compile_plan(join, schema), CardinalityEstimator(instance))
        join_ops = [op for op in plan_operators(plan) if isinstance(op, JoinOp)]
        assert len(join_ops) == 1
        assert join_ops[0].build_left

    def test_set_operator_estimates(self, instance):
        def estimate(query):
            return CardinalityEstimator(instance).estimate(compile_plan(query, instance.schema))

        cs = select(relation("Student"), equals_constant("major", "CS"))
        students = estimate(relation("Student"))
        assert estimate(cs) < students
        # Union adds its inputs, difference is bounded by its left input,
        # intersection by its smaller input.
        assert estimate(union(relation("Student"), cs)) == students + estimate(cs)
        assert estimate(difference(relation("Student"), cs)) == students
        assert estimate(difference(cs, relation("Student"))) == estimate(cs)
        assert estimate(intersection(relation("Student"), cs)) == estimate(cs)

    def test_estimates_scale_with_relation_sizes(self, instance):
        def estimate(query):
            return CardinalityEstimator(instance).estimate(compile_plan(query, instance.schema))

        registrations = len(instance.relation("Registration"))
        students = len(instance.relation("Student"))
        assert students < registrations
        assert estimate(relation("Registration")) == registrations
        filtered = select(relation("Registration"), equals_constant("dept", "CS"))
        assert estimate(filtered) < estimate(relation("Registration"))
        # An equi-join is as large as its larger input, whichever side that is.
        join = theta_join(
            rename_prefix(relation("Student"), "s"),
            rename_prefix(relation("Registration"), "r"),
            eq("s.name", "r.name"),
        )
        assert estimate(join) == registrations
        # A grouped aggregate keeps a quarter of its input; a global one, one row.
        grouped = group_by(relation("Registration"), ["name"], [count(None, "n")])
        assert estimate(grouped) == registrations * 0.25
        assert estimate(group_by(relation("Registration"), [], [count(None, "n")])) == 1.0

    def test_set_plans_compile_without_reading_rows(self, instance):
        """Planning costs no pass over the data: estimates need relation sizes only."""

        class CountingRows(dict):
            reads = 0

            def __iter__(self):
                CountingRows.reads += 1
                return super().__iter__()

            def values(self):
                CountingRows.reads += 1
                return super().values()

            def items(self):
                CountingRows.reads += 1
                return super().items()

        for rel in instance.relations.values():
            rel._rows = CountingRows(rel._rows)
        join = theta_join(
            rename_prefix(relation("Student"), "s"),
            rename_prefix(relation("Registration"), "r"),
            eq("s.name", "r.name"),
        )
        query = group_by(
            select(join, equals_constant("r.dept", "CS")), ["s.name"], [count(None, "n")]
        )
        session = EngineSession(instance)
        plan = session._plan(query, SET_DOMAIN)
        assert any(isinstance(op, JoinOp) for op in plan_operators(plan))
        assert CountingRows.reads == 0
        assert session.evaluate(query).rows
        assert CountingRows.reads > 0  # the counter does see execution

    def test_rename_compiles_away(self, instance):
        plain = compile_plan(relation("Student"), instance.schema)
        renamed = compile_plan(rename_prefix(relation("Student"), "s"), instance.schema)
        assert plain == renamed == ScanOp("Student")

    def test_division_predicates_are_not_pushed_past_joins(self):
        """Pushdown must not evaluate a/b on rows the join would eliminate."""
        from repro.catalog.schema import DatabaseSchema, RelationSchema
        from repro.catalog.types import DataType
        from repro.engine.reference import ReferenceEvaluator
        from repro.ra import gt
        from repro.ra.predicates import Arithmetic, ColumnRef, Comparison, Literal

        schema = DatabaseSchema.of(
            [
                RelationSchema.of(
                    "A", [("k", DataType.INT), ("a", DataType.INT), ("b", DataType.INT)]
                ),
                RelationSchema.of("B", [("k2", DataType.INT)]),
            ]
        )
        instance = DatabaseInstance(schema)
        instance.insert("A", (1, 4, 2))
        instance.insert("A", (2, 1, 0))  # never joins; a/b would divide by zero
        instance.insert("B", (1,))
        query = select(
            theta_join(relation("A"), relation("B"), eq("k", "k2")),
            Comparison(">", Arithmetic("/", ColumnRef("a"), ColumnRef("b")), Literal(1)),
        )
        expected = set(ReferenceEvaluator(instance, {}).rows(query))
        assert set(evaluate(query, instance).rows) == expected == {(1, 4, 2, 1)}

    def test_mixed_type_comparisons_are_not_pushed_past_joins(self):
        """An ordered string-vs-number comparison raises only on the rows it
        sees; pushdown must not make it see rows an empty join eliminates."""
        from repro.catalog.schema import DatabaseSchema, RelationSchema
        from repro.catalog.types import DataType
        from repro.engine.reference import ReferenceEvaluator
        from repro.ra import col, lit, lt

        schema = DatabaseSchema.of(
            [
                RelationSchema.of("R", [("a", DataType.STRING), ("k", DataType.INT)]),
                RelationSchema.of("S", [("k2", DataType.INT)]),
            ]
        )
        instance = DatabaseInstance(schema)
        instance.insert("R", ("x", 1))  # 'x' < 5 raises TypeError if evaluated
        query = select(
            theta_join(relation("R"), relation("S"), eq("k", "k2")),
            lt(col("a"), lit(5)),
        )
        expected = ReferenceEvaluator(instance, {}).rows(query)
        assert list(evaluate(query, instance).rows) == expected == []

    def test_param_predicates_are_not_pushed_past_joins(self, instance):
        """An unbound @param raises only if its selection sees rows; pushdown
        must not move it below a join that filters all rows out."""
        from repro.engine.reference import ReferenceEvaluator
        from repro.ra.predicates import ColumnRef, Comparison, Param

        query = select(
            theta_join(
                rename_prefix(relation("Student"), "s"),
                rename_prefix(relation("Registration"), "r"),
                eq("s.major", "r.grade"),  # never matches: no rows flow
            ),
            Comparison("=", ColumnRef("s.name"), Param("x")),
        )
        expected = ReferenceEvaluator(instance, {}).rows(query)
        assert list(evaluate(query, instance).rows) == expected == []


class TestCardinalityMemoization:
    def test_deep_join_chain_estimates_each_node_once(self, instance, monkeypatch):
        """A 12-deep join chain is estimated in one pass per distinct node.

        The regression: estimates recomputed per parent made optimization
        O(n^2)-to-exponential in join depth.  The memo must bound ``_compute``
        calls by the number of structurally distinct plan nodes.
        """
        from repro.engine import CardinalityEstimator

        query = rename_prefix(relation("Student"), "s")
        for i in range(12):
            query = theta_join(
                query,
                rename_prefix(relation("Registration"), f"r{i}"),
                eq("s.name", f"r{i}.name"),
            )
        plan = compile_plan(query, instance.schema)
        distinct_nodes = len(set(plan_operators(plan)))

        calls = 0
        original = CardinalityEstimator._compute

        def counting(self, node):
            nonlocal calls
            calls += 1
            return original(self, node)

        monkeypatch.setattr(CardinalityEstimator, "_compute", counting)
        estimator = CardinalityEstimator(instance)
        estimator.estimate(plan)
        assert calls <= distinct_nodes
        # Re-estimating any subtree is a pure memo hit.
        calls = 0
        estimator.estimate(plan)
        assert calls == 0

    def test_estimator_rejects_unknown_plan_nodes(self, instance):
        """Dispatch is exhaustive: an unhandled node type raises instead of
        silently estimating 1.0 (the bug that made every new operator's
        subtree look free)."""
        from dataclasses import dataclass

        from repro.engine import CardinalityEstimator, PlanNode

        @dataclass(frozen=True)
        class MysteryOp(PlanNode):
            def children(self):
                return ()

        with pytest.raises(TypeError, match="no cardinality estimate"):
            CardinalityEstimator(instance).estimate(MysteryOp())


class TestScopedPushdown:
    def test_pushdown_scoped_to_raising_subtree(self, instance):
        """A raising predicate disables pushdown only for its own subtree.

        The regression: one division predicate anywhere used to veto pushdown
        for the *whole* expression; now the sibling union branch is still
        optimized while the raising branch keeps its original shape.
        """
        from repro.engine import optimize_expression
        from repro.ra.ast import union
        from repro.ra.predicates import Arithmetic, ColumnRef, Comparison, Literal

        join = theta_join(
            rename_prefix(relation("Student"), "s"),
            rename_prefix(relation("Registration"), "r"),
            eq("s.name", "r.name"),
        )
        risky = select(
            join,
            Comparison(">", Arithmetic("/", Literal(100), ColumnRef("r.grade")), Literal(1)),
        )
        safe = select(join, equals_constant("s.major", "CS"))
        query = union(risky, safe)
        optimized = optimize_expression(query, instance.schema)
        # Raising branch untouched; sibling branch rewritten (selection pushed).
        assert optimized.left == risky
        assert optimized.right != safe
        assert EngineSession(instance).evaluate(query).rows == _reference_rows(query, instance)


class TestJoinReordering:
    def _three_way_instance(self):
        from repro.catalog.schema import DatabaseSchema, RelationSchema
        from repro.catalog.types import DataType

        schema = DatabaseSchema.of(
            [
                RelationSchema.of("Big", [("k", DataType.INT), ("v", DataType.INT)]),
                RelationSchema.of("Mid", [("k", DataType.INT)]),
                RelationSchema.of("Tiny", [("k", DataType.INT)]),
            ]
        )
        instance = DatabaseInstance(schema)
        for i in range(200):
            instance.insert("Big", (i, i * 2))
        for i in range(50):
            instance.insert("Mid", (i,))
        instance.insert("Tiny", (0,))
        instance.insert("Tiny", (1,))
        return instance

    def _three_way_query(self):
        return theta_join(
            theta_join(
                rename_prefix(relation("Big"), "a"),
                rename_prefix(relation("Mid"), "b"),
                eq("a.k", "b.k"),
            ),
            rename_prefix(relation("Tiny"), "c"),
            eq("a.k", "c.k"),
        )

    def test_reordered_plans_return_the_same_rows(self):
        instance = self._three_way_instance()
        query = self._three_way_query()
        rows = EngineSession(instance).evaluate(query).rows
        assert rows == _reference_rows(query, instance)
        assert rows  # non-degenerate: the join actually produces tuples


class TestColumnarExecution:
    def test_hot_operators_return_column_batches(self, instance):
        from repro.engine import ColumnBatch
        from repro.engine.domains import SET_DOMAIN
        from repro.engine.physical import PlanExecutor

        plan = compile_plan(_cs_students(), instance.schema)
        executor = PlanExecutor(instance, {}, SET_DOMAIN, {})
        assert isinstance(executor.run_cached(plan), ColumnBatch)

    def test_columnar_rows_match_dict_path_in_order(self, instance):
        from repro.engine.domains import PROVENANCE_DOMAIN, SET_DOMAIN
        from repro.engine.physical import PlanExecutor

        plan = compile_plan(_cs_students(), instance.schema)
        set_rows = PlanExecutor(instance, {}, SET_DOMAIN, {}).run(plan)
        dict_rows = PlanExecutor(instance, {}, PROVENANCE_DOMAIN, {}).run(plan)
        # Same rows *and* the same first-seen order: downstream consumers
        # (and the provenance bit-compatibility story) rely on it.
        assert list(set_rows) == list(dict_rows)

    def test_provenance_results_are_annotated_batches(self, instance):
        from repro.engine import ColumnBatch
        from repro.engine.domains import PROVENANCE_DOMAIN
        from repro.engine.physical import PlanExecutor
        from repro.engine.reference import ReferenceProvenanceEvaluator

        query = _cs_students()
        plan = compile_plan(query, instance.schema)
        result = PlanExecutor(instance, {}, PROVENANCE_DOMAIN, {}).run_cached(plan)
        assert isinstance(result, ColumnBatch)
        assert len(result.annotations) == len(result.rows()) > 0
        mapping = result.to_mapping()
        reference = ReferenceProvenanceEvaluator(instance, {}).annotated(query)
        assert list(mapping) == list(reference)
        assert [str(a) for a in mapping.values()] == [str(a) for a in reference.values()]

    def test_empty_relation_feeding_provenance_join_and_difference(self, instance):
        from repro.engine.reference import ReferenceProvenanceEvaluator

        empty = DatabaseInstance(instance.schema)
        for _tid, values in instance.relation("Student").tuples():
            empty.insert("Student", values)
        students = rename_prefix(relation("Student"), "s")
        registered = rename_prefix(relation("Registration"), "r")
        no_names = difference(
            project(registered, ["r.name"]), project(students, ["s.name"])
        )
        queries = [
            theta_join(students, registered, eq("s.name", "r.name")),
            theta_join(registered, students, eq("r.name", "s.name")),
            no_names,
            project(no_names, ["r.name"]),
            theta_join(no_names, students, eq("r.name", "s.name")),
            theta_join(students, no_names, eq("s.name", "r.name")),
        ]
        session = EngineSession(empty)
        for query in queries:
            _, rows = session.annotated_rows(query)
            assert rows == {}
            assert ReferenceProvenanceEvaluator(empty, {}).annotated(query) == {}
        _, kept = session.annotated_rows(
            difference(project(students, ["s.name"]), project(registered, ["r.name"]))
        )
        assert len(kept) == len(instance.relation("Student"))


class TestProvenanceDomainViaEngine:
    def test_group_by_still_rejected_with_same_message(self, instance):
        query = group_by(relation("Registration"), ["name"], [count(None, "n")])
        with pytest.raises(NotApplicableError, match="how-provenance does not cover"):
            annotate(query, instance)

    def test_optimized_and_exact_evaluation_agree(self, instance):
        query = select(
            difference(
                _cs_students(),
                project(relation("Student"), ["name"]),
            ),
            equals_constant("s.name", "Mary"),
        )
        assert EngineSession(instance).evaluate(query).rows == _reference_rows(query, instance)


#: One NaN object, stored in a row and used as a literal: set membership
#: tries identity before ``==``, so only this exposes a probe that wrongly
#: takes a NaN literal.
_NAN = float("nan")


class TestMembershipProbe:
    """An ``Or`` of ``column = literal`` on one column filters by set membership."""

    @pytest.fixture()
    def mixed(self):
        from repro.catalog.schema import Attribute, DatabaseSchema, RelationSchema
        from repro.catalog.types import DataType

        schema = DatabaseSchema.of(
            [
                RelationSchema(
                    "R",
                    (
                        Attribute("k", DataType.INT, nullable=True),
                        Attribute("f", DataType.FLOAT, nullable=True),
                        Attribute("b", DataType.BOOL, nullable=True),
                        Attribute("s", DataType.STRING),
                    ),
                )
            ]
        )
        db = DatabaseInstance(schema)
        for values in [
            (1, 1.0, True, "a"),
            (2, _NAN, False, "b"),
            (None, None, None, "c"),
            (3, 2.5, True, "d"),
            (0, 0.0, False, "e"),
            (1, 3.0, None, "f"),
        ]:
            db.insert("R", values)
        return db

    @staticmethod
    def _equals(column, value, *, literal_first=False):
        from repro.ra.predicates import ColumnRef, Comparison, Literal

        if literal_first:
            return Comparison("=", Literal(value), ColumnRef(column))
        return Comparison("=", ColumnRef(column), Literal(value))

    def _cases(self):
        from repro.ra.predicates import Not, Or

        eq_ = self._equals
        return [
            # (predicate, takes the probe)
            (Or((eq_("k", 1), eq_("k", 3))), True),
            (Or((eq_("k", 1, literal_first=True), eq_("k", 3))), True),
            (Or((eq_("f", 1), eq_("f", 2.5))), True),
            (Or((eq_("b", 1), eq_("b", 0))), True),
            (Or((eq_("k", True), eq_("k", 1.0))), True),
            (Or((eq_("s", "a"), eq_("s", "zz"))), True),
            (Or((eq_("k", 1), eq_("k", None))), False),
            (Or((eq_("f", _NAN), eq_("f", 1.0))), False),
            (Or((eq_("k", 1), eq_("s", "b"))), False),
            (Not(Or((eq_("k", 1), eq_("k", 3)))), False),
        ]

    def test_fast_path_is_taken_only_when_sound(self, mixed):
        from repro.engine.columnar import _membership_probe
        from repro.ra.predicates import Or

        schema = mixed.schema.relation("R")
        for predicate, probed in self._cases():
            taken = isinstance(predicate, Or) and _membership_probe(predicate, schema) is not None
            assert taken is probed, str(predicate)

    def test_probe_matches_row_semantics_in_set_and_provenance_domains(self, mixed):
        from repro.engine.reference import ReferenceProvenanceEvaluator

        schema = mixed.schema.relation("R")
        rows = [values for _tid, values in mixed.relation("R").tuples()]
        session = EngineSession(mixed)
        for predicate, _ in self._cases():
            expected = [row for row in rows if predicate.evaluate(schema, row, {})]
            query = select(relation("R"), predicate)
            assert session.evaluate(query).rows == frozenset(expected), str(predicate)
            _, annotated = session.annotated_rows(query)
            assert list(annotated) == expected, str(predicate)
            reference = ReferenceProvenanceEvaluator(mixed, {}).annotated(query)
            assert annotated == reference, str(predicate)
