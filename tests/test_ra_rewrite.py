"""Tests for selection pushdown and query parameterization."""

import pytest

from repro.datagen import toy_university_instance, university_schema
from repro.parser import parse_query
from repro.ra import (
    Difference,
    Selection,
    RelationRef,
    evaluate,
    ge,
    lit,
    relation,
    select,
    group_by,
    count,
    equals_constant,
)
from repro.ra.rewrite import (
    add_tuple_selection,
    parameterize_query,
    push_selections_down,
)

DB = university_schema()


@pytest.fixture(scope="module")
def instance():
    return toy_university_instance()


def assert_equivalent_on(expr_a, expr_b, instance, params=None):
    assert evaluate(expr_a, instance, params).same_rows(evaluate(expr_b, instance, params))


class TestAddTupleSelection:
    def test_selects_exactly_one_row(self, instance, example1_q2):
        selected = add_tuple_selection(example1_q2, DB, ("Mary", "CS"))
        assert set(evaluate(selected, instance).rows) == {("Mary", "CS")}

    def test_skips_null_attributes(self):
        selected = add_tuple_selection(relation("Student"), DB, (None, "CS"))
        assert "major" in str(selected.predicate)
        assert "name" not in selected.predicate.referenced_columns()


class TestPushdown:
    def test_pushdown_preserves_semantics_on_running_example(
        self, instance, example1_q1, example1_q2
    ):
        diff = Difference(example1_q2, example1_q1)
        selected = add_tuple_selection(diff, DB, ("Mary", "CS"))
        pushed = push_selections_down(selected, DB)
        assert_equivalent_on(selected, pushed, instance)

    def test_pushdown_moves_selection_off_the_top(self, example1_q1, example1_q2):
        diff = Difference(example1_q2, example1_q1)
        selected = add_tuple_selection(diff, DB, ("Mary", "CS"))
        pushed = push_selections_down(selected, DB)
        # The root is no longer the freshly added selection.
        assert not isinstance(pushed, Selection)

    def test_pushdown_through_projection_renames_columns(self, instance):
        query = parse_query(
            "\\select_{name = 'Mary'} \\project_{s.name -> name} \\rename_{prefix: s} Student"
        )
        pushed = push_selections_down(query, DB)
        assert_equivalent_on(query, pushed, instance)
        assert "s.name" in str(pushed)

    def test_pushdown_through_union_and_difference(self, instance):
        query = parse_query(
            "\\select_{name = 'Mary'} ("
            "(\\project_{name} Student) \\diff (\\project_{name} Registration)"
            ")"
        )
        pushed = push_selections_down(query, DB)
        assert_equivalent_on(query, pushed, instance)

    def test_pushdown_propagates_constants_across_equijoin(self, instance):
        query = parse_query(
            "\\select_{s.name = 'Jesse'} ("
            "  \\rename_{prefix: s} Student"
            "  \\join_{s.name = r.name}"
            "  \\rename_{prefix: r} Registration"
            ")"
        )
        pushed = push_selections_down(query, DB)
        assert_equivalent_on(query, pushed, instance)
        # The constant must have reached the Registration side as well (it may be
        # pushed all the way below the rename, as name = 'Jesse').
        assert str(pushed).count("'Jesse'") >= 2

    def test_pushdown_into_group_by_keys_only(self, instance):
        query = select(
            group_by(relation("Registration"), ["name"], [count(None, "n")]),
            equals_constant("name", "Mary") & ge("n", lit(2)),
        )
        pushed = push_selections_down(query, DB)
        assert_equivalent_on(query, pushed, instance)
        # The aggregate comparison must stay above the GroupBy.
        assert isinstance(pushed, Selection)
        assert pushed.predicate.referenced_columns() == {"n"}

    def test_pushdown_on_selection_free_query_is_identity(self, instance, example1_q2):
        pushed = push_selections_down(example1_q2, DB)
        assert_equivalent_on(example1_q2, pushed, instance)


class TestParameterization:
    def test_having_constant_becomes_parameter(self, instance):
        query = parse_query(
            "\\select_{n >= 3} \\aggr_{group: name; count(*) -> n} "
            "\\select_{dept = 'CS'} Registration"
        )
        parameterized = parameterize_query(query, DB)
        assert parameterized.original_values == {"p0": 3}
        assert_equivalent_on(query, parameterized.query, instance, params={"p0": 3})
        # A different parameter setting changes the result.
        relaxed = evaluate(parameterized.query, instance, {"p0": 1})
        strict = evaluate(query, instance)
        assert len(relaxed) > len(strict)

    def test_shared_names_across_two_queries(self):
        q1 = parse_query("\\select_{n >= 3} \\aggr_{group: name; count(*) -> n} Registration")
        q2 = parse_query(
            "\\select_{n >= 3} \\aggr_{group: name; count(*) -> n} "
            "\\select_{dept = 'CS'} Registration"
        )
        shared: dict = {}
        p1 = parameterize_query(q1, DB, shared_names=shared)
        p2 = parameterize_query(q2, DB, shared_names=shared)
        assert p1.original_values == p2.original_values == {"p0": 3}

    def test_non_aggregate_selections_untouched(self):
        query = parse_query("\\select_{dept = 'CS'} Registration")
        parameterized = parameterize_query(query, DB)
        assert parameterized.original_values == {}
        assert str(parameterized.query) == str(query)


class TestJoinConjunctSinking:
    """A join sinks each conjunct that reads only one join child's columns."""

    @staticmethod
    def _joins(plan):
        from repro.engine.logical import CrossOp, JoinOp, plan_operators

        return [op for op in plan_operators(plan) if isinstance(op, (JoinOp, CrossOp))]

    @staticmethod
    def _compiled(query):
        from repro.engine.logical import compile_plan

        return compile_plan(push_selections_down(query, DB), DB)

    def test_q2_department_filter_lands_on_the_lower_join(self, instance):
        from repro.engine.logical import JoinOp
        from repro.workload import course_questions

        (q2,) = [q for q in course_questions() if q.key == "q2"]
        query = q2.correct_query
        (top,) = [
            join for join in self._joins(self._compiled(query)) if isinstance(join.left, JoinOp)
        ]
        lower = top.left
        assert "r1.dept = 'CS'" in {str(p) for p in lower.residual}
        assert "r1.dept = 'CS'" not in {str(p) for p in top.residual}
        assert_equivalent_on(query, push_selections_down(query, DB), instance)

    def test_conjunct_over_a_bare_relation_side_stays_on_its_join(self):
        # Pushing r2.dept = 'CS' onto the scan as a filter would cost the
        # join its prebuilt hash-index build side.
        from repro.engine.logical import ScanOp

        query = parse_query(
            "\\rename_{prefix: s} Student"
            " \\join_{s.name = r1.name} \\rename_{prefix: r1} Registration"
            " \\join_{s.name = r2.name and r2.dept = 'CS'} \\rename_{prefix: r2} Registration"
        )
        assert push_selections_down(query, DB) == query
        top = self._joins(self._compiled(query))[0]
        assert isinstance(top.right, ScanOp)
        assert [str(p) for p in top.residual] == ["r2.dept = 'CS'"]

    @pytest.mark.parametrize("raising_join", ["upper", "lower"])
    def test_join_that_can_raise_neither_gives_nor_receives(self, raising_join):
        from repro.datagen import toy_university_instance
        from repro.engine import EngineSession
        from repro.engine.reference import ReferenceEvaluator
        from repro.ra import eq, rename_prefix, theta_join
        from repro.ra.predicates import Arithmetic, ColumnRef, Comparison, Literal

        divides = Comparison(">", Arithmetic("/", Literal(100), ColumnRef("r1.grade")), Literal(1))
        cs = equals_constant("r1.dept", "CS")
        lower_predicate = eq("s.name", "r1.name")
        upper_predicate = eq("s.name", "r2.name") & cs
        if raising_join == "upper":
            upper_predicate = upper_predicate & divides
        else:
            lower_predicate = lower_predicate & divides
        query = theta_join(
            theta_join(
                rename_prefix(relation("Student"), "s"),
                rename_prefix(relation("Registration"), "r1"),
                lower_predicate,
            ),
            rename_prefix(relation("Registration"), "r2"),
            upper_predicate,
        )
        assert push_selections_down(query, DB) == query
        instance = toy_university_instance()
        # Joins nothing, so no join may ever divide by its grade.
        instance.insert("Registration", ("Ghost", "999", "CS", 0))
        expected = frozenset(ReferenceEvaluator(instance, {}).rows(query))
        assert EngineSession(instance).evaluate(query).rows == expected

    def test_equality_sunk_into_a_cross_product_makes_a_hash_join(self, instance):
        from repro.engine.logical import CrossOp, JoinOp
        from repro.ra import eq, rename_prefix, theta_join

        query = theta_join(
            theta_join(
                rename_prefix(relation("Student"), "s"),
                rename_prefix(relation("Registration"), "r1"),
            ),
            rename_prefix(relation("Registration"), "r2"),
            eq("s.name", "r1.name") & eq("s.name", "r2.name"),
        )
        top = self._joins(self._compiled(query))[0]
        assert isinstance(top, JoinOp)
        assert isinstance(top.left, JoinOp) and not isinstance(top.left, CrossOp)
        assert top.residual == ()
        assert_equivalent_on(query, push_selections_down(query, DB), instance)
