"""Tests for the aggregate algorithms: Agg-Basic, Agg-Param, Agg-Opt (§5)."""

import pytest

from repro.core import (
    is_aggregate_pair,
    smallest_counterexample_agg_basic,
    smallest_counterexample_agg_opt,
)
from repro.datagen import toy_university_instance
from repro.engine.session import EngineSession
from repro.errors import CounterexampleError
from repro.parser import parse_query
from repro.ra import evaluate

# Example 4 (average grade, no HAVING) and Example 5 (HAVING COUNT >= 3).
_Q1_AVG = """
\\aggr_{group: s.name; avg(r.grade) -> avg_grade} (
  \\rename_{prefix: s} Student
  \\join_{s.name = r.name and r.dept = 'CS'}
  \\rename_{prefix: r} Registration
)
"""
_Q2_AVG = """
\\aggr_{group: s.name; avg(r.grade) -> avg_grade} (
  \\rename_{prefix: s} Student
  \\join_{s.name = r.name}
  \\rename_{prefix: r} Registration
)
"""
_Q1_HAVING = (
    "\\project_{s.name, avg_grade} \\select_{n >= 3} "
    "\\aggr_{group: s.name; avg(r.grade) -> avg_grade, count(*) -> n} ("
    "\\rename_{prefix: s} Student \\join_{s.name = r.name and r.dept = 'CS'} "
    "\\rename_{prefix: r} Registration)"
)
_Q2_HAVING = (
    "\\project_{s.name, avg_grade} \\select_{n >= 3} "
    "\\aggr_{group: s.name; avg(r.grade) -> avg_grade, count(*) -> n} ("
    "\\rename_{prefix: s} Student \\join_{s.name = r.name} "
    "\\rename_{prefix: r} Registration)"
)


@pytest.fixture(scope="module")
def instance():
    return toy_university_instance()


@pytest.fixture(scope="module")
def q1_avg():
    return parse_query(_Q1_AVG)


@pytest.fixture(scope="module")
def q2_avg():
    return parse_query(_Q2_AVG)


@pytest.fixture(scope="module")
def q1_having():
    return parse_query(_Q1_HAVING)


@pytest.fixture(scope="module")
def q2_having():
    return parse_query(_Q2_HAVING)


class TestAggBasic:
    def test_example4_counterexample_is_tiny(self, instance, q1_avg, q2_avg):
        # The paper: a single tuple (Mary, 208D, ECON, 95) plus the FK parent
        # suffices: Q1 is empty while Q2 returns Mary.
        result = smallest_counterexample_agg_basic(q1_avg, q2_avg, instance)
        assert result.verified
        assert result.size <= 2
        assert result.algorithm == "agg-basic"

    def test_example4_counterexample_distinguishes(self, instance, q1_avg, q2_avg):
        result = smallest_counterexample_agg_basic(q1_avg, q2_avg, instance)
        r1 = evaluate(q1_avg, result.counterexample)
        r2 = evaluate(q2_avg, result.counterexample)
        assert not r1.same_rows(r2)

    def test_example5_having_forces_larger_counterexample(self, instance, q1_having, q2_having):
        result = smallest_counterexample_agg_basic(q1_having, q2_having, instance)
        assert result.verified
        # The HAVING COUNT >= 3 requires keeping at least three of Mary's
        # registrations (plus Mary herself): |C| >= 4, as in Example 6.
        assert result.size >= 4

    def test_example6_parameterization_shrinks_counterexample(
        self, instance, q1_having, q2_having
    ):
        fixed = smallest_counterexample_agg_basic(q1_having, q2_having, instance)
        parameterized = smallest_counterexample_agg_basic(
            q1_having, q2_having, instance, parameterize=True
        )
        assert parameterized.verified
        assert parameterized.algorithm == "agg-param"
        assert parameterized.size < fixed.size
        assert parameterized.parameter_values  # the chosen @numCS-style setting

    def test_identical_queries_raise(self, instance, q1_avg):
        with pytest.raises(CounterexampleError):
            smallest_counterexample_agg_basic(q1_avg, q1_avg, instance)

    def test_all_groups_mode(self, instance, q1_avg, q2_avg):
        single = smallest_counterexample_agg_basic(q1_avg, q2_avg, instance)
        exhaustive = smallest_counterexample_agg_basic(
            q1_avg, q2_avg, instance, all_groups=True
        )
        assert exhaustive.size <= single.size


class TestAggOpt:
    def test_example7_heuristic(self, instance, q1_avg, q2_avg):
        result = smallest_counterexample_agg_opt(q1_avg, q2_avg, instance)
        assert result.verified
        assert result.size <= 2
        assert result.algorithm in ("agg-opt", "agg-basic", "agg-param")

    def test_heuristic_on_having_queries(self, instance, q1_having, q2_having):
        result = smallest_counterexample_agg_opt(q1_having, q2_having, instance)
        assert result.verified
        # Either the heuristic re-parameterizes (small result) or it falls back.
        assert result.size >= 1

    def test_heuristic_falls_back_when_cores_agree(self, instance):
        # Same core, different HAVING threshold: the pre-aggregation queries are
        # identical, so Algorithm 3 must fall back to Agg-Basic/Agg-Param.
        q1 = parse_query(
            "\\select_{n >= 3} \\aggr_{group: name; count(*) -> n} "
            "\\select_{dept = 'CS'} Registration"
        )
        q2 = parse_query(
            "\\select_{n >= 2} \\aggr_{group: name; count(*) -> n} "
            "\\select_{dept = 'CS'} Registration"
        )
        result = smallest_counterexample_agg_opt(q1, q2, instance)
        assert result.verified
        assert result.algorithm in ("agg-basic", "agg-param")

    def test_fallback_after_failed_retries_keeps_the_session(
        self, instance, q1_avg, q2_avg, monkeypatch
    ):
        # Every candidate fails re-validation, so Algorithm 3 exhausts its
        # retries and hands over to Agg-Basic, which must reuse the session's
        # warm caches instead of re-evaluating both queries cold.
        import repro.core.aggregates as aggregates
        from repro.engine.session import EngineSession

        monkeypatch.setattr(aggregates, "_validate_on_counterexample", lambda *a, **k: False)
        monkeypatch.setattr(aggregates, "_find_parameter_setting", lambda *a, **k: None)
        calls = []
        sentinel = object()

        def spy(*args, **kwargs):
            calls.append(kwargs)
            return sentinel

        monkeypatch.setattr(aggregates, "smallest_counterexample_agg_basic", spy)
        session = EngineSession(instance)
        result = smallest_counterexample_agg_opt(q1_avg, q2_avg, instance, session=session)
        assert result is sentinel
        assert len(calls) == 1
        assert calls[0]["session"] is session

    def test_parameter_search_keeps_the_callers_binding(self, instance):
        # The cores read a caller @param; the HAVING threshold needs a freed
        # parameter, so the search evaluates the queries on the witness.
        core = (
            "\\rename_{prefix: s} Student \\join_{s.name = r.name%s} "
            "\\rename_{prefix: r} \\select_{grade >= @g} Registration"
        )
        head = (
            "\\project_{s.name, avg_grade} \\select_{n >= 3} "
            "\\aggr_{group: s.name; avg(r.grade) -> avg_grade, count(*) -> n} "
        )
        q1 = parse_query(head + "(" + core % " and r.dept = 'CS'" + ")")
        q2 = parse_query(head + "(" + core % "" + ")")
        result = smallest_counterexample_agg_opt(q1, q2, instance, params={"g": 50})
        assert result.algorithm == "agg-opt"
        assert result.verified
        assert result.parameter_values["g"] == 50
        assert len(result.parameter_values) == 2


class TestHelpers:
    def test_is_aggregate_pair(self, q1_avg, example1_q1):
        assert is_aggregate_pair(q1_avg, example1_q1)
        assert is_aggregate_pair(example1_q1, q1_avg)
        assert not is_aggregate_pair(example1_q1, example1_q1)


# ---------------------------------------------------------------------------
# Group-scoped Agg-Basic provenance
# ---------------------------------------------------------------------------


def _differing(q1, q2, instance, params):
    from repro.core import aggregates
    from repro.provenance.aggregate import decompose_aggregate_query, key_column_attributes

    form1 = decompose_aggregate_query(q1, instance.schema)
    form2 = decompose_aggregate_query(q2, instance.schema)
    keys = aggregates._differing_keys(
        form1.output_schema,
        tuple(key_column_attributes(form1)),
        evaluate(q1, instance, params),
        evaluate(q2, instance, params),
    )
    return form1, form2, keys


def _assert_scoped_matches_whole(q1, q2, instance, params=None, session=None) -> int:
    """Every differing group annotates identically on the scoped and whole cores.

    Returns how many of the two queries were actually scoped.
    """
    from repro.core import aggregates
    from repro.provenance.aggregate import annotate_aggregate_query

    params = dict(params or {})
    form1, form2, keys = _differing(q1, q2, instance, params)
    scoped_count = 0
    for query, form in ((q1, form1), (q2, form2)):
        whole = annotate_aggregate_query(query, instance, params, session)
        scoped = aggregates._scoped_to_groups(
            form, keys, session or EngineSession(instance), params
        )
        if scoped is None:
            continue
        scoped_count += 1
        part = annotate_aggregate_query(scoped, instance, params, session)
        assert part.key_columns == whole.key_columns
        assert set(part.groups) <= set(whole.groups)
        for key in keys:
            # Dataclass equality compares every expression operand by operand,
            # so this also pins the order of the groups' core rows.
            assert part.groups.get(key) == whole.groups.get(key), key
    return scoped_count


def _witness(q1, q2, instance, params, parameterize, session=None):
    from repro.errors import NotApplicableError, QueryEvaluationError, UnsatisfiableError

    try:
        result = smallest_counterexample_agg_basic(
            q1, q2, instance, params=params, parameterize=parameterize, session=session
        )
    except (CounterexampleError, NotApplicableError, UnsatisfiableError, QueryEvaluationError) as exc:
        return type(exc).__name__
    return (
        result.algorithm,
        sorted(result.tids),
        result.optimal,
        result.distinguishing_row,
        result.parameter_values,
    )


def _assert_witness_unchanged(q1, q2, instance, params=None, session_factory=None):
    """Agg-Basic and Agg-Param ship the same witness scoped and whole-core."""
    from repro.core import aggregates

    params = dict(params or {})
    for parameterize in (False, True):
        session = session_factory() if session_factory else None
        scoped = _witness(q1, q2, instance, params, parameterize, session)
        original = aggregates._scoped_to_groups
        aggregates._scoped_to_groups = lambda *args: None
        try:
            session = session_factory() if session_factory else None
            whole = _witness(q1, q2, instance, params, parameterize, session)
        finally:
            aggregates._scoped_to_groups = original
        assert scoped == whole, parameterize


@pytest.fixture(scope="module")
def tpch():
    from repro.datagen import tpch_instance

    return tpch_instance(1)


@pytest.fixture(scope="module")
def tpch_session(tpch):
    return EngineSession(tpch)


def _tpch_pairs():
    from repro.workload import tpch_queries

    return [
        pytest.param(query, index, id=f"{query.key}[{index}]")
        for query in tpch_queries()
        for index in range(len(query.wrong_texts))
    ]


class TestScopedProvenance:
    @pytest.mark.parametrize("query,index", _tpch_pairs())
    def test_tpch_pairs(self, tpch, query, index):
        from repro.engine.session import EngineSession

        q1, q2 = query.correct_query, parse_query(query.wrong_texts[index])
        session = EngineSession(tpch)
        assert _assert_scoped_matches_whole(q1, q2, tpch, session=session) >= 1
        _assert_witness_unchanged(q1, q2, tpch, session_factory=lambda: EngineSession(tpch))

    def test_fuzzed_aggregate_pairs(self):
        from repro.datagen import toy_beers_instance
        from repro.workload.fuzz import CounterexampleFuzzer, perturb_instance

        checked = scoped = 0
        for instance in (
            toy_university_instance(),
            perturb_instance(toy_university_instance(), seed=42),
            toy_beers_instance(),
            perturb_instance(toy_beers_instance(), seed=43),
        ):
            for pair in CounterexampleFuzzer(instance).pairs(55):
                if not is_aggregate_pair(pair.correct, pair.mutant):
                    continue
                try:
                    _differing(pair.correct, pair.mutant, instance, pair.params)
                except Exception:
                    continue  # not aggregate-at-top, or a query that raises
                checked += 1
                scoped += _assert_scoped_matches_whole(
                    pair.correct, pair.mutant, instance, pair.params
                )
                _assert_witness_unchanged(pair.correct, pair.mutant, instance, pair.params)
        assert checked >= 20 and scoped >= checked, (checked, scoped)

    def test_key_renamed_by_a_wrapper(self, instance):
        from repro.provenance.aggregate import decompose_aggregate_query, key_column_attributes

        q1 = parse_query(
            "\\rename_{name -> student} \\aggr_{group: name; avg(grade) -> g} Registration"
        )
        q2 = parse_query(
            "\\rename_{name -> student} \\aggr_{group: name; avg(grade) -> g} "
            "\\select_{dept = 'CS'} Registration"
        )
        form = decompose_aggregate_query(q1, instance.schema)
        assert key_column_attributes(form) == {"student": "name"}
        assert _assert_scoped_matches_whole(q1, q2, instance) == 2
        _assert_witness_unchanged(q1, q2, instance)

    def test_group_attribute_projected_away_leaves_the_core_whole(self, instance):
        from repro.core import aggregates

        q1 = parse_query("\\project_{n} \\aggr_{group: name; count(*) -> n} Registration")
        q2 = parse_query(
            "\\project_{n} \\aggr_{group: name; count(*) -> n} \\select_{grade > 90} Registration"
        )
        form1, _, keys = _differing(q1, q2, instance, {})
        assert keys == {()}
        assert aggregates._scoped_to_groups(form1, keys, EngineSession(instance), {}) is None
        _assert_witness_unchanged(q1, q2, instance)

    def test_two_grouping_keys_collapsing_to_one_projected_key(self, instance):
        from repro.provenance.aggregate import AggOr, annotate_aggregate_query

        q1 = parse_query(
            "\\project_{name, n} \\aggr_{group: name, dept; count(*) -> n} Registration"
        )
        q2 = parse_query(
            "\\project_{name, n} \\aggr_{group: name, dept; count(*) -> n} "
            "\\select_{grade >= 90} Registration"
        )
        # Mary's CS and ECON groups share the projected key ('Mary',).
        merged = annotate_aggregate_query(q1, instance).groups[("Mary",)]
        assert isinstance(merged.condition, AggOr)
        assert _assert_scoped_matches_whole(q1, q2, instance) == 2
        _assert_witness_unchanged(q1, q2, instance)

    def test_null_group_key_leaves_its_column_unrestricted(self):
        from repro.catalog.instance import DatabaseInstance
        from repro.catalog.schema import Attribute, DatabaseSchema, RelationSchema
        from repro.catalog.types import DataType
        from repro.core import aggregates
        from repro.ra.ast import Selection

        schema = DatabaseSchema.of(
            [
                RelationSchema(
                    "T",
                    (
                        Attribute("g", DataType.INT, nullable=True),
                        Attribute("h", DataType.STRING),
                        Attribute("v", DataType.INT),
                    ),
                )
            ]
        )
        db = DatabaseInstance(schema)
        for values in [(None, "x", 1), (None, "x", 5), (1, "x", 2), (1, "y", 7), (2, "y", 3)]:
            db.insert("T", values)
        q1 = parse_query("\\aggr_{group: g, h; sum(v) -> s} T")
        q2 = parse_query("\\aggr_{group: g, h; sum(v) -> s} \\select_{v > 2} T")
        form1, _, keys = _differing(q1, q2, db, {})
        assert keys == {(None, "x"), (1, "x")}
        scoped = aggregates._scoped_to_groups(form1, keys, EngineSession(db), {})
        filters = [n.predicate for n in scoped.walk() if isinstance(n, Selection)]
        assert [f.referenced_columns() for f in filters] == [{"h"}]
        assert _assert_scoped_matches_whole(q1, q2, db) == 2
        _assert_witness_unchanged(q1, q2, db)

        # With the NULL in the only key column nothing restricts.
        q1 = parse_query("\\aggr_{group: g; sum(v) -> s} T")
        q2 = parse_query("\\aggr_{group: g; sum(v) -> s} \\select_{v > 2} T")
        form1, _, keys = _differing(q1, q2, db, {})
        assert (None,) in keys
        assert aggregates._scoped_to_groups(form1, keys, EngineSession(db), {}) is None
        # NULL and 1 tie on variable count: ranking them must not compare None < 1.
        assert smallest_counterexample_agg_basic(q1, q2, db).verified
        _assert_witness_unchanged(q1, q2, db)

    def test_no_differing_candidate_falls_back_to_every_whole_core_group(
        self, instance, monkeypatch
    ):
        from repro.core import aggregates

        # Q1 is empty and Q2 lists (n, name): keyed by Q1's key position the
        # differing keys are counts, which name no group of either query.
        q1 = parse_query("\\aggr_{group: name; count(*) -> n} \\select_{dept = 'XX'} Registration")
        q2 = parse_query("\\project_{n, name} \\aggr_{group: name; count(*) -> n} Registration")
        annotated = []
        real = aggregates.annotate_aggregate_query

        def spy(query, *args, **kwargs):
            annotated.append(query)
            return real(query, *args, **kwargs)

        monkeypatch.setattr(aggregates, "annotate_aggregate_query", spy)
        result = smallest_counterexample_agg_basic(q1, q2, instance)
        assert annotated[2:] == [q1, q2]
        assert annotated[0] != q1 and annotated[1] != q2
        assert result.verified
        assert result.distinguishing_row == ("John",)
        monkeypatch.undo()
        _assert_witness_unchanged(q1, q2, instance)

    def test_key_filter_enters_both_operands_of_a_difference(self, tpch):
        from repro.core import aggregates
        from repro.ra.ast import Difference, RelationRef, Selection
        from repro.ra.predicates import constant_equality
        from repro.workload import tpch_query

        q1 = tpch_query("Q21-S").correct_query
        q2 = parse_query(tpch_query("Q21-S").wrong_texts[1])
        form1, _, keys = _differing(q1, q2, tpch, {})
        names = {key[0] for key in keys}
        suppliers = tpch.relation("supplier").schema
        suppkeys = {
            values[suppliers.index_of("s_suppkey")]
            for _, values in tpch.relation("supplier").tuples()
            if values[suppliers.index_of("s_name")] in names
        }
        assert 0 < len(suppkeys) < len(tpch.relation("supplier"))
        scoped = aggregates._scoped_to_groups(form1, keys, EngineSession(tpch), {})
        (difference,) = [node for node in scoped.walk() if isinstance(node, Difference)]
        for operand in difference.children():
            filtered = []
            for node in operand.walk():
                if isinstance(node, Selection) and node.child == RelationRef("lineitem"):
                    for conjunct in node.predicate.conjuncts():
                        if conjunct.referenced_columns() == {"l_suppkey"}:
                            equalities = getattr(conjunct, "operands", [conjunct])
                            filtered.append({constant_equality(c)[1] for c in equalities})
            assert filtered == [suppkeys]

    def test_null_in_a_join_key_set_leaves_the_other_side_unfiltered(self):
        from repro.catalog.instance import DatabaseInstance
        from repro.catalog.schema import Attribute, DatabaseSchema, RelationSchema
        from repro.catalog.types import DataType
        from repro.core import aggregates
        from repro.ra.ast import RelationRef, Selection

        schema = DatabaseSchema.of(
            [
                RelationSchema(
                    "T",
                    (Attribute("g", DataType.STRING), Attribute("k", DataType.INT, nullable=True)),
                ),
                RelationSchema(
                    "U",
                    (Attribute("k2", DataType.INT, nullable=True), Attribute("w", DataType.INT)),
                ),
            ]
        )
        db = DatabaseInstance(schema)
        for values in [("a", None), ("a", 1), ("b", 2), ("c", 3), ("d", 4)]:
            db.insert("T", values)
        for values in [(None, 5), (1, 7), (2, 4), (3, 9), (3, 1), (4, 8)]:
            db.insert("U", values)
        q1 = parse_query("\\aggr_{group: g; sum(w) -> s} (T \\join_{k = k2} U)")

        def u_filters(threshold):
            q2 = parse_query(
                "\\aggr_{group: g; sum(w) -> s} "
                f"(T \\join_{{k = k2}} \\select_{{w > {threshold}}} U)"
            )
            form1, _, keys = _differing(q1, q2, db, {})
            scoped = aggregates._scoped_to_groups(form1, keys, EngineSession(db), {})
            assert _assert_scoped_matches_whole(q1, q2, db) == 2
            _assert_witness_unchanged(q1, q2, db)
            return keys, [
                node.predicate.referenced_columns()
                for node in scoped.walk()
                if isinstance(node, Selection) and node.child == RelationRef("U")
            ]

        # The hash join pairs T's NULL key with U's NULL key, so group a
        # needs U's (NULL, 5): a key set holding the NULL filters nothing.
        assert u_filters(5) == ({("a",), ("b",), ("c",)}, [])
        # Without group a the key set is {2, 3}, and U is cut to it.
        assert u_filters(4) == ({("b",), ("c",)}, [{"k2"}])


class TestCandidateRanking:
    """Candidates are solved in ``(len(variables), key)`` order, as if each
    constraint's ``variables()`` were computed and sorted on."""

    @staticmethod
    def _assert_old_order(candidates, ranked):
        from repro.core import aggregates

        expected = sorted(
            ((key, constraint.variables()) for key, constraint in candidates),
            key=lambda item: (len(item[1]), aggregates._nulls_last(item[0])),
        )
        assert [(key, names) for key, _, names in ranked] == expected

    @pytest.mark.parametrize("query,index", _tpch_pairs())
    def test_tpch_pairs(self, tpch, tpch_session, query, index, monkeypatch):
        from repro.core import aggregates

        seen = []
        real = aggregates._ranked

        def spy(candidates):
            ranked = real(candidates)
            seen.append((candidates, ranked))
            return ranked

        monkeypatch.setattr(aggregates, "_ranked", spy)
        q1, q2 = query.correct_query, parse_query(query.wrong_texts[index])
        smallest_counterexample_agg_basic(q1, q2, tpch, parameterize=True, session=tpch_session)
        ((candidates, ranked),) = seen
        self._assert_old_order(candidates, ranked)
        if (query.key, index) == ("Q18", 0):
            assert len(candidates) == 176

    def test_all_groups_solves_every_candidate_in_the_old_order(
        self, tpch, tpch_session, monkeypatch
    ):
        from repro.core import aggregates
        from repro.workload import tpch_query

        seen, solved = [], []
        ranked_for_real, problem_for_real = aggregates._ranked, aggregates.AggregateProblem

        def rank(candidates):
            ranked = ranked_for_real(candidates)
            seen.append((candidates, ranked))
            return ranked

        def problem(constraint):
            solved.append(constraint)
            return problem_for_real(constraint=constraint)

        monkeypatch.setattr(aggregates, "_ranked", rank)
        monkeypatch.setattr(aggregates, "AggregateProblem", problem)
        q1 = tpch_query("Q18").correct_query
        q2 = parse_query(tpch_query("Q18").wrong_texts[0])
        result = smallest_counterexample_agg_basic(
            q1, q2, tpch, parameterize=True, all_groups=True, session=tpch_session
        )
        ((candidates, ranked),) = seen
        self._assert_old_order(candidates, ranked)
        assert solved == [constraint for _, constraint, _ in ranked]
        assert result.verified and result.optimal
