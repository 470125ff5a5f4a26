"""Delta-aware sessions: mutation API, incremental caches, clause reuse.

The tentpole contract under test: a warm :class:`EngineSession` survives
instance mutations.  Memo entries whose plans scan only untouched relations
survive verbatim, set-domain entries over touched relations are patched
differentially, provenance entries are dropped (one cold re-evaluation), and
everything stays bit-identical to a cold session over the mutated data.  The
solver side: structurally equal provenance CNFs (renamed duplicate
submissions) warm-start from a cached clause set.
"""

from __future__ import annotations

import pytest

from repro.catalog.delta import Delta, RelationDelta
from repro.catalog.instance import MUTATION_LOG_CAPACITY, DatabaseInstance
from repro.datagen import toy_university_instance, university_schema
from repro.engine.session import EngineSession
from repro.errors import SchemaError
from repro.parser.ra_parser import parse_query


def _fresh_copy(instance: DatabaseInstance) -> DatabaseInstance:
    """An independent instance with identical contents and tids."""
    return DatabaseInstance.from_dict(instance.to_dict())


class TestMutationAPI:
    def test_delete_returns_values_and_bumps_version(self):
        instance = toy_university_instance()
        student = instance.relation("Student")
        tid = student.tids()[0]
        before = student.version
        values = student.delete(tid)
        assert tid not in student
        assert values not in student.value_set() or True  # duplicates allowed
        assert student.version == before + 1

    def test_delete_unknown_tid_raises_keyerror(self):
        instance = toy_university_instance()
        with pytest.raises(KeyError, match="Student:999"):
            instance.relation("Student").delete("Student:999")

    def test_update_preserves_position_and_identifier(self):
        instance = toy_university_instance()
        student = instance.relation("Student")
        tid = student.tids()[1]
        order_before = student.tids()
        old, new = student.update(tid, ("Renamed", "CS"))
        assert student.tids() == order_before
        assert student.row(tid) == ("Renamed", "CS")
        assert old != new

    def test_update_to_identical_values_is_a_no_op(self):
        instance = toy_university_instance()
        student = instance.relation("Student")
        tid = student.tids()[0]
        before = student.version
        old, new = student.update(tid, student.row(tid))
        assert old == new
        assert student.version == before
        assert instance.update(tid, student.row(tid)).relations == frozenset()

    def test_update_arity_mismatch_raises_schema_error(self):
        instance = toy_university_instance()
        tid = instance.relation("Student").tids()[0]
        with pytest.raises(SchemaError, match="expects 2 values"):
            instance.relation("Student").update(tid, ("only-one",))

    def test_instance_level_mutations_return_typed_deltas(self):
        instance = toy_university_instance()
        delta = instance.insert_row("Student", ("Zoe", "CS"))
        assert delta.relations == frozenset({"Student"})
        (change,) = delta.changes
        assert change.inserted and not change.deleted
        tid = change.inserted[0][0]
        delta = instance.update(tid, ("Zoe", "ECON"))
        (change,) = delta.changes
        assert change.inserted[0][1] == ("Zoe", "ECON")
        assert change.deleted[0][1] == ("Zoe", "CS")
        delta = instance.delete(tid)
        (change,) = delta.changes
        assert change.deleted[0][0] == tid


class TestMutationLog:
    def test_changes_since_returns_ordered_entries(self):
        instance = toy_university_instance()
        student = instance.relation("Student")
        base = student.version
        tid = student.insert(("Ada", "CS"))
        student.update(tid, ("Ada", "MATH"))
        student.delete(tid)
        entries = student.changes_since(base)
        assert [entry[1] for entry in entries] == ["+", "~", "-"]
        assert [entry[0] for entry in entries] == [base + 1, base + 2, base + 3]

    def test_changes_since_current_version_is_empty(self):
        student = toy_university_instance().relation("Student")
        assert student.changes_since(student.version) == []

    def test_future_version_reports_a_gap(self):
        student = toy_university_instance().relation("Student")
        assert student.changes_since(student.version + 1) is None

    def test_log_eviction_reports_a_gap(self):
        instance = toy_university_instance()
        student = instance.relation("Student")
        base = student.version
        for i in range(MUTATION_LOG_CAPACITY + 1):
            tid = student.insert((f"bulk{i}", "CS"))
            student.delete(tid)
        assert student.changes_since(base) is None

    def test_net_delta_collapses_insert_update_delete(self):
        instance = toy_university_instance()
        student = instance.relation("Student")
        base = student.version
        tid = student.insert(("Ada", "CS"))
        student.update(tid, ("Ada", "MATH"))
        student.delete(tid)
        assert student.delta_since(base).is_empty()

    def test_net_delta_collapses_update_back_to_original(self):
        instance = toy_university_instance()
        student = instance.relation("Student")
        tid = student.tids()[0]
        original = student.row(tid)
        base = student.version
        student.update(tid, ("Elsewhere", "ART"))
        student.update(tid, original)
        assert student.delta_since(base).is_empty()

    def test_subset_inherits_version_but_not_log(self):
        instance = toy_university_instance()
        student = instance.relation("Student")
        base = student.version
        student.insert(("Ada", "CS"))
        sub = student.subset(student.tids()[:2])
        assert sub.version == student.version  # no version aliasing
        assert sub.changes_since(base) is None  # fresh copy: gap, cold eval

    def test_delta_merge_nets_out_round_trips(self):
        insert = Delta((RelationDelta("R", inserted=(("R:1", (1,)),)),))
        delete = Delta((RelationDelta("R", deleted=(("R:1", (1,)),)),))
        # Insert-then-delete and delete-then-reinsert-identical both net out.
        assert Delta.merge([insert, delete]).relations == frozenset()
        assert Delta.merge([delete, insert]).relations == frozenset()
        # Reinserting *different* values is a net update.
        replace = Delta((RelationDelta("R", inserted=(("R:1", (2,)),)),))
        merged = Delta.merge([delete, replace]).by_relation()["R"]
        assert merged.deleted == (("R:1", (1,)),)
        assert merged.inserted == (("R:1", (2,)),)


class TestIndexMaintenance:
    def test_incremental_index_equals_rebuild_after_mixed_edits(self):
        instance = toy_university_instance()
        reg = instance.relation("Registration")
        index = reg.hash_index((2,))  # by dept
        tid = reg.insert(("Mary", "999", "CS", 50))
        reg.update(tid, ("Mary", "999", "ART", 50))
        reg.delete(reg.tids()[0])
        fresh = {}
        for t, values in reg.tuples():
            fresh.setdefault((values[2],), []).append((t, values))
        assert index == fresh


class TestSessionDeltaMaintenance:
    QUERIES = (
        r"\project_{name} Student",
        r"\select_{dept = 'CS'} Registration",
        r"\project_{name} (\select_{grade > 60} Registration)",
        r"Student \join Registration",
        r"\aggr_{group: name; count(*) -> n, avg(grade) -> g} Registration",
        r"\project_{name} Student \diff \project_{name} Registration",
    )

    def _warm(self, instance):
        session = EngineSession(instance)
        expressions = [parse_query(q) for q in self.QUERIES]
        for expression in expressions:
            session.evaluate(expression)
        return session, expressions

    def test_untouched_relation_memos_survive(self):
        instance = toy_university_instance()
        session, _ = self._warm(instance)
        instance.insert_row("Student", ("Zoe", "CS"))
        counts = session.apply_delta()
        assert counts["delta_maintained"] > 0  # Registration-only subplans
        assert counts["delta_fallback"] == 0
        assert session.cache_info()["invalidations"] == 0

    def test_patched_results_match_a_cold_session(self):
        instance = toy_university_instance()
        session, expressions = self._warm(instance)
        reg = instance.relation("Registration")
        instance.insert_row("Registration", ("Mary", "999", "CS", 88))
        instance.update(reg.tids()[0], ("Mary", "103", "MATH", 31))
        instance.delete(reg.tids()[1])
        instance.insert_row("Student", ("Zoe", "CS"))
        counts = session.apply_delta()
        assert counts["delta_patched"] > 0
        cold = EngineSession(instance)
        for expression in expressions:
            assert session.evaluate(expression) == cold.evaluate(expression)
        assert session.cache_info()["invalidations"] == 0

    def test_log_gap_falls_back_to_wholesale_invalidation(self):
        instance = toy_university_instance()
        session, expressions = self._warm(instance)
        student = instance.relation("Student")
        tid = student.insert(("Zoe", "CS"))
        student._log.clear()  # simulate eviction past the needed suffix
        counts = session.apply_delta()
        assert counts["delta_fallback"] == 1
        assert session.cache_info()["invalidations"] == 1
        cold = EngineSession(instance)
        for expression in expressions:
            assert session.evaluate(expression) == cold.evaluate(expression)

    def test_provenance_entries_over_touched_relations_are_dropped(self):
        instance = toy_university_instance()
        session = EngineSession(instance)
        query = parse_query(r"\select_{major = 'CS'} Student")
        session.annotated_rows(query)
        before = session.cache_info()["delta_dropped"]
        instance.insert_row("Student", ("Zoe", "CS"))
        counts = session.apply_delta()
        assert counts["delta_dropped"] >= 1
        # The provenance of the fresh instance still comes out right (cold).
        _, rows = session.annotated_rows(query)
        assert any(values == ("Zoe", "CS") for values in rows)
        assert session.cache_info()["delta_dropped"] > before

    def test_apply_delta_without_mutation_reports_nothing(self):
        instance = toy_university_instance()
        session, _ = self._warm(instance)
        counts = session.apply_delta()
        assert counts == {
            "delta_maintained": 0,
            "delta_patched": 0,
            "delta_dropped": 0,
            "delta_fallback": 0,
        }

    def test_mutations_accumulated_while_cold_are_absorbed_lazily(self):
        """The session reconciles on the next execute, not only on apply_delta."""
        instance = toy_university_instance()
        session, expressions = self._warm(instance)
        instance.insert_row("Student", ("Zoe", "CS"))
        instance.insert_row("Registration", ("Zoe", "101", "CS", 91))
        cold = EngineSession(instance)
        for expression in expressions:
            assert session.evaluate(expression) == cold.evaluate(expression)
        info = session.cache_info()
        assert info["invalidations"] == 0
        assert info["delta_patched"] > 0


class TestClauseReuse:
    def test_renamed_duplicate_submission_hits_the_clause_cache(self):
        from repro.core.optsigma import smallest_witness_optsigma

        instance = toy_university_instance()
        session = EngineSession(instance)
        ref = parse_query(r"\select_{major = 'CS'} Student")
        wrong = parse_query(r"\select_{major = 'ECON'} Student")
        renamed = parse_query(
            r"\rename_{who -> name} (\select_{major = 'ECON'} "
            r"(\rename_{name -> who} Student))"
        )
        first = smallest_witness_optsigma(ref, wrong, instance, session=session)
        assert session.clause_cache.misses >= 1
        hits_before = session.clause_cache.hits
        second = smallest_witness_optsigma(ref, renamed, instance, session=session)
        assert session.clause_cache.hits > hits_before
        # Warm-started solving must not change the grade.
        assert first.distinguishing_row == second.distinguishing_row
        assert first.tids == second.tids
        assert second.optimal

    def test_warm_and_cold_solves_agree(self):
        from repro.core.fk import foreign_key_clauses
        from repro.provenance import annotate
        from repro.ra.ast import Difference
        from repro.solver.clausecache import ClauseCache
        from repro.solver.minones import MinOnesProblem, MinOnesSolver

        from repro.ra import evaluate

        instance = toy_university_instance()
        q1 = parse_query(r"\select_{grade > 60} Registration")
        q2 = parse_query(r"\select_{grade > 90} Registration")
        difference = Difference(q1, q2)
        row = sorted(evaluate(difference, instance).rows)[0]
        annotated = annotate(difference, instance)
        expression = annotated.expression_for(row)

        def build():
            problem = MinOnesProblem()
            problem.add_constraint(expression)
            for clause in foreign_key_clauses(instance, expression.variables()):
                problem.add_foreign_key(clause.child, clause.parents)
            return problem

        cache = ClauseCache()
        cold = MinOnesSolver(build(), clause_cache=cache).minimize()
        assert cache.misses == 1 and cache.hits == 0
        warm = MinOnesSolver(build(), clause_cache=cache).minimize()
        assert cache.hits == 1
        assert warm.cost == cold.cost
        assert warm.optimal == cold.optimal
        assert warm.true_variables == cold.true_variables


class TestSchemaChangeStillInvalidates:
    def test_relation_set_change_forces_wholesale_drop(self):
        instance = toy_university_instance()
        session = EngineSession(instance)
        session.evaluate(parse_query(r"\project_{name} Student"))
        # Simulate a relation appearing (e.g. a re-registered instance).
        from repro.catalog.instance import Relation

        extra_schema = university_schema().relation("Student")
        instance.relations["Ghost"] = Relation(extra_schema)
        session.apply_delta()
        assert session.cache_info()["invalidations"] == 1
        del instance.relations["Ghost"]
