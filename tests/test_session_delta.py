"""Sessions across edits: mutation API, selective memo drops, clause reuse.

The contract under test: a warm :class:`EngineSession` survives instance
mutations.  A relation is touched when its version moved or when it appeared
or disappeared; every memo entry whose plan scans a touched relation is
dropped, in every domain, and every other entry is kept as the same object.
Reconciling runs no operator, and everything stays bit-identical to a cold
session over the mutated data.  The solver side: structurally equal
provenance CNFs (renamed duplicate submissions) warm-start from a cached
clause set.
"""

from __future__ import annotations

import pytest

from repro.catalog.instance import DatabaseInstance, Relation
from repro.catalog.schema import RelationSchema
from repro.catalog.types import DataType
from repro.datagen import toy_university_instance
from repro.engine.physical import PlanExecutor
from repro.engine.session import EngineSession, plan_scan_relations
from repro.errors import SchemaError, UnknownRelationError
from repro.parser.ra_parser import parse_query


def _entries(session: EngineSession) -> dict:
    """Every memo entry of every domain: ``{(domain, key): value}``."""
    return {
        (domain, key): value
        for domain, memo in session._results.items()
        for key, value in memo.items()
    }


def _scans(entry_key) -> frozenset:
    _domain, (plan, _binding) = entry_key
    return plan_scan_relations(plan, {})


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
        assert instance.update(tid, student.row(tid)) == (old, old)
        assert student.version == before

    def test_update_arity_mismatch_raises_schema_error(self):
        instance = toy_university_instance()
        tid = instance.relation("Student").tids()[0]
        with pytest.raises(SchemaError, match="expects 2 values"):
            instance.relation("Student").update(tid, ("only-one",))

    def test_instance_level_mutations_return_what_the_relation_returns(self):
        instance = toy_university_instance()
        student = instance.relation("Student")
        before = student.version
        tid = instance.insert("Student", ("Zoe", "CS"))
        assert student.row(tid) == ("Zoe", "CS")
        assert instance.update(tid, ("Zoe", "ECON")) == (("Zoe", "CS"), ("Zoe", "ECON"))
        assert instance.delete(tid) == ("Zoe", "ECON")
        assert tid not in student
        assert student.version == before + 3

    def test_subset_inherits_the_version(self):
        student = toy_university_instance().relation("Student")
        student.insert(("Ada", "CS"))
        sub = student.subset(student.tids()[:2])
        assert sub.version == student.version  # no version aliasing


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


class TestSessionReconciliation:
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
        for expression in self._annotatable(expressions):
            session.annotated_rows(expression)
        return session, expressions

    def _annotatable(self, expressions):
        """Boolean provenance does not cover aggregation."""
        return [e for q, e in zip(self.QUERIES, expressions) if "aggr" not in q]

    def test_untouched_entries_survive_as_the_same_object(self):
        instance = toy_university_instance()
        session, _ = self._warm(instance)
        before = _entries(session)
        instance.insert("Student", ("Zoe", "CS"))
        counts = session.apply_delta()
        after = _entries(session)
        kept = {key for key in before if "Student" not in _scans(key)}
        assert kept  # Registration-only subplans, in both domains
        assert {domain for domain, _ in kept} == {"set", "provenance"}
        for key in kept:
            assert after[key] is before[key]
        assert counts["delta_maintained"] == len(kept)

    def test_touched_entries_are_gone_from_every_domain(self):
        instance = toy_university_instance()
        session, _ = self._warm(instance)
        before = _entries(session)
        instance.update(instance.relation("Registration").tids()[0], ("Mary", "103", "MATH", 31))
        counts = session.apply_delta()
        touched = {key for key in before if "Registration" in _scans(key)}
        assert {domain for domain, _ in touched} == {"set", "provenance"}
        assert touched.isdisjoint(_entries(session))
        assert set(_entries(session)) == set(before) - touched
        assert counts == {
            "delta_maintained": len(before) - len(touched),
            "delta_dropped": len(touched),
        }

    def test_reconciliation_executes_no_operator(self, monkeypatch):
        instance = toy_university_instance()
        session, expressions = self._warm(instance)
        instance.insert("Registration", ("Mary", "999", "CS", 88))
        instance.delete(instance.relation("Student").tids()[0])

        def refuse(self, plan):
            raise AssertionError(f"reconciliation executed {type(plan).__name__}")

        with monkeypatch.context() as patched:
            patched.setattr(PlanExecutor, "_execute", refuse)
            counts = session.apply_delta()
        assert counts["delta_dropped"] > 0
        cold = EngineSession(instance)
        for expression in expressions:
            assert session.evaluate(expression) == cold.evaluate(expression)

    def test_results_after_mixed_edits_match_a_cold_session(self):
        instance = toy_university_instance()
        session, expressions = self._warm(instance)
        reg = instance.relation("Registration")
        instance.insert("Registration", ("Mary", "999", "CS", 88))
        instance.update(reg.tids()[0], ("Mary", "103", "MATH", 31))
        instance.delete(reg.tids()[1])
        instance.insert("Student", ("Zoe", "CS"))
        cold = EngineSession(instance)
        for expression in expressions:
            assert session.evaluate(expression) == cold.evaluate(expression)
        for expression in self._annotatable(expressions):
            assert session.annotated_rows(expression) == cold.annotated_rows(expression)

    def test_an_edit_that_nets_out_still_drops(self):
        """Versions, not contents, decide: an insert undone by a delete
        touches the relation."""
        instance = toy_university_instance()
        session, expressions = self._warm(instance)
        student = instance.relation("Student")
        student.delete(student.insert(("Zoe", "CS")))
        counts = session.apply_delta()
        assert counts["delta_dropped"] > 0
        cold = EngineSession(instance)
        for expression in expressions:
            assert session.evaluate(expression) == cold.evaluate(expression)

    def test_an_update_to_identical_values_drops_nothing(self):
        instance = toy_university_instance()
        session, _ = self._warm(instance)
        before = _entries(session)
        tid = instance.relation("Registration").tids()[0]
        instance.update(tid, instance.lookup(tid))
        assert session.apply_delta() == {"delta_maintained": 0, "delta_dropped": 0}
        assert _entries(session) == before

    def test_provenance_entries_over_touched_relations_are_dropped(self):
        instance = toy_university_instance()
        session = EngineSession(instance)
        query = parse_query(r"\select_{major = 'CS'} Student")
        session.annotated_rows(query)
        before = session.cache_info()["delta_dropped"]
        instance.insert("Student", ("Zoe", "CS"))
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
        assert counts == {"delta_maintained": 0, "delta_dropped": 0}

    def test_mutations_accumulated_while_cold_are_absorbed_lazily(self):
        """The session reconciles on the next execute, not only on apply_delta."""
        instance = toy_university_instance()
        session, expressions = self._warm(instance)
        instance.insert("Student", ("Zoe", "CS"))
        instance.insert("Registration", ("Zoe", "101", "CS", 91))
        cold = EngineSession(instance)
        for expression in expressions:
            assert session.evaluate(expression) == cold.evaluate(expression)
        assert session.cache_info()["delta_dropped"] > 0

    def test_compiled_plans_survive_an_edit(self):
        instance = toy_university_instance()
        session, expressions = self._warm(instance)
        plans = session.cache_info()["cached_plans"]
        misses = session.stats["plan_misses"]
        instance.insert("Registration", ("Zoe", "101", "CS", 91))
        for expression in expressions:
            session.evaluate(expression)
        assert session.cache_info()["cached_plans"] == plans
        assert session.stats["plan_misses"] == misses

    def test_a_lazy_reconcile_leaves_apply_delta_nothing_to_do(self):
        instance = toy_university_instance()
        session, expressions = self._warm(instance)
        instance.insert("Student", ("Zoe", "CS"))
        session.evaluate(expressions[0])  # reconciles on the way in
        assert session.apply_delta() == {"delta_maintained": 0, "delta_dropped": 0}


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


class TestRelationSetChanges:
    GHOST = RelationSchema.of(
        "Ghost", [("name", DataType.STRING), ("major", DataType.STRING)]
    )

    def _instance(self) -> DatabaseInstance:
        instance = toy_university_instance()
        instance.schema.add_relation(self.GHOST)
        return instance

    def test_a_relation_appearing_drops_only_the_entries_that_scan_it(self):
        instance = self._instance()
        session = EngineSession(instance)
        session.evaluate(parse_query(r"\project_{name} Student"))
        session.annotated_rows(parse_query("Registration"))
        before = _entries(session)
        instance.relations["Ghost"] = Relation(self.GHOST)
        counts = session.apply_delta()
        assert counts == {"delta_maintained": len(before), "delta_dropped": 0}
        after = _entries(session)
        assert after.keys() == before.keys()
        for key, value in before.items():
            assert after[key] is value
        assert len(session.evaluate(parse_query("Ghost"))) == 0

    def test_a_relation_disappearing_drops_only_the_entries_that_scan_it(self):
        instance = self._instance()
        ghost = instance.relations["Ghost"] = Relation(self.GHOST)
        ghost.insert(("Casper", "CS"))
        session = EngineSession(instance)
        for text in (
            r"\project_{name} Student",
            r"\select_{major = 'CS'} Ghost",
            r"\project_{name} Ghost \diff \project_{name} Student",
            "Registration",
        ):
            session.evaluate(parse_query(text))
            session.annotated_rows(parse_query(text))
        before = _entries(session)
        haunted = {key for key in before if "Ghost" in _scans(key)}
        assert haunted and haunted != before.keys()
        del instance.relations["Ghost"]
        counts = session.apply_delta()
        assert counts == {
            "delta_maintained": len(before) - len(haunted),
            "delta_dropped": len(haunted),
        }
        after = _entries(session)
        assert after.keys() == before.keys() - haunted
        for key in after:
            assert after[key] is before[key]
        running = sum(memo.weight for memo in session._results.values())
        assert running == sum(len(rows) for rows in after.values())
        # The ghost's plans survive, so a query over it fails as a cold
        # session's would, when it reads the missing relation.
        with pytest.raises(UnknownRelationError, match="Ghost"):
            session.evaluate(parse_query(r"\select_{major = 'CS'} Ghost"))


class TestServiceMutate:
    def test_reply_carries_the_two_memo_counters(self):
        from repro.api.registry import DatasetRegistry
        from repro.api.service import GradingService

        service = GradingService(DatasetRegistry(), default_dataset="toy-university")
        session = service.handle_for().session
        session.evaluate(parse_query(r"\project_{name} Student"))
        session.evaluate(parse_query("Registration"))
        reply = service.mutate(
            {
                "operations": [
                    {"op": "insert", "relation": "Student", "values": ["Zoe", "ART"], "tid": "Student:90"},
                    {"op": "update", "tid": "Student:90", "values": ["Zoe", "CS"]},
                ]
            }
        )
        assert reply["applied"] == 2
        assert reply["delta"] == {"delta_maintained": 1, "delta_dropped": 2}
        assert service.handle_for().instance.lookup("Student:90") == ("Zoe", "CS")

    def test_grades_after_mutate_match_a_service_that_mutated_first(self):
        from repro.api.registry import DatasetRegistry
        from repro.api.service import GradingService
        from repro.workload.course import course_questions

        edits = {
            "operations": [
                {"op": "insert", "relation": "Student", "values": ["Zoe", "CS"]},
                {"op": "insert", "relation": "Registration", "values": ["Zoe", "230", "CS", 93]},
                {"op": "delete", "tid": "Registration:4"},
            ]
        }
        requests = [
            {"correct_query": question.correct_text, "test_query": wrong}
            for question in course_questions()[:3]
            for wrong in question.wrong_texts[:2]
        ]
        warm = GradingService(DatasetRegistry(), default_dataset="toy-university")
        for request in requests:
            warm.submit(request)
        warm.mutate(edits)
        cold = GradingService(DatasetRegistry(), default_dataset="toy-university")
        cold.mutate(edits)
        for request in requests:
            assert warm.submit(request).to_dict(include_timings=False) == cold.submit(
                request
            ).to_dict(include_timings=False)
