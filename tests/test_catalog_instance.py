"""Tests for relations, database instances, subinstances and result sets."""

import pytest

from repro.catalog import (
    DatabaseInstance,
    DatabaseSchema,
    DataType,
    RelationSchema,
    ResultSet,
    split_tid,
)
from repro.datagen import toy_university_instance, university_schema
from repro.errors import SchemaError, TypeMismatchError, UnknownRelationError


@pytest.fixture
def simple_db() -> DatabaseInstance:
    schema = DatabaseSchema.of(
        [RelationSchema.of("R", [("a", DataType.INT), ("b", DataType.STRING)])]
    )
    return DatabaseInstance(schema)


class TestRelation:
    def test_insert_assigns_sequential_tids(self, simple_db):
        relation = simple_db.relation("R")
        assert relation.insert((1, "x")) == "R:1"
        assert relation.insert((2, "y")) == "R:2"

    def test_insert_coerces_types(self, simple_db):
        relation = simple_db.relation("R")
        with pytest.raises(TypeMismatchError):
            relation.insert(("not-an-int", "x"))

    def test_insert_wrong_arity(self, simple_db):
        with pytest.raises(SchemaError):
            simple_db.relation("R").insert((1,))

    def test_duplicate_tid_rejected(self, simple_db):
        relation = simple_db.relation("R")
        relation.insert((1, "x"), tid="R:7")
        with pytest.raises(SchemaError):
            relation.insert((2, "y"), tid="R:7")

    def test_duplicate_values_get_distinct_tids(self, simple_db):
        relation = simple_db.relation("R")
        t1 = relation.insert((1, "x"))
        t2 = relation.insert((1, "x"))
        assert t1 != t2
        assert len(relation) == 2
        assert len(relation.value_set()) == 1

    def test_subset(self, simple_db):
        relation = simple_db.relation("R")
        tids = relation.insert_all([(1, "x"), (2, "y"), (3, "z")])
        sub = relation.subset(tids[:2])
        assert len(sub) == 2
        assert sub.row(tids[0]) == (1, "x")

    def test_subset_unknown_tid(self, simple_db):
        with pytest.raises(KeyError):
            simple_db.relation("R").subset(["R:99"])

    def test_to_dicts(self, simple_db):
        simple_db.relation("R").insert((1, "x"))
        assert simple_db.relation("R").to_dicts() == [{"a": 1, "b": "x"}]


class TestDatabaseInstance:
    def test_toy_instance_size(self):
        instance = toy_university_instance()
        assert instance.total_size() == 11
        assert len(instance.relation("Student")) == 3
        assert len(instance.relation("Registration")) == 8

    def test_lookup_by_tid(self):
        instance = toy_university_instance()
        assert instance.lookup("Student:1") == ("Mary", "CS")

    def test_split_tid(self):
        assert split_tid("Registration:4") == ("Registration", "4")
        with pytest.raises(ValueError):
            split_tid("garbage")

    def test_subinstance_keeps_tids(self):
        instance = toy_university_instance()
        sub = instance.subinstance({"Student:1", "Registration:1"})
        assert sub.total_size() == 2
        assert sub.lookup("Student:1") == ("Mary", "CS")

    def test_subinstance_unknown_relation(self):
        instance = toy_university_instance()
        with pytest.raises(UnknownRelationError):
            instance.subinstance({"Unknown:1"})

    def test_subinstance_is_independent_copy(self):
        instance = toy_university_instance()
        sub = instance.subinstance({"Student:1"})
        sub.relation("Student").insert(("Zoe", "ART"))
        assert len(instance.relation("Student")) == 3

    def test_from_dict(self):
        instance = DatabaseInstance.from_dict(
            university_schema(), {"Student": [("A", "CS")], "Registration": []}
        )
        assert instance.total_size() == 1

    def test_constraint_checking(self):
        instance = toy_university_instance()
        assert instance.satisfies_constraints()
        # Danging registration violates the foreign key.
        instance.relation("Registration").insert(("Ghost", "101", "CS", 80))
        assert not instance.satisfies_constraints()

    def test_all_tids(self):
        instance = toy_university_instance()
        assert len(instance.all_tids()) == 11
        assert "Registration:8" in instance.all_tids()


class TestResultSet:
    def test_set_semantics(self):
        schema = RelationSchema.of("R", [("a", DataType.INT)])
        result = ResultSet.of(schema, [(1,), (1,), (2,)])
        assert len(result) == 2
        assert (1,) in result

    def test_same_rows_ignores_schema_names(self):
        r1 = ResultSet.of(RelationSchema.of("A", [("x", DataType.INT)]), [(1,)])
        r2 = ResultSet.of(RelationSchema.of("B", [("y", DataType.INT)]), [(1,)])
        assert r1.same_rows(r2)

    def test_minus_and_symmetric_difference(self):
        schema = RelationSchema.of("R", [("a", DataType.INT)])
        r1 = ResultSet.of(schema, [(1,), (2,)])
        r2 = ResultSet.of(schema, [(2,), (3,)])
        assert r1.minus(r2).rows == frozenset({(1,)})
        assert r1.symmetric_difference(r2).rows == frozenset({(1,), (3,)})

    def test_sorted_rows_deterministic(self):
        schema = RelationSchema.of("R", [("a", DataType.INT)])
        result = ResultSet.of(schema, [(3,), (1,), (2,)])
        assert result.sorted_rows() == [(1,), (2,), (3,)]

    def test_to_dicts(self):
        schema = RelationSchema.of("R", [("a", DataType.INT), ("b", DataType.STRING)])
        result = ResultSet.of(schema, [(1, "x")])
        assert result.to_dicts() == [{"a": 1, "b": "x"}]


def _fresh_index(relation, key_indexes):
    """The index a cold build over the relation's current rows produces."""
    return relation.copy().hash_index(key_indexes)


class TestMaintainedIndexOrder:
    """A hash index maintained under edits equals a fresh build, bucket order included."""

    def test_update_keeping_the_key_keeps_the_bucket_slot(self):
        from repro.datagen import university_instance

        registration = university_instance(20).relation("Registration")
        index = registration.hash_index((1,))
        name, course, dept, grade = registration.row("Registration:1")
        registration.update("Registration:1", (name, course, dept, grade + 1))
        bucket = [tid for tid, _ in index[(course,)]]
        assert bucket == [tid for tid, _ in _fresh_index(registration, (1,))[(course,)]]
        assert bucket == [
            tid for tid, values in registration.tuples() if values[1] == course
        ]
        assert dict(index[(course,)])["Registration:1"][3] == grade + 1

    def test_update_moving_a_tuple_lands_at_its_insertion_rank(self, simple_db):
        relation = simple_db.relation("R")
        for a in (1, 2, 1, 2):
            relation.insert((a, "x"))
        index = relation.hash_index((0,))
        relation.update("R:1", (2, "x"))  # R:1 now precedes R:2 and R:4 in bucket 2
        assert [tid for tid, _ in index[(2,)]] == ["R:1", "R:2", "R:4"]
        assert [tid for tid, _ in index[(1,)]] == ["R:3"]
        assert index == _fresh_index(relation, (0,))

    @pytest.mark.parametrize("seed", range(8))
    def test_random_edit_streams_match_a_fresh_build(self, seed):
        import random

        rng = random.Random(seed)
        schema = DatabaseSchema.of(
            [
                RelationSchema.of(
                    "R", [("a", DataType.INT), ("b", DataType.INT), ("c", DataType.STRING)]
                )
            ]
        )
        relation = DatabaseInstance(schema).relation("R")
        keys = [(0,), (1,), (0, 2)]

        def random_row():
            return (rng.randrange(4), rng.randrange(3), rng.choice("xy"))

        for _ in range(12):
            relation.insert(random_row())
        for step in range(150):
            if step in (0, 40, 90):  # indexes built at different points of the stream
                relation.hash_index(keys[step % 3])
            live = relation.tids()
            op = rng.random()
            if op < 0.3 or not live:
                relation.insert(random_row())
            elif op < 0.5:
                relation.delete(rng.choice(live))
            elif op < 0.6:
                # Re-insert under an explicit, previously used identifier.
                tid = rng.choice(live)
                values = relation.delete(tid)
                relation.insert(values, tid=tid)
            else:
                relation.update(rng.choice(live), random_row())
            for key in keys:
                if key in relation._indexes:
                    assert relation.hash_index(key) == _fresh_index(relation, key)
