"""Frontier-only foreign-key work agrees with whole-relation ``implications()``.

``foreign_key_clauses``, ``dangling_children`` and ``close_under_foreign_keys``
answer each tuple with one lookup in the parent relation's maintained hash
index.  The references below are the whole-relation formulations they
replaced, built on :meth:`ForeignKeyConstraint.implications`; outputs must be
identical — clause order and parent order included — on every bundled
dataset, and again after edits that move, add and remove parents.
"""

from __future__ import annotations

import random

import pytest

from repro.catalog.constraints import ForeignKeyConstraint, close_under_foreign_keys
from repro.catalog.instance import DatabaseInstance, split_tid
from repro.catalog.schema import Attribute, DatabaseSchema, RelationSchema
from repro.catalog.types import DataType
from repro.core.fk import dangling_children, foreign_key_clauses
from repro.datagen import beers_instance, tpch_instance, university_instance
from repro.solver.minones import ForeignKeyClause


def _foreign_keys(instance):
    return [c for c in instance.schema.constraints if isinstance(c, ForeignKeyConstraint)]


def reference_clauses(instance, relevant_tids):
    implications_per_fk = [(fk, fk.implications(instance)) for fk in _foreign_keys(instance)]
    clauses = []
    emitted = set()
    frontier = set(relevant_tids)
    processed = set()
    while frontier:
        tid = frontier.pop()
        if tid in processed:
            continue
        processed.add(tid)
        relation_name, _ = split_tid(tid)
        for fk, implications in implications_per_fk:
            if fk.child != relation_name or tid not in implications:
                continue
            if (tid, str(fk)) in emitted:
                continue
            emitted.add((tid, str(fk)))
            parents = tuple(implications[tid])
            clauses.append(ForeignKeyClause(tid, parents))
            for parent in parents:
                if parent not in processed:
                    frontier.add(parent)
    return clauses


def reference_dangling(instance):
    return {
        child
        for fk in _foreign_keys(instance)
        for child, parents in fk.implications(instance).items()
        if not parents
    }


def reference_closure(instance, tids):
    foreign_keys = _foreign_keys(instance)
    unsupportable = reference_dangling(instance)
    closed = set(tids)
    changed = True
    while changed:
        changed = False
        for fk in foreign_keys:
            for child, parents in fk.implications(instance).items():
                if child not in closed or not parents:
                    continue
                if not any(parent in closed for parent in parents):
                    supportable = [p for p in parents if p not in unsupportable]
                    closed.add(supportable[0] if supportable else parents[0])
                    changed = True
    return closed


def _children(instance):
    return sorted(
        {tid for fk in _foreign_keys(instance) for tid in instance.relation(fk.child).tids()}
    )


def assert_agrees(instance, seed):
    rng = random.Random(seed)
    children = _children(instance)
    everything = sorted(instance.all_tids())
    assert dangling_children(instance) == reference_dangling(instance)
    for size in (1, 3, 12):
        tids = rng.sample(children, min(size, len(children)))
        assert foreign_key_clauses(instance, tids) == reference_clauses(instance, tids)
        assert close_under_foreign_keys(instance, tids) == reference_closure(instance, tids)
        mixed = rng.sample(everything, min(size, len(everything)))
        assert foreign_key_clauses(instance, mixed) == reference_clauses(instance, mixed)
        assert close_under_foreign_keys(instance, mixed) == reference_closure(instance, mixed)


DATASETS = {
    "university": lambda: university_instance(60, seed=2),
    "beers": lambda: beers_instance(seed=3),
    "tpch": lambda: tpch_instance(0.02, seed=1),
}


@pytest.mark.parametrize("name", sorted(DATASETS))
@pytest.mark.parametrize("seed", range(4))
def test_frontier_lookups_match_implications(name, seed):
    assert_agrees(DATASETS[name](), seed)


@pytest.mark.parametrize("name", sorted(DATASETS))
def test_agreement_survives_parent_edits(name):
    instance = DATASETS[name]()
    rng = random.Random(7)
    assert_agrees(instance, 0)  # builds the parent indexes before the edits
    for step, fk in enumerate(_foreign_keys(instance)):
        parent = instance.relation(fk.parent)
        key_idx = [parent.schema.index_of(a) for a in fk.parent_attributes]
        donor, moved, victim = rng.sample(parent.tids(), 3)
        # Parent update onto another parent's key: two parents now share a
        # bucket, and ``moved``'s old key has lost its parent.
        values = list(parent.row(moved))
        for i in key_idx:
            values[i] = parent.row(donor)[i]
        instance.update(moved, values)
        # Parent delete: its children (if any) dangle.
        instance.delete(victim)
        # Re-inserted duplicate of the donor: a third parent, appended.
        instance.insert(fk.parent, parent.row(donor))
        assert_agrees(instance, step)


def test_null_references_multi_parent_keys_and_duplicate_constraints():
    schema = DatabaseSchema.of(
        [
            RelationSchema.of("P", [("k", DataType.INT), ("g", DataType.INT)]),
            RelationSchema.of("G", [("g", DataType.INT)]),
            RelationSchema.of(
                "C",
                [Attribute("k", DataType.INT, nullable=True), ("v", DataType.INT)],
            ),
        ],
        [
            ForeignKeyConstraint("C", ("k",), "P", ("k",)),
            ForeignKeyConstraint("P", ("g",), "G", ("g",)),
            ForeignKeyConstraint("C", ("k",), "P", ("k",)),  # declared twice: one clause
        ],
    )
    instance = DatabaseInstance(schema)
    instance.relation("G").insert_all([(1,), (2,)])
    instance.relation("P").insert_all([(1, 5), (2, 1), (1, 2), (3, 1)])  # P:1 dangles
    instance.relation("C").insert_all([(1, 0), (None, 1), (2, 2), (4, 3)])  # C:4 dangles
    fk = _foreign_keys(instance)[0]
    assert fk.parents_of(instance, "C:2") is None
    assert fk.parents_of(instance, "C:1") == ("P:1", "P:3")
    assert fk.parents_of(instance, "C:4") == ()
    assert dangling_children(instance) == {"P:1", "C:4"}
    # The closure skips the unsupportable first parent P:1.
    assert close_under_foreign_keys(instance, {"C:1"}) == {"C:1", "P:3", "G:2"}
    for seed in range(6):
        assert_agrees(instance, seed)


def test_clauses_never_rebuild_whole_relation_maps(monkeypatch):
    instance = university_instance(30, seed=1)

    def forbidden(self, instance):  # pragma: no cover - fails the test if hit
        raise AssertionError("foreign-key work must not scan whole relations")

    monkeypatch.setattr(ForeignKeyConstraint, "implications", forbidden)
    tids = instance.relation("Registration").tids()[:5]
    clauses = foreign_key_clauses(instance, tids)
    assert [clause.child for clause in clauses] and all(c.parents for c in clauses)
    close_under_foreign_keys(instance, tids)
    dangling_children(instance)


def test_parents_of_reports_dangling_references():
    instance = university_instance(10, seed=0)
    fk = _foreign_keys(instance)[0]
    child = instance.relation("Registration").tids()[0]
    parents = fk.parents_of(instance, child)
    assert parents == tuple(fk.implications(instance)[child]) and len(parents) == 1
    instance.delete(parents[0])
    assert fk.parents_of(instance, child) == ()
    assert child in dangling_children(instance)
