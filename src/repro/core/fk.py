"""Foreign-key clauses for the counterexample solvers (§4.3).

Counterexamples must satisfy referential integrity: keeping a child tuple
requires keeping at least one matching parent tuple.  Keys, functional
dependencies and NOT NULL constraints are closed under subinstances and need
no clauses (§2.1).

:func:`foreign_key_clauses` builds the implication clauses restricted to the
tuples the solver may actually keep, following references transitively (a
Registration row may require a Student row, which may itself require a
Department row, and so on).  Each frontier tuple costs one lookup in the
parent relation's hash index, which the catalog maintains under edits, so
the work is O(|frontier|) — it follows the witness, not the database.
"""

from __future__ import annotations

from typing import Iterable

from repro.catalog.constraints import ForeignKeyConstraint
from repro.catalog.instance import DatabaseInstance, split_tid
from repro.solver.minones import ForeignKeyClause


def dangling_children(instance: DatabaseInstance) -> set[str]:
    """Tids whose non-NULL foreign-key reference has no matching parent at all.

    The solver encoding turns such a tuple into a unit clause ``¬child`` (it
    can never be part of a referentially valid witness); the enumeration-based
    algorithms and the verifier use this set to apply the same rule, so every
    algorithm agrees on which witnesses are admissible — including on dirty
    fuzz instances that violate their own constraints.
    """
    dangling: set[str] = set()
    for constraint in instance.schema.constraints:
        if isinstance(constraint, ForeignKeyConstraint):
            dangling.update(constraint.dangling_children(instance))
    return dangling


def foreign_key_clauses(
    instance: DatabaseInstance, relevant_tids: Iterable[str]
) -> list[ForeignKeyClause]:
    """Implication clauses ``child ⇒ parent₁ ∨ …`` for every relevant child tuple.

    ``relevant_tids`` are the tuples that may appear in the counterexample
    (typically the variables of the provenance constraint).  Parents referenced
    by those children are added to the frontier so that chains of foreign keys
    are covered.
    """
    by_child: dict[str, list[ForeignKeyConstraint]] = {}
    for constraint in instance.schema.constraints:
        if isinstance(constraint, ForeignKeyConstraint):
            fks = by_child.setdefault(constraint.child, [])
            if constraint not in fks:
                fks.append(constraint)
    if not by_child:
        return []

    clauses: list[ForeignKeyClause] = []
    frontier = set(relevant_tids)
    processed: set[str] = set()
    while frontier:
        tid = frontier.pop()
        if tid in processed:
            continue
        processed.add(tid)
        relation_name, _ = split_tid(tid)
        for fk in by_child.get(relation_name, ()):
            parents = fk.parents_of(instance, tid)
            if parents is None:
                continue
            clauses.append(ForeignKeyClause(tid, parents))
            for parent in parents:
                if parent not in processed:
                    frontier.add(parent)
    return clauses
