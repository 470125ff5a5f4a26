"""Integrity constraints: keys, NOT NULL, functional dependencies, foreign keys.

The paper (§2.1, §4.3) distinguishes constraints that are *closed under
subinstances* (keys, functional dependencies, NOT NULL — any subset of a valid
instance still satisfies them) from referential constraints (foreign keys),
which must be enforced explicitly when building a counterexample.  The
:class:`ForeignKeyConstraint` therefore exposes two extra operations used by
the algorithms:

* :meth:`ForeignKeyConstraint.parents_of` — for one child tuple, the parent
  tuples one of which must be kept (the ``child ⇒ parent`` clause the paper
  adds to the SAT/SMT encoding), read from the parent relation's maintained
  hash index; :meth:`ForeignKeyConstraint.implications` is the whole-relation
  form, kept as an independent oracle for the verifier, and
* :func:`close_under_foreign_keys` — closure of a tid set so that ad-hoc
  subinstances (e.g. from the poly-time algorithms) remain valid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable, Sequence

from repro.catalog.instance import tid_sort_key
from repro.errors import SchemaError

if TYPE_CHECKING:  # pragma: no cover
    from repro.catalog.instance import DatabaseInstance
    from repro.catalog.schema import DatabaseSchema


class Constraint:
    """Base class for integrity constraints."""

    #: True when every subinstance of a satisfying instance also satisfies
    #: the constraint (keys, FDs, NOT NULL).  Foreign keys set this to False.
    closed_under_subinstances: bool = True

    def validate_against(self, schema: "DatabaseSchema") -> None:
        """Check that the constraint refers only to existing relations/attributes."""
        raise NotImplementedError

    def violations(self, instance: "DatabaseInstance") -> list[str]:
        """Return human-readable violation messages (empty when satisfied)."""
        raise NotImplementedError

    def holds(self, instance: "DatabaseInstance") -> bool:
        return not self.violations(instance)


def _check_attributes(schema: "DatabaseSchema", relation: str, attributes: Sequence[str]) -> None:
    rel_schema = schema.relation(relation)
    for attr in attributes:
        rel_schema.attribute(attr)
    if not attributes:
        raise SchemaError("constraint must name at least one attribute")


@dataclass(frozen=True)
class KeyConstraint(Constraint):
    """``attributes`` form a key of ``relation`` (no two tuples agree on them)."""

    relation: str
    attributes: tuple[str, ...]

    def validate_against(self, schema: "DatabaseSchema") -> None:
        _check_attributes(schema, self.relation, self.attributes)

    def violations(self, instance: "DatabaseInstance") -> list[str]:
        rel = instance.relation(self.relation)
        indexes = [rel.schema.index_of(a) for a in self.attributes]
        seen: dict[tuple, str] = {}
        messages = []
        for tid, values in rel.tuples():
            key = tuple(values[i] for i in indexes)
            if key in seen:
                messages.append(
                    f"key violation on {self.relation}({', '.join(self.attributes)}): "
                    f"tuples {seen[key]} and {tid} share key {key}"
                )
            else:
                seen[key] = tid
        return messages

    def __str__(self) -> str:
        return f"KEY {self.relation}({', '.join(self.attributes)})"


@dataclass(frozen=True)
class NotNullConstraint(Constraint):
    """``attribute`` of ``relation`` must never be NULL."""

    relation: str
    attribute: str

    def validate_against(self, schema: "DatabaseSchema") -> None:
        _check_attributes(schema, self.relation, (self.attribute,))

    def violations(self, instance: "DatabaseInstance") -> list[str]:
        rel = instance.relation(self.relation)
        index = rel.schema.index_of(self.attribute)
        return [
            f"NOT NULL violation: {self.relation}.{self.attribute} is NULL in tuple {tid}"
            for tid, values in rel.tuples()
            if values[index] is None
        ]

    def __str__(self) -> str:
        return f"NOT NULL {self.relation}.{self.attribute}"


@dataclass(frozen=True)
class FunctionalDependency(Constraint):
    """``lhs -> rhs`` functional dependency within ``relation``."""

    relation: str
    lhs: tuple[str, ...]
    rhs: tuple[str, ...]

    def validate_against(self, schema: "DatabaseSchema") -> None:
        _check_attributes(schema, self.relation, self.lhs)
        _check_attributes(schema, self.relation, self.rhs)

    def violations(self, instance: "DatabaseInstance") -> list[str]:
        rel = instance.relation(self.relation)
        lhs_idx = [rel.schema.index_of(a) for a in self.lhs]
        rhs_idx = [rel.schema.index_of(a) for a in self.rhs]
        seen: dict[tuple, tuple] = {}
        witness: dict[tuple, str] = {}
        messages = []
        for tid, values in rel.tuples():
            left = tuple(values[i] for i in lhs_idx)
            right = tuple(values[i] for i in rhs_idx)
            if left in seen and seen[left] != right:
                messages.append(
                    f"FD violation {self.relation}: {','.join(self.lhs)} -> {','.join(self.rhs)} "
                    f"broken by tuples {witness[left]} and {tid}"
                )
            else:
                seen[left] = right
                witness[left] = tid
        return messages

    def __str__(self) -> str:
        return f"FD {self.relation}: {','.join(self.lhs)} -> {','.join(self.rhs)}"


@dataclass(frozen=True)
class ForeignKeyConstraint(Constraint):
    """``child(child_attributes)`` references ``parent(parent_attributes)``."""

    child: str
    child_attributes: tuple[str, ...]
    parent: str
    parent_attributes: tuple[str, ...]
    closed_under_subinstances = False

    def __post_init__(self) -> None:
        if len(self.child_attributes) != len(self.parent_attributes):
            raise SchemaError("foreign key must reference the same number of attributes")

    def validate_against(self, schema: "DatabaseSchema") -> None:
        _check_attributes(schema, self.child, self.child_attributes)
        _check_attributes(schema, self.parent, self.parent_attributes)

    def violations(self, instance: "DatabaseInstance") -> list[str]:
        messages = []
        for child_tid, parents in self.implications(instance).items():
            if not parents:
                messages.append(
                    f"foreign key violation: {self.child} tuple {child_tid} has no matching "
                    f"{self.parent} tuple on ({', '.join(self.parent_attributes)})"
                )
        return messages

    def parents_of(self, instance: "DatabaseInstance", child_tid: str) -> tuple[str, ...] | None:
        """The parent tids that can satisfy ``child_tid``'s reference.

        ``None`` when the referencing values are all NULL (no requirement);
        an empty tuple when the reference is dangling.  Parents come out in
        insertion order, read from the parent relation's hash index, which
        the catalog maintains across edits — one lookup, not a scan.
        """
        child_rel = instance.relation(self.child)
        values = child_rel.row(child_tid)
        key = tuple(values[child_rel.schema.index_of(a)] for a in self.child_attributes)
        if all(v is None for v in key):
            return None
        return tuple(tid for tid, _ in self._parent_index(instance).get(key, ()))

    def dangling_children(self, instance: "DatabaseInstance") -> list[str]:
        """Child tids whose non-NULL reference matches no parent, in insertion order."""
        child_rel = instance.relation(self.child)
        child_idx = [child_rel.schema.index_of(a) for a in self.child_attributes]
        parent_index = self._parent_index(instance)
        dangling = []
        for tid, values in child_rel.tuples():
            key = tuple(values[i] for i in child_idx)
            if key not in parent_index and not all(v is None for v in key):
                dangling.append(tid)
        return dangling

    def _parent_index(self, instance: "DatabaseInstance") -> dict[tuple, list[tuple[str, Any]]]:
        parent_rel = instance.relation(self.parent)
        return parent_rel.hash_index(
            tuple(parent_rel.schema.index_of(a) for a in self.parent_attributes)
        )

    def implications(self, instance: "DatabaseInstance") -> dict[str, list[str]]:
        """For each child tid, the parent tids that can satisfy the reference.

        A subinstance keeping the child tuple must keep at least one of the
        listed parent tuples; this is exactly the implication clause added to
        the solver encoding in §4.3.  Child tuples whose referencing values
        are all NULL impose no requirement and are omitted.
        """
        child_rel = instance.relation(self.child)
        parent_rel = instance.relation(self.parent)
        child_idx = [child_rel.schema.index_of(a) for a in self.child_attributes]
        parent_idx = [parent_rel.schema.index_of(a) for a in self.parent_attributes]

        parent_index: dict[tuple, list[str]] = {}
        for tid, values in parent_rel.tuples():
            key = tuple(values[i] for i in parent_idx)
            parent_index.setdefault(key, []).append(tid)

        implications: dict[str, list[str]] = {}
        for tid, values in child_rel.tuples():
            key = tuple(values[i] for i in child_idx)
            if all(v is None for v in key):
                continue
            implications[tid] = list(parent_index.get(key, []))
        return implications

    def __str__(self) -> str:
        return (
            f"FK {self.child}({', '.join(self.child_attributes)}) -> "
            f"{self.parent}({', '.join(self.parent_attributes)})"
        )


def close_under_foreign_keys(
    instance: "DatabaseInstance",
    tids: Iterable[str],
    constraints: Sequence[Constraint] | None = None,
) -> set[str]:
    """Return the smallest superset of ``tids`` closed under foreign keys.

    For every kept child tuple whose reference is dangling in the subinstance,
    one satisfying parent tuple is added — preferring parents that are not
    themselves dangling children of another foreign key (an unsupportable
    parent can never appear in a referentially valid witness, so greedily
    picking one would poison the closure when a clean alternative exists),
    breaking ties by insertion order for determinism.  The process repeats
    until a fixpoint because parents may themselves be children of other
    foreign keys.  Each pass looks up only the kept children's parents
    (:meth:`ForeignKeyConstraint.parents_of`), so the cost follows the
    closure's size, not the instance's.
    """
    if constraints is None:
        constraints = instance.schema.constraints
    foreign_keys = [c for c in constraints if isinstance(c, ForeignKeyConstraint)]

    def supportable(tid: str) -> bool:
        # False for a tuple whose own (non-NULL) reference matches no parent.
        return all(
            fk.parents_of(instance, tid) != ()
            for fk in foreign_keys
            if tid in instance.relation(fk.child)
        )

    closed = set(tids)
    changed = True
    while changed:
        changed = False
        for fk in foreign_keys:
            child_rel = instance.relation(fk.child)
            # Children with one key share one parent list and different keys
            # have disjoint ones, so the visiting order can only matter for a
            # self-referencing key; sorting keeps even that deterministic.
            kept = sorted((tid for tid in closed if tid in child_rel), key=tid_sort_key)
            for child_tid in kept:
                parents = fk.parents_of(instance, child_tid)
                if not parents or not closed.isdisjoint(parents):
                    # No requirement, satisfied already, or dangling in the
                    # full instance itself (nothing we can add).
                    continue
                closed.add(next((p for p in parents if supportable(p)), parents[0]))
                changed = True
    return closed
