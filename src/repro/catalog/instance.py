"""Database instances: relations with identified tuples, and query results.

Every tuple stored in a base relation carries a unique *tuple identifier*
(tid) such as ``"Student:3"``.  Tids are how the provenance layer and the
constraint solvers refer to input tuples, exactly like the ``t1, t2, ...``
annotations in the paper's figures.  Query *results* are plain value tuples
under set semantics and carry no identifiers.
"""

from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Mapping, Sequence

from repro.catalog.schema import DatabaseSchema, RelationSchema
from repro.catalog.types import coerce
from repro.errors import SchemaError, UnknownRelationError

Values = tuple[Any, ...]


def split_tid(tid: str) -> tuple[str, str]:
    """Split a tid like ``"Student:3"`` into ``("Student", "3")``."""
    relation, _, suffix = tid.partition(":")
    if not suffix:
        raise ValueError(f"malformed tuple identifier {tid!r}")
    return relation, suffix


def tid_sort_key(tid: str) -> tuple[str, int, int | str]:
    """Numeric-aware sort key: ``Student:3`` before ``Student:33``."""
    relation, suffix = split_tid(tid)
    if suffix.isdigit():
        return (relation, 0, int(suffix))
    return (relation, 1, suffix)


class Relation:
    """A base relation instance: a set of identified, typed tuples."""

    def __init__(self, schema: RelationSchema) -> None:
        self.schema = schema
        self._rows: dict[str, Values] = {}
        self._next_id = 1
        self._version = 0
        self._indexes: dict[tuple[int, ...], dict[tuple, list[tuple[str, Values]]]] = {}
        # Insertion rank of every tid, built only when an update moves a
        # tuple between index buckets, and maintained from then on.
        self._ranks: dict[str, int] | None = None
        self._next_rank = 0

    # -- mutation ----------------------------------------------------------

    def insert(self, values: Sequence[Any], *, tid: str | None = None) -> str:
        """Insert a tuple, returning its identifier.

        Values are coerced to the declared attribute types.  Duplicate values
        are allowed at the storage layer (they get distinct tids); the query
        evaluator applies set semantics on top.
        """
        if len(values) != self.schema.arity:
            raise SchemaError(
                f"relation {self.schema.name!r} expects {self.schema.arity} values, "
                f"got {len(values)}"
            )
        coerced = tuple(
            coerce(v, attr.dtype, nullable=attr.nullable)
            for v, attr in zip(values, self.schema.attributes)
        )
        if tid is None:
            tid = f"{self.schema.name}:{self._next_id}"
            self._next_id += 1
        elif tid in self._rows:
            raise SchemaError(f"duplicate tuple identifier {tid!r}")
        else:
            # Keep auto-generated identifiers ahead of explicit numeric ones,
            # so inserts after a deserialized/hand-built relation never
            # silently overwrite an existing tuple.
            suffix = tid.partition(":")[2]
            if suffix.isdigit():
                self._next_id = max(self._next_id, int(suffix) + 1)
        self._rows[tid] = coerced
        self._version += 1
        if self._ranks is not None:
            self._ranks[tid] = self._next_rank
            self._next_rank += 1
        self._index_add(tid, coerced)
        return tid

    def insert_all(self, rows: Iterable[Sequence[Any]]) -> list[str]:
        """Insert many tuples, returning their identifiers in order."""
        return [self.insert(row) for row in rows]

    def delete(self, tid: str) -> Values:
        """Delete a tuple by identifier, returning its values.

        Raises :class:`KeyError` for unknown identifiers.  Cached hash
        indexes are maintained in place rather than discarded.
        """
        try:
            values = self._rows.pop(tid)
        except KeyError:
            raise KeyError(
                f"tuple {tid!r} is not in relation {self.schema.name!r}"
            ) from None
        self._version += 1
        if self._ranks is not None:
            del self._ranks[tid]
        self._index_remove(tid, values)
        return values

    def update(self, tid: str, values: Sequence[Any]) -> tuple[Values, Values]:
        """Replace a tuple's values in place, returning ``(old, new)``.

        The tuple keeps its identifier and its position in insertion order.
        Updating to identical values is a no-op: no version bump.
        """
        if tid not in self._rows:
            raise KeyError(f"tuple {tid!r} is not in relation {self.schema.name!r}")
        if len(values) != self.schema.arity:
            raise SchemaError(
                f"relation {self.schema.name!r} expects {self.schema.arity} values, "
                f"got {len(values)}"
            )
        coerced = tuple(
            coerce(v, attr.dtype, nullable=attr.nullable)
            for v, attr in zip(values, self.schema.attributes)
        )
        old = self._rows[tid]
        if coerced == old:
            return old, coerced
        self._rows[tid] = coerced
        self._version += 1
        self._index_replace(tid, old, coerced)
        return old, coerced

    # -- cache maintenance -------------------------------------------------

    def _index_add(self, tid: str, values: Values) -> None:
        for key_indexes, index in self._indexes.items():
            key = tuple(values[i] for i in key_indexes)
            index.setdefault(key, []).append((tid, values))

    def _index_remove(self, tid: str, values: Values) -> None:
        for key_indexes, index in self._indexes.items():
            key = tuple(values[i] for i in key_indexes)
            bucket = index.get(key)
            if bucket is None:
                continue
            bucket[:] = [pair for pair in bucket if pair[0] != tid]
            if not bucket:
                del index[key]

    def _index_replace(self, tid: str, old: Values, new: Values) -> None:
        """Re-key an updated tuple, keeping every bucket in insertion order.

        A tuple whose key is unchanged keeps its slot; one whose key changes
        is inserted into its new bucket at its insertion rank, so a
        maintained index always equals a fresh build of the same rows.
        """
        for key_indexes, index in self._indexes.items():
            old_key = tuple(old[i] for i in key_indexes)
            new_key = tuple(new[i] for i in key_indexes)
            bucket = index[old_key]
            slot = next(i for i, pair in enumerate(bucket) if pair[0] == tid)
            if old_key == new_key:
                bucket[slot] = (tid, new)
                continue
            del bucket[slot]
            if not bucket:
                del index[old_key]
            ranks = self._insertion_ranks()
            target = index.setdefault(new_key, [])
            at = bisect(target, ranks[tid], key=lambda pair: ranks[pair[0]])
            target.insert(at, (tid, new))

    def _insertion_ranks(self) -> dict[str, int]:
        if self._ranks is None:
            self._ranks = {tid: rank for rank, tid in enumerate(self._rows)}
            self._next_rank = len(self._rows)
        return self._ranks

    # -- access ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, tid: str) -> bool:
        return tid in self._rows

    def tids(self) -> tuple[str, ...]:
        return tuple(self._rows)

    def row(self, tid: str) -> Values:
        return self._rows[tid]

    def tuples(self) -> Iterator[tuple[str, Values]]:
        """Iterate over ``(tid, values)`` pairs in insertion order."""
        return iter(self._rows.items())

    def value_set(self) -> frozenset[Values]:
        return frozenset(self._rows.values())

    @property
    def version(self) -> int:
        """Monotonically increasing mutation counter (invalidates caches)."""
        return self._version

    def hash_index(self, key_indexes: tuple[int, ...]) -> dict[tuple, list[tuple[str, Values]]]:
        """A lazily built, cached hash index grouping tuples by a column tuple.

        Maps each distinct key (the values at ``key_indexes``) to the
        ``(tid, values)`` pairs carrying it, in insertion order.  The index is
        built on first use, reused by subsequent equi-joins on the same
        columns, and maintained incrementally under insert/delete/update.
        """
        index = self._indexes.get(key_indexes)
        if index is None:
            index = {}
            for tid, values in self._rows.items():
                key = tuple(values[i] for i in key_indexes)
                index.setdefault(key, []).append((tid, values))
            self._indexes[key_indexes] = index
        return index

    def to_dicts(self) -> list[dict[str, Any]]:
        """Rows as attribute-name dictionaries (handy for display and tests)."""
        names = self.schema.attribute_names
        return [dict(zip(names, values)) for values in self._rows.values()]

    # -- derivation --------------------------------------------------------

    def subset(self, tids: Iterable[str]) -> "Relation":
        """A new relation containing only the given tuples (same tids).

        The derived relation inherits the parent's mutation counter, so a
        copy never re-issues version numbers the original already used,
        which would alias version-keyed caches.
        """
        sub = Relation(self.schema)
        for tid in tids:
            if tid not in self._rows:
                raise KeyError(f"tuple {tid!r} is not in relation {self.schema.name!r}")
            sub._rows[tid] = self._rows[tid]
        sub._next_id = self._next_id
        sub._version = self._version
        return sub

    def copy(self) -> "Relation":
        return self.subset(self._rows)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Relation({self.schema.name!r}, {len(self)} tuples)"


class DatabaseInstance:
    """A database instance: one :class:`Relation` per schema relation."""

    def __init__(self, schema: DatabaseSchema) -> None:
        self.schema = schema
        self.relations: dict[str, Relation] = {
            name: Relation(rel_schema) for name, rel_schema in schema.relations.items()
        }

    # -- construction ------------------------------------------------------

    @staticmethod
    def from_dict(
        schema: "DatabaseSchema | Mapping[str, Any]",
        data: Mapping[str, Iterable[Sequence[Any]]] | None = None,
    ) -> "DatabaseInstance":
        """Build an instance from ``{relation_name: [row, ...]}``.

        Alternatively, called with a single serialized payload (as produced
        by :meth:`to_dict`), reconstructs the instance — schema, constraints
        and tuple identifiers included.
        """
        if data is None:
            if isinstance(schema, Mapping):
                from repro.api.serialization import instance_from_dict

                return instance_from_dict(schema)
            raise TypeError(
                "from_dict needs row data alongside a schema, or a single "
                "serialized payload dict (as produced by to_dict)"
            )
        instance = DatabaseInstance(schema)
        for name, rows in data.items():
            instance.relation(name).insert_all(rows)
        return instance

    def to_dict(self) -> dict[str, Any]:
        """Serialized payload: schema plus ``[tid, values]`` lists per relation.

        The inverse of the one-argument form of :meth:`from_dict`; the JSON
        shape is defined in :mod:`repro.api.serialization`.
        """
        from repro.api.serialization import instance_to_dict

        return instance_to_dict(self)

    # -- mutation ----------------------------------------------------------

    def insert(self, relation_name: str, values: Sequence[Any], *, tid: str | None = None) -> str:
        """Insert a tuple into ``relation_name``, returning its identifier."""
        return self.relation(relation_name).insert(values, tid=tid)

    def delete(self, tid: str) -> Values:
        """Delete the tuple named by ``tid``, returning its values."""
        relation_name, _ = split_tid(tid)
        return self.relation(relation_name).delete(tid)

    def update(self, tid: str, values: Sequence[Any]) -> tuple[Values, Values]:
        """Update the tuple named by ``tid``, returning ``(old, new)``."""
        relation_name, _ = split_tid(tid)
        return self.relation(relation_name).update(tid, values)

    # -- access ------------------------------------------------------------

    def relation(self, name: str) -> Relation:
        try:
            return self.relations[name]
        except KeyError:
            raise UnknownRelationError(f"unknown relation {name!r}") from None

    @property
    def relation_names(self) -> tuple[str, ...]:
        return tuple(self.relations)

    def total_size(self) -> int:
        """Total number of tuples across all relations (the paper's ``|D|``)."""
        return sum(len(rel) for rel in self.relations.values())

    @property
    def data_version(self) -> int:
        """Sum of relation mutation counters; changes whenever data changes."""
        return sum(rel.version for rel in self.relations.values())

    def all_tids(self) -> set[str]:
        return {tid for rel in self.relations.values() for tid in rel.tids()}

    def lookup(self, tid: str) -> Values:
        """Return the values of the tuple with the given identifier."""
        relation_name, _ = split_tid(tid)
        return self.relation(relation_name).row(tid)

    # -- derivation --------------------------------------------------------

    def subinstance(self, tids: Iterable[str]) -> "DatabaseInstance":
        """The subinstance containing exactly the tuples named by ``tids``.

        Tids keep their values and identifiers, so provenance computed on the
        subinstance is comparable with provenance computed on the original.
        Tuples are stored in sorted tid order, so subinstances built from
        unordered tid sets (counterexamples!) render and serialize
        identically across runs and processes.
        """
        by_relation: dict[str, list[str]] = {name: [] for name in self.relations}
        for tid in sorted(tids, key=tid_sort_key):
            relation_name, _ = split_tid(tid)
            if relation_name not in by_relation:
                raise UnknownRelationError(
                    f"tuple {tid!r} refers to unknown relation {relation_name!r}"
                )
            by_relation[relation_name].append(tid)
        sub = DatabaseInstance.__new__(DatabaseInstance)
        sub.schema = self.schema
        sub.relations = {
            name: self.relations[name].subset(tids_for_rel)
            for name, tids_for_rel in by_relation.items()
        }
        return sub

    def copy(self) -> "DatabaseInstance":
        return self.subinstance(self.all_tids())

    # -- integrity ---------------------------------------------------------

    def constraint_violations(self) -> list[str]:
        """Human-readable descriptions of all violated integrity constraints."""
        violations: list[str] = []
        for constraint in self.schema.constraints:
            violations.extend(constraint.violations(self))
        return violations

    def satisfies_constraints(self) -> bool:
        return not self.constraint_violations()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(f"{name}={len(rel)}" for name, rel in self.relations.items())
        return f"DatabaseInstance({parts})"


@dataclass(frozen=True)
class ResultSet:
    """The result of evaluating a query: a set of value tuples with a schema."""

    schema: RelationSchema
    rows: frozenset[Values]

    @staticmethod
    def of(schema: RelationSchema, rows: Iterable[Values]) -> "ResultSet":
        return ResultSet(schema, frozenset(tuple(row) for row in rows))

    def __len__(self) -> int:
        return len(self.rows)

    def __contains__(self, row: Values) -> bool:
        return tuple(row) in self.rows

    def __iter__(self) -> Iterator[Values]:
        return iter(self.rows)

    def sorted_rows(self) -> list[Values]:
        """Rows in a deterministic order (for display and golden tests)."""
        return sorted(self.rows, key=lambda row: tuple(str(v) for v in row))

    def to_dicts(self) -> list[dict[str, Any]]:
        names = self.schema.attribute_names
        return [dict(zip(names, row)) for row in self.sorted_rows()]

    def same_rows(self, other: "ResultSet") -> bool:
        """Value-level equality, ignoring attribute names (union compatibility)."""
        return self.rows == other.rows

    def minus(self, other: "ResultSet") -> "ResultSet":
        return ResultSet(self.schema, self.rows - other.rows)

    def symmetric_difference(self, other: "ResultSet") -> "ResultSet":
        return ResultSet(self.schema, self.rows ^ other.rows)
