"""Catalog statistics for the cost-based optimizer.

The engine keeps no separate statistics store: every number the optimizer
uses is derived from the bound :class:`~repro.catalog.instance.DatabaseInstance`
on demand and cached per relation version.  Row counts come from relation
sizes; per-column distinct-value counts come from
:meth:`~repro.catalog.instance.Relation.distinct_count`, which reuses the
lazy hash indexes equi-joins build anyway.  That keeps the statistics exact
(these are grading instances of at most a few hundred thousand rows, not a
warehouse) and always in sync with the data the plan will actually run over.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.catalog.instance import DatabaseInstance


@dataclass(frozen=True)
class PlanStats:
    """Estimated output statistics of a plan node.

    ``rows`` is the estimated output cardinality.  ``ndv`` has one entry per
    output column: the estimated number of distinct values in that column, or
    ``None`` when the estimator cannot track the column through the operator
    (e.g. an aggregate output).  ``len(ndv)`` doubles as the plan's output
    arity (:attr:`width`).
    """

    rows: float
    ndv: tuple[float | None, ...]

    @property
    def width(self) -> int:
        return len(self.ndv)


class StatsCatalog:
    """Per-instance statistics source, cached per relation version."""

    def __init__(self, instance: DatabaseInstance) -> None:
        self.instance = instance
        self._scan_stats: dict[str, tuple[int, PlanStats]] = {}

    def row_count(self, relation_name: str) -> int:
        return len(self.instance.relation(relation_name))

    def distinct_count(self, relation_name: str, key_indexes: tuple[int, ...]) -> int:
        return self.instance.relation(relation_name).distinct_count(key_indexes)

    def scan_stats(self, relation_name: str) -> PlanStats:
        """Rows and per-column distinct counts of a base relation."""
        relation = self.instance.relation(relation_name)
        cached = self._scan_stats.get(relation_name)
        if cached is not None and cached[0] == relation.version:
            return cached[1]
        ndv = tuple(
            float(relation.distinct_count((i,))) for i in range(relation.schema.arity)
        )
        stats = PlanStats(float(len(relation)), ndv)
        self._scan_stats[relation_name] = (relation.version, stats)
        return stats
