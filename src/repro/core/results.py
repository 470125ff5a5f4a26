"""Result objects returned by the counterexample algorithms."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from repro.catalog.instance import DatabaseInstance, ResultSet, Values


def witness_cardinality(tids: Iterable[str]) -> int:
    """The paper's counterexample-quality metric, defined once for everyone.

    Counts **distinct tuples across relations**: each identifier contributes
    once, no matter how often an iterable names it (identifiers are unique
    across relations by construction — ``relation:suffix`` — so deduplicating
    the names deduplicates the tuples).  Both result classes below,
    ``RATestReport`` and the serialization layer derive their cardinality
    from this function, so a witness can never be sized differently in two
    places.
    """
    return len(frozenset(tids))


@dataclass
class CounterexampleResult:
    """A (hopefully smallest) counterexample for a pair of queries.

    Attributes
    ----------
    tids:
        Identifiers of the tuples kept from the original instance.
    counterexample:
        The subinstance induced by ``tids``.
    distinguishing_row:
        The output row that differs between the two queries on the
        counterexample (the witness target ``t`` of the SWP), when known.
    q1_rows / q2_rows:
        Results of the two queries evaluated on the counterexample, for
        display in reports.
    optimal:
        True when the solver proved the counterexample minimum-cardinality
        (for the witness target it examined).
    algorithm:
        Name of the algorithm that produced the result
        (``basic``, ``optsigma``, ``polytime-dnf``, ``spjud-star``,
        ``agg-basic``, ``agg-param``, ``agg-opt``, ...).
    timings:
        Wall-clock breakdown in seconds, keyed by phase (``raw_eval``,
        ``provenance``, ``solver``, ``finalize``, ``total``); ``total``
        covers every phase, the witness re-check included.
    parameter_values:
        For parameterized counterexamples (SPCP), the parameter setting under
        which the two queries differ on the counterexample.
    verified:
        True when ``Q1(D') != Q2(D')`` was re-checked by evaluation.
    """

    tids: frozenset[str]
    counterexample: DatabaseInstance
    distinguishing_row: Values | None
    q1_rows: ResultSet
    q2_rows: ResultSet
    optimal: bool
    algorithm: str
    timings: dict[str, float] = field(default_factory=dict)
    parameter_values: Mapping[str, Any] = field(default_factory=dict)
    solver_calls: int = 0
    verified: bool = False

    @property
    def size(self) -> int:
        """Number of distinct tuples in the counterexample (the paper's metric).

        Shares one definition with :class:`WitnessResult` via
        :func:`witness_cardinality`, so a per-target witness compared during
        the search and the final reported counterexample are always counted
        the same way.
        """
        return witness_cardinality(self.tids)

    def total_time(self) -> float:
        return self.timings.get("total", sum(self.timings.values()))

    def to_dict(self, *, include_timings: bool = True) -> dict[str, Any]:
        """JSON-compatible payload (see :mod:`repro.api.serialization`)."""
        from repro.api.serialization import counterexample_result_to_dict

        return counterexample_result_to_dict(self, include_timings=include_timings)

    @staticmethod
    def from_dict(payload: Mapping[str, Any]) -> "CounterexampleResult":
        from repro.api.serialization import counterexample_result_from_dict

        return counterexample_result_from_dict(payload)


@dataclass
class WitnessResult:
    """Result of the smallest witness problem for one output tuple."""

    tids: frozenset[str]
    row: Values
    optimal: bool
    solver_calls: int = 0

    @property
    def size(self) -> int:
        return witness_cardinality(self.tids)
