"""Algorithm dispatch: pick and run the right counterexample algorithm.

``find_smallest_counterexample(q1, q2, instance)`` inspects the query classes
(Table 1) and routes to:

* the aggregate algorithms when either query aggregates (Agg-Opt first, with
  Agg-Basic as fallback),
* Optσ (Algorithm 2) for general SPJUD queries,
* optionally the poly-time specialisations when explicitly requested.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

from repro.catalog.instance import DatabaseInstance
from repro.engine.session import EngineSession, resolve_session
from repro.core.aggregates import (
    is_aggregate_pair,
    smallest_counterexample_agg_basic,
    smallest_counterexample_agg_opt,
)
from repro.core.basic import smallest_counterexample_basic
from repro.core.optsigma import smallest_witness_optsigma
from repro.core.polytime import smallest_witness_monotone_dnf, smallest_witness_spjud_star
from repro.core.results import CounterexampleResult
from repro.errors import NotApplicableError, ReproError
from repro.ra.ast import RAExpression

ParamValues = Mapping[str, Any]

#: Algorithms selectable by name.
ALGORITHMS: dict[str, Callable[..., CounterexampleResult]] = {
    "basic": smallest_counterexample_basic,
    "optsigma": smallest_witness_optsigma,
    "polytime-dnf": smallest_witness_monotone_dnf,
    "spjud-star": smallest_witness_spjud_star,
    "agg-basic": smallest_counterexample_agg_basic,
    "agg-opt": smallest_counterexample_agg_opt,
}


def find_smallest_counterexample(
    q1: RAExpression,
    q2: RAExpression,
    instance: DatabaseInstance,
    *,
    algorithm: str = "auto",
    params: ParamValues | None = None,
    session: EngineSession | None = None,
    **options: Any,
) -> CounterexampleResult:
    """Find a smallest counterexample, dispatching on the query classes.

    ``algorithm`` may be ``"auto"`` or any key of :data:`ALGORITHMS`; extra
    keyword options are forwarded to the chosen algorithm (e.g.
    ``parameterize=True`` for ``agg-basic``, ``mode="enumerate"`` for
    ``basic``).  ``session``, when bound to ``instance``, serves every
    evaluation and annotation over ``instance``; otherwise the call builds one
    new session for them.  Either way the call resolves its session once
    here, so an Agg-Opt fallback to Agg-Basic keeps the same caches.
    """
    session = resolve_session(instance, session)
    if algorithm != "auto":
        if algorithm not in ALGORITHMS:
            raise ReproError(
                f"unknown algorithm {algorithm!r}; choose one of {sorted(ALGORITHMS)} or 'auto'"
            )
        return ALGORITHMS[algorithm](q1, q2, instance, params=params, session=session, **options)

    if is_aggregate_pair(q1, q2):
        try:
            return smallest_counterexample_agg_opt(
                q1, q2, instance, params=params, session=session, **options
            )
        except NotApplicableError:
            return smallest_counterexample_agg_basic(
                q1, q2, instance, params=params, session=session, **options
            )
    return smallest_witness_optsigma(q1, q2, instance, params=params, session=session, **options)


class SmallestCounterexampleFinder:
    """Object-oriented facade binding an instance once and answering many queries.

    Holds one :class:`EngineSession`, so plan compilation and subquery results
    are shared across every ``find`` call on the same instance.
    """

    def __init__(self, instance: DatabaseInstance) -> None:
        self.instance = instance
        self.session = EngineSession(instance)

    def find(
        self,
        q1: RAExpression,
        q2: RAExpression,
        *,
        algorithm: str = "auto",
        params: ParamValues | None = None,
        **options: Any,
    ) -> CounterexampleResult:
        return find_smallest_counterexample(
            q1,
            q2,
            self.instance,
            algorithm=algorithm,
            params=params,
            session=self.session,
            **options,
        )
