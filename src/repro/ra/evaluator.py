"""Set-semantics evaluation of relational algebra expressions.

This module is a thin facade over the annotation-generic execution engine
(:mod:`repro.engine`): queries are compiled to a plan, optimized (selection
pushdown, hash-join build-side choice) and executed under the Boolean
:class:`~repro.engine.domains.SetDomain`, which reproduces classic set
semantics exactly.  Provenance-annotated evaluation
(:mod:`repro.provenance.annotate`) runs the *same* plans under a different
annotation domain, so there is a single implementation of scans, joins,
dedup and aggregation for both.

Each call here builds a new :class:`~repro.engine.session.EngineSession`, so
repeated calls share no caches.  Code that evaluates one instance repeatedly
holds a session itself (the counterexample algorithms resolve one per
explain call, see :func:`~repro.engine.session.resolve_session`).

Engine imports are deferred to call time: the engine's plan layer imports
``repro.ra.ast``, whose package ``__init__`` imports this module, so a
module-level engine import would close an import cycle.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Mapping, Sequence

from repro.catalog.instance import DatabaseInstance, ResultSet, Values
from repro.catalog.schema import RelationSchema
from repro.ra.ast import AggregateSpec, RAExpression
from repro.ra.predicates import Predicate

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.session import EngineSession

__all__ = [
    "compute_aggregate",
    "evaluate",
    "results_differ",
    "split_equijoin_conjuncts",
]

ParamValues = Mapping[str, Any]


def _new_session(instance: DatabaseInstance) -> "EngineSession":
    from repro.engine.session import EngineSession

    return EngineSession(instance)


def evaluate(
    expression: RAExpression,
    instance: DatabaseInstance,
    params: ParamValues | None = None,
) -> ResultSet:
    """Evaluate ``expression`` over ``instance`` and return its result set."""
    return _new_session(instance).evaluate(expression, params)


def results_differ(
    q1: RAExpression,
    q2: RAExpression,
    instance: DatabaseInstance,
    params: ParamValues | None = None,
) -> bool:
    """True when the two queries return different row sets on ``instance``."""
    session = _new_session(instance)
    return not session.evaluate(q1, params).same_rows(session.evaluate(q2, params))


def split_equijoin_conjuncts(
    predicate: Predicate,
    left_schema: RelationSchema,
    right_schema: RelationSchema,
) -> tuple[list[tuple[str, str]], list[Predicate]]:
    """Split a join predicate into hashable equi-join pairs and residual conjuncts.

    Re-exported facade over :func:`repro.ra.analysis.split_equijoin_conjuncts`.
    """
    from repro.ra.analysis import split_equijoin_conjuncts as split

    return split(predicate, left_schema, right_schema)


def compute_aggregate(
    spec: AggregateSpec, schema: RelationSchema, rows: Sequence[Values]
) -> Any:
    """Compute one aggregate over the rows of a group (set semantics).

    Raises :class:`~repro.errors.QueryEvaluationError` naming the aggregate
    and the missing attribute when the attribute cannot be resolved.
    """
    from repro.engine.logical import resolve_aggregate_input
    from repro.engine.physical import apply_aggregate

    index = resolve_aggregate_input(spec, schema)
    if index < 0:  # COUNT(*)
        return len(rows)
    return apply_aggregate(spec.func, [row[index] for row in rows if row[index] is not None])
