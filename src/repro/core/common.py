"""Shared helpers for the counterexample algorithms.

Each algorithm resolves its :class:`~repro.engine.session.EngineSession` once
(:func:`~repro.engine.session.resolve_session`) and hands it to these helpers,
which evaluate and annotate the instance through it.  The witness re-check in
:func:`finalize_result` runs on one session over the witness sub-instance,
unless the caller hands over a :class:`Witness` it already evaluated.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Iterable, Mapping

from repro.catalog.instance import DatabaseInstance, ResultSet, Values
from repro.core.results import CounterexampleResult
from repro.engine.session import EngineSession
from repro.errors import CounterexampleError
from repro.ra.ast import RAExpression

ParamValues = Mapping[str, Any]


def annotate_cached(
    expression: RAExpression,
    session: EngineSession,
    params: ParamValues | None = None,
):
    """Provenance annotation through the explain call's session.

    Sharing the session lets provenance construction reuse the scans and
    subplans already cached by the set-semantics agreement checks.
    """
    from repro.provenance.annotate import AnnotatedRelation

    schema, rows = session.annotated_rows(expression, params)
    return AnnotatedRelation(schema, rows)


class Stopwatch:
    """Tiny helper accumulating named wall-clock phases."""

    def __init__(self) -> None:
        self.timings: dict[str, float] = {}
        self._started = time.perf_counter()

    def measure(self, name: str):
        return _Phase(self, name)

    def add(self, name: str, seconds: float) -> None:
        self.timings[name] = self.timings.get(name, 0.0) + seconds

    def finish(self) -> dict[str, float]:
        self.timings["total"] = time.perf_counter() - self._started
        return self.timings


class _Phase:
    def __init__(self, stopwatch: Stopwatch, name: str) -> None:
        self._stopwatch = stopwatch
        self._name = name

    def __enter__(self) -> "_Phase":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stopwatch.add(self._name, time.perf_counter() - self._start)


def symmetric_difference_rows(
    q1: RAExpression,
    q2: RAExpression,
    session: EngineSession,
    params: ParamValues | None = None,
) -> tuple[list[Values], list[Values]]:
    """Rows in ``Q1(D) \\ Q2(D)`` and ``Q2(D) \\ Q1(D)`` (each sorted deterministically),
    where ``D`` is the instance ``session`` is bound to."""
    result1 = session.evaluate(q1, params)
    result2 = session.evaluate(q2, params)
    only_in_q1 = sorted(result1.rows - result2.rows, key=_row_key)
    only_in_q2 = sorted(result2.rows - result1.rows, key=_row_key)
    return only_in_q1, only_in_q2


def pick_witness_target(
    q1: RAExpression,
    q2: RAExpression,
    session: EngineSession,
    params: ParamValues | None = None,
) -> tuple[Values, RAExpression, RAExpression]:
    """Choose the output tuple ``t`` to witness and orient the difference.

    Returns ``(t, winning, losing)`` such that ``t ∈ winning(D) \\ losing(D)``;
    the witness is then computed w.r.t. ``winning − losing``.  Raises
    :class:`CounterexampleError` when the two queries agree on the instance
    ``session`` is bound to.
    """
    result1 = session.evaluate(q1, params)
    result2 = session.evaluate(q2, params)
    # The first row of symmetric_difference_rows' order, without sorting:
    # min() and a stable sort both keep the first of equal keys.
    only_in_q1 = result1.rows - result2.rows
    if only_in_q1:
        return min(only_in_q1, key=_row_key), q1, q2
    only_in_q2 = result2.rows - result1.rows
    if only_in_q2:
        return min(only_in_q2, key=_row_key), q2, q1
    raise CounterexampleError("the two queries return identical results on this instance")


@dataclass(frozen=True)
class Witness:
    """Both queries evaluated under ``params`` on the sub-instance ``session`` is bound to."""

    session: EngineSession
    params: dict[str, Any]
    q1_rows: ResultSet
    q2_rows: ResultSet


def finalize_result(
    q1: RAExpression,
    q2: RAExpression,
    instance: DatabaseInstance,
    tids: Iterable[str],
    *,
    distinguishing_row: Values | None,
    optimal: bool,
    algorithm: str,
    stopwatch: Stopwatch,
    params: ParamValues | None = None,
    solver_calls: int = 0,
    witness: Witness | None = None,
) -> CounterexampleResult:
    """Materialise the counterexample, re-evaluate both queries and verify it.

    A ``witness`` over ``instance.subinstance(tids)`` that already holds
    ``q1`` and ``q2``'s rows under ``params`` stands in for the re-evaluation.
    The re-check is the ``finalize`` phase; ``stopwatch`` stops after it, so
    ``timings["total"]`` covers the whole call.
    """
    tid_set = frozenset(tids)
    with stopwatch.measure("finalize"):
        if witness is None:
            session = EngineSession(instance.subinstance(tid_set))
            q1_rows, q2_rows = session.evaluate(q1, params), session.evaluate(q2, params)
        else:
            session, q1_rows, q2_rows = witness.session, witness.q1_rows, witness.q2_rows
        counterexample = session.instance
    return CounterexampleResult(
        tids=tid_set,
        counterexample=counterexample,
        distinguishing_row=distinguishing_row,
        q1_rows=q1_rows,
        q2_rows=q2_rows,
        optimal=optimal,
        algorithm=algorithm,
        timings=stopwatch.finish(),
        parameter_values=dict(params or {}),
        solver_calls=solver_calls,
        verified=not q1_rows.same_rows(q2_rows),
    )


def _row_key(row: Values) -> tuple[str, ...]:
    return tuple(str(v) for v in row)
