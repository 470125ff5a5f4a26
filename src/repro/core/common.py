"""Shared helpers for the counterexample algorithms."""

from __future__ import annotations

import time
from typing import Any, Iterable, Mapping

from repro.catalog.instance import DatabaseInstance, Values
from repro.core.results import CounterexampleResult
from repro.engine.session import EngineSession
from repro.errors import CounterexampleError
from repro.ra.ast import Difference, RAExpression
from repro.ra.evaluator import evaluate

ParamValues = Mapping[str, Any]


def evaluate_cached(
    expression: RAExpression,
    instance: DatabaseInstance,
    params: ParamValues | None = None,
    session: EngineSession | None = None,
):
    """Evaluate through ``session`` when it is bound to this very instance.

    The counterexample algorithms re-evaluate the same queries several times
    (agreement check, symmetric difference, witness verification); threading
    an :class:`EngineSession` through them turns the repeats into cache hits.
    A session bound to a *different* instance (e.g. when verifying on a
    counterexample subinstance) is ignored.
    """
    if session is not None and session.instance is instance:
        return session.evaluate(expression, params)
    return evaluate(expression, instance, params)


def annotate_cached(
    expression: RAExpression,
    instance: DatabaseInstance,
    params: ParamValues | None = None,
    session: EngineSession | None = None,
):
    """Provenance annotation through ``session`` when bound to ``instance``.

    Sharing the session lets provenance construction reuse the scans and
    subplans already cached by the set-semantics agreement checks.
    """
    from repro.provenance.annotate import AnnotatedRelation, annotate

    if session is not None and session.instance is instance:
        schema, rows = session.annotated_rows(expression, params)
        return AnnotatedRelation(schema, rows)
    return annotate(expression, instance, params)


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
    instance: DatabaseInstance,
    params: ParamValues | None = None,
    session: EngineSession | None = None,
) -> tuple[list[Values], list[Values]]:
    """Rows in ``Q1(D) \\ Q2(D)`` and ``Q2(D) \\ Q1(D)`` (each sorted deterministically)."""
    result1 = evaluate_cached(q1, instance, params, session)
    result2 = evaluate_cached(q2, instance, params, session)
    only_in_q1 = sorted(result1.rows - result2.rows, key=_row_key)
    only_in_q2 = sorted(result2.rows - result1.rows, key=_row_key)
    return only_in_q1, only_in_q2


def pick_witness_target(
    q1: RAExpression,
    q2: RAExpression,
    instance: DatabaseInstance,
    params: ParamValues | None = None,
    session: EngineSession | None = None,
) -> tuple[Values, RAExpression, RAExpression]:
    """Choose the output tuple ``t`` to witness and orient the difference.

    Returns ``(t, winning, losing)`` such that ``t ∈ winning(D) \\ losing(D)``;
    the witness is then computed w.r.t. ``winning − losing``.  Raises
    :class:`CounterexampleError` when the two queries agree on the instance.
    """
    result1 = evaluate_cached(q1, instance, params, session)
    result2 = evaluate_cached(q2, instance, params, session)
    # The first row of symmetric_difference_rows' order, without sorting:
    # min() and a stable sort both keep the first of equal keys.
    only_in_q1 = result1.rows - result2.rows
    if only_in_q1:
        return min(only_in_q1, key=_row_key), q1, q2
    only_in_q2 = result2.rows - result1.rows
    if only_in_q2:
        return min(only_in_q2, key=_row_key), q2, q1
    raise CounterexampleError("the two queries return identical results on this instance")


def difference_query(winning: RAExpression, losing: RAExpression) -> Difference:
    return Difference(winning, losing)


def finalize_result(
    q1: RAExpression,
    q2: RAExpression,
    instance: DatabaseInstance,
    tids: Iterable[str],
    *,
    distinguishing_row: Values | None,
    optimal: bool,
    algorithm: str,
    timings: dict[str, float],
    params: ParamValues | None = None,
    solver_calls: int = 0,
) -> CounterexampleResult:
    """Materialise the counterexample, re-evaluate both queries and verify it."""
    tid_set = frozenset(tids)
    counterexample = instance.subinstance(tid_set)
    q1_rows = evaluate(q1, counterexample, params)
    q2_rows = evaluate(q2, counterexample, params)
    return CounterexampleResult(
        tids=tid_set,
        counterexample=counterexample,
        distinguishing_row=distinguishing_row,
        q1_rows=q1_rows,
        q2_rows=q2_rows,
        optimal=optimal,
        algorithm=algorithm,
        timings=timings,
        parameter_values=dict(params or {}),
        solver_calls=solver_calls,
        verified=not q1_rows.same_rows(q2_rows),
    )


def _row_key(row: Values) -> tuple[str, ...]:
    return tuple(str(v) for v in row)
