"""The Basic algorithm (Algorithm 1): counterexamples over all differing tuples.

``smallest_counterexample_basic`` computes the how-provenance of *every*
output tuple on which the two queries disagree, solves a min-ones instance
for each, and keeps the globally smallest witness.  The per-tuple solving
step can either be the optimal minimisation (this is the configuration used
in Table 4, "Basic with the Z3 optimizer") or the naive model-enumeration
loop of Algorithm 1 (the Naive-M baseline of Figure 5).
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.catalog.instance import DatabaseInstance, Values
from repro.core.common import (
    Stopwatch,
    annotate_cached,
    finalize_result,
    symmetric_difference_rows,
)
from repro.core.fk import foreign_key_clauses
from repro.core.results import CounterexampleResult, WitnessResult
from repro.engine.session import EngineSession, resolve_session
from repro.errors import CounterexampleError
from repro.provenance.boolexpr import BoolExpr
from repro.ra.ast import Difference, RAExpression
from repro.solver.minones import MinOnesProblem, MinOnesSolver

ParamValues = Mapping[str, Any]


def smallest_witness_for_expression(
    expression: BoolExpr,
    instance: DatabaseInstance,
    row: Values,
    *,
    mode: str = "optimal",
    max_trials: int = 128,
    strategy: str = "descend",
    clause_cache=None,
) -> WitnessResult:
    """Solve the smallest-witness problem for one provenance expression."""
    problem = MinOnesProblem()
    problem.add_constraint(expression)
    for clause in foreign_key_clauses(instance, expression.variables()):
        problem.add_foreign_key(clause.child, clause.parents)
    if mode == "enumerate":
        # The Naive-M baseline stays cache-free: phase hints from a cached
        # first model would change its model sequence (Figure 5 determinism).
        solver = MinOnesSolver(problem, default_phase=True)
        enumeration = solver.enumerate_models(max_trials)
        assert enumeration.best is not None
        return WitnessResult(
            tids=enumeration.best,
            row=row,
            optimal=enumeration.exhausted,
            solver_calls=enumeration.solver_calls,
        )
    solver = MinOnesSolver(problem, clause_cache=clause_cache)
    outcome = solver.minimize(strategy=strategy)  # type: ignore[arg-type]
    return WitnessResult(
        tids=outcome.true_variables,
        row=row,
        optimal=outcome.optimal,
        solver_calls=outcome.solver_calls,
    )


def smallest_counterexample_basic(
    q1: RAExpression,
    q2: RAExpression,
    instance: DatabaseInstance,
    *,
    params: ParamValues | None = None,
    mode: str = "optimal",
    max_trials: int = 128,
    strategy: str = "descend",
    max_rows: int | None = None,
    session: EngineSession | None = None,
) -> CounterexampleResult:
    """Find the smallest counterexample by examining every differing output tuple.

    ``max_rows`` caps how many differing tuples are examined (useful for large
    result differences); the paper's Basic algorithm has no such cap, so the
    default is unlimited.  ``session`` optionally shares an engine session's
    plan/result caches with the caller (e.g. the RATest facade).
    """
    session = resolve_session(instance, session)
    stopwatch = Stopwatch()
    with stopwatch.measure("raw_eval"):
        only_in_q1, only_in_q2 = symmetric_difference_rows(q1, q2, session, params)
    if not only_in_q1 and not only_in_q2:
        raise CounterexampleError("the two queries return identical results on this instance")

    candidates: list[tuple[Values, RAExpression, RAExpression]] = []
    candidates.extend((row, q1, q2) for row in only_in_q1)
    candidates.extend((row, q2, q1) for row in only_in_q2)
    if max_rows is not None:
        candidates = candidates[:max_rows]

    annotations: dict[int, Any] = {}
    best: WitnessResult | None = None
    solver_calls = 0
    for row, winning, losing in candidates:
        key = id(winning)
        if key not in annotations:
            with stopwatch.measure("provenance"):
                annotations[key] = annotate_cached(Difference(winning, losing), session, params)
        annotated = annotations[key]
        expression = annotated.expression_for(row)
        with stopwatch.measure("solver"):
            witness = smallest_witness_for_expression(
                expression,
                instance,
                row,
                mode=mode,
                max_trials=max_trials,
                strategy=strategy,
                clause_cache=session.clause_cache,
            )
        solver_calls += witness.solver_calls
        if best is None or witness.size < best.size:
            best = witness
    assert best is not None
    return finalize_result(
        q1,
        q2,
        instance,
        best.tids,
        distinguishing_row=best.row,
        optimal=best.optimal,
        algorithm="basic" if mode == "optimal" else f"basic-naive-{max_trials}",
        stopwatch=stopwatch,
        params=params,
        solver_calls=solver_calls,
    )
