"""Counterexample algorithms for aggregate queries (§5).

Three algorithms are provided, mirroring the paper's evaluation (Figures 6
and 7):

* :func:`smallest_counterexample_agg_basic` — **Agg-Basic**: aggregate-aware
  provenance (Amsterdamer et al.) turned into a symbolic constraint — the
  distinguishing group either exists in only one query's result or exists in
  both with different aggregate values — solved exactly by the aggregate
  solver's search over FK-closed witnesses in order of size.  The paper's
  Z3-based version times out on TPC-H Q4/Q21; this search gives up (with a
  non-optimal witness) only when a group's smallest witness is too large
  for its check budget.
* :func:`smallest_counterexample_agg_basic` with ``parameterize=True`` —
  **Agg-Param**: constants compared against aggregates are replaced by free
  integer parameters (the SPCP of Definition 3), typically shrinking the
  counterexample (Figure 7).
* :func:`smallest_counterexample_agg_opt` — **Agg-Opt** (Algorithm 3): the
  heuristic that compares the *pre-aggregation* queries ``Q1'`` and ``Q2'``
  with the SPJUD machinery, then re-validates (and, if needed, re-parameterizes
  or retries) on the original aggregate queries.
"""

from __future__ import annotations

import itertools
from typing import Any, Iterable, Mapping

from repro.catalog.instance import DatabaseInstance, Values
from repro.core.common import Stopwatch, finalize_result
from repro.core.fk import foreign_key_clauses
from repro.core.results import CounterexampleResult
from repro.errors import (
    CounterexampleError,
    NotApplicableError,
    QueryEvaluationError,
    UnsatisfiableError,
)
from repro.provenance.aggregate import (
    AggConstraint,
    AggNot,
    AggregateAnnotation,
    ValuesDiffer,
    agg_and,
    agg_or,
    annotate_aggregate_query,
    decompose_aggregate_query,
)
from repro.ra.analysis import profile
from repro.ra.ast import Difference, GroupBy, Projection, RAExpression
from repro.ra.evaluator import evaluate
from repro.core.common import annotate_cached, evaluate_cached
from repro.engine.session import EngineSession
from repro.ra.rewrite import (
    add_tuple_selection,
    expression_parameters,
    parameterize_query,
    push_selections_down,
)
from repro.solver.minones import MinOnesProblem, MinOnesSolver
from repro.solver.theory import AggregateProblem, AggregateSolver, AggregateSolverConfig

ParamValues = Mapping[str, Any]


def is_aggregate_pair(q1: RAExpression, q2: RAExpression) -> bool:
    """True when at least one of the two queries uses aggregation."""
    return profile(q1).uses_aggregate or profile(q2).uses_aggregate


def _pair_parameter_names(
    q1: RAExpression, q2: RAExpression, params: Mapping[str, Any]
) -> set[str]:
    """Parameter names already taken by either query or the caller's binding.

    The two queries of a grading pair share one binding at evaluation time, so
    a generated parameter name colliding with *either* side's existing
    ``@param`` would silently rebind it (e.g. a string-valued ``@p1`` to a
    freed integer constant).
    """
    return expression_parameters(q1) | expression_parameters(q2) | set(params)


# ---------------------------------------------------------------------------
# Agg-Basic / Agg-Param
# ---------------------------------------------------------------------------


def smallest_counterexample_agg_basic(
    q1: RAExpression,
    q2: RAExpression,
    instance: DatabaseInstance,
    *,
    params: ParamValues | None = None,
    parameterize: bool = False,
    solver_config: AggregateSolverConfig | None = None,
    all_groups: bool = False,
    session: EngineSession | None = None,
) -> CounterexampleResult:
    """Aggregate-provenance counterexamples (Agg-Basic; Agg-Param when parameterized)."""
    stopwatch = Stopwatch()
    original_params: dict[str, Any] = dict(params or {})
    query1, query2 = q1, q2
    if parameterize:
        shared: dict[Any, str] = {}
        reserved = _pair_parameter_names(q1, q2, original_params)
        parameterized1 = parameterize_query(
            q1, instance.schema, shared_names=shared, reserved_names=reserved
        )
        parameterized2 = parameterize_query(
            q2, instance.schema, shared_names=shared, reserved_names=reserved
        )
        query1, query2 = parameterized1.query, parameterized2.query
        original_params.update(parameterized1.original_values)
        original_params.update(parameterized2.original_values)

    with stopwatch.measure("raw_eval"):
        result1 = evaluate_cached(query1, instance, original_params, session)
        result2 = evaluate_cached(query2, instance, original_params, session)
        if result1.same_rows(result2):
            raise CounterexampleError(
                "the two queries return identical results on this instance"
            )

    with stopwatch.measure("provenance"):
        annotation1 = annotate_aggregate_query(query1, instance, original_params, session)
        annotation2 = annotate_aggregate_query(query2, instance, original_params, session)
        differing = _differing_keys(annotation1, result1, result2)
        candidates = [
            item for item in _group_constraints(annotation1, annotation2) if item[0] in differing
        ]
        if not candidates:
            # Fall back to every candidate group (the differing key may only be
            # reachable under a different parameter setting).
            candidates = _group_constraints(annotation1, annotation2)
    if not candidates:
        raise CounterexampleError("no candidate group distinguishes the two queries")

    # Cheapest candidate first (fewest tuple variables involved).
    candidates.sort(key=lambda item: (len(item[1].variables()), item[0]))

    # The per-group constraint is an abstraction of "this group distinguishes
    # the two queries"; when the two queries group differently (a student
    # dropped a grouping attribute) a solved group need not distinguish the
    # *final* results, so every solver outcome is re-validated by evaluation
    # and non-distinguishing groups are skipped — shipping an unverified
    # witness is exactly the failure mode the fuzz verifier exists to catch.
    best: tuple[Values, Any, dict[str, Any]] | None = None
    timed_out = False
    with stopwatch.measure("solver"):
        for key, constraint in candidates:
            if best is not None and not all_groups:
                break
            problem = AggregateProblem(constraint=constraint)
            problem.seed_parameters(original_params)
            for clause in foreign_key_clauses(instance, constraint.variables()):
                problem.add_foreign_key(clause.child, clause.parents)
            try:
                outcome = AggregateSolver(problem, solver_config).solve()
            except UnsatisfiableError:
                continue
            timed_out = timed_out or outcome.timed_out
            if outcome.timed_out and not outcome.true_variables:
                continue
            candidate_params = dict(original_params)
            candidate_params.update(outcome.parameter_values)
            if not _validate_on_counterexample(
                query1, query2, instance, outcome.true_variables, candidate_params
            ):
                continue
            if best is None or outcome.cost < len(best[1].true_variables):
                best = (key, outcome, candidate_params)
    if best is None:
        raise CounterexampleError(
            "the aggregate solver found no group whose witness distinguishes "
            "the two queries within its budget"
        )
    key, outcome, final_params = best
    algorithm = "agg-param" if parameterize else "agg-basic"
    return finalize_result(
        query1,
        query2,
        instance,
        outcome.true_variables,
        distinguishing_row=key,
        optimal=outcome.optimal,
        algorithm=algorithm,
        timings=stopwatch.finish(),
        params=final_params,
        solver_calls=outcome.nodes_explored,
    )


def _differing_keys(annotation1, result1, result2) -> set[Values]:
    """Group keys on which the two queries already differ on the full instance."""
    key_indices = [annotation1.schema.index_of(name) for name in annotation1.key_columns]

    def rows_by_key(result) -> dict[Values, set[Values]]:
        grouped: dict[Values, set[Values]] = {}
        for row in result.rows:
            grouped.setdefault(tuple(row[i] for i in key_indices), set()).add(row)
        return grouped

    grouped1, grouped2 = rows_by_key(result1), rows_by_key(result2)
    differing: set[Values] = set()
    for key in set(grouped1) | set(grouped2):
        if grouped1.get(key) != grouped2.get(key):
            differing.add(key)
    return differing


def _group_constraints(
    annotation1: AggregateAnnotation, annotation2: AggregateAnnotation
) -> list[tuple[Values, AggConstraint]]:
    """Per-group constraints expressing "this group distinguishes Q1 and Q2"."""
    constraints: list[tuple[Values, AggConstraint]] = []
    keys = set(annotation1.groups) | set(annotation2.groups)
    shared_value_columns = [
        column for column in annotation1.value_columns if column in annotation2.value_columns
    ]
    for key in sorted(keys, key=lambda k: tuple(str(v) for v in k)):
        group1 = annotation1.groups.get(key)
        group2 = annotation2.groups.get(key)
        if group1 is not None and group2 is None:
            constraints.append((key, group1.condition))
        elif group2 is not None and group1 is None:
            constraints.append((key, group2.condition))
        elif group1 is not None and group2 is not None:
            disjuncts: list[AggConstraint] = [
                agg_and([group1.condition, AggNot(group2.condition)]),
                agg_and([group2.condition, AggNot(group1.condition)]),
            ]
            value_differs = [
                ValuesDiffer(group1.outputs[column], group2.outputs[column])
                for column in shared_value_columns
            ]
            if value_differs:
                disjuncts.append(
                    agg_and([group1.condition, group2.condition, agg_or(value_differs)])
                )
            constraints.append((key, agg_or(disjuncts)))
    return constraints


# ---------------------------------------------------------------------------
# Agg-Opt (Algorithm 3)
# ---------------------------------------------------------------------------


def smallest_counterexample_agg_opt(
    q1: RAExpression,
    q2: RAExpression,
    instance: DatabaseInstance,
    *,
    params: ParamValues | None = None,
    max_retries: int = 8,
    session: EngineSession | None = None,
) -> CounterexampleResult:
    """Algorithm 3: compare the pre-aggregation queries, then re-validate.

    Falls back to Agg-Basic when the pre-aggregation queries agree on the
    instance (e.g. the only error is in the HAVING clause) — the heuristic
    has nothing to work with in that case.
    """
    stopwatch = Stopwatch()
    original_params: dict[str, Any] = dict(params or {})
    form1 = decompose_aggregate_query(q1, instance.schema)
    form2 = decompose_aggregate_query(q2, instance.schema)
    core1, core2 = form1.core, form2.core

    # Algorithm 3 assumes the two pre-aggregation queries are comparable.  If
    # their schemas diverge (e.g. one of them projects an extra column), they
    # are compared on their shared columns; with no shared columns at all the
    # heuristic does not apply and Agg-Basic takes over.
    schema1 = core1.output_schema(instance.schema)
    schema2 = core2.output_schema(instance.schema)
    if schema1.attribute_names != schema2.attribute_names:
        common = [name for name in schema1.attribute_names if schema2.has_attribute(name)]
        if not common:
            return smallest_counterexample_agg_basic(
                q1, q2, instance, params=params, parameterize=True, session=session
            )
        core1 = Projection(core1, tuple(common))
        core2 = Projection(core2, tuple(common))

    with stopwatch.measure("raw_eval"):
        core_rows1 = evaluate_cached(core1, instance, original_params, session)
        core_rows2 = evaluate_cached(core2, instance, original_params, session)
    if core_rows1.rows == core_rows2.rows:
        return smallest_counterexample_agg_basic(
            q1, q2, instance, params=params, parameterize=True, session=session
        )
    only_in_1 = sorted(core_rows1.rows - core_rows2.rows, key=lambda r: tuple(str(v) for v in r))
    only_in_2 = sorted(core_rows2.rows - core_rows1.rows, key=lambda r: tuple(str(v) for v in r))
    if only_in_1:
        target, winning, losing = only_in_1[0], core1, core2
    else:
        target, winning, losing = only_in_2[0], core2, core1

    # Provenance of the distinguishing core tuple with selection pushdown.
    diff = Difference(winning, losing)
    selected = push_selections_down(
        add_tuple_selection(diff, instance.schema, target), instance.schema
    )
    with stopwatch.measure("provenance"):
        annotated = annotate_cached(selected, instance, original_params, session)
        expression = annotated.expression_for(target)

    problem = MinOnesProblem()
    problem.add_constraint(expression)
    for clause in foreign_key_clauses(instance, expression.variables()):
        problem.add_foreign_key(clause.child, clause.parents)
    solver = MinOnesSolver(
        problem, clause_cache=session.clause_cache if session is not None else None
    )

    # Candidate parameter settings are tried against the *parameterized*
    # original queries whenever re-validation with the original constants fails.
    shared: dict[Any, str] = {}
    reserved = _pair_parameter_names(q1, q2, original_params)
    parameterized1 = parameterize_query(
        q1, instance.schema, shared_names=shared, reserved_names=reserved
    )
    parameterized2 = parameterize_query(
        q2, instance.schema, shared_names=shared, reserved_names=reserved
    )
    has_parameters = bool(parameterized1.original_values or parameterized2.original_values)

    best_tids: frozenset[str] | None = None
    best_params: dict[str, Any] = dict(original_params)
    solver_calls = 0
    optimal = True
    with stopwatch.measure("solver"):
        outcome = solver.minimize()
        solver_calls += outcome.solver_calls
        candidates: Iterable[frozenset[str]] = [outcome.true_variables]
        optimal = outcome.optimal
        for attempt, tids in enumerate(_with_retries(solver, candidates, max_retries)):
            solver_calls += 1 if attempt else 0
            validated = _validate_on_counterexample(
                q1, q2, instance, tids, original_params
            )
            if validated:
                best_tids, best_params = tids, dict(original_params)
                break
            if has_parameters:
                param_setting = _find_parameter_setting(
                    parameterized1.query,
                    parameterized2.query,
                    instance,
                    tids,
                    {**parameterized1.original_values, **parameterized2.original_values},
                )
                if param_setting is not None:
                    best_tids, best_params = tids, param_setting
                    break
            optimal = False
    if best_tids is None:
        # Heuristic failed to validate within the retry budget: fall back.
        return smallest_counterexample_agg_basic(
            q1, q2, instance, params=params, parameterize=has_parameters
        )
    final_q1 = parameterized1.query if best_params.keys() - original_params.keys() else q1
    final_q2 = parameterized2.query if best_params.keys() - original_params.keys() else q2
    return finalize_result(
        final_q1,
        final_q2,
        instance,
        best_tids,
        distinguishing_row=target,
        optimal=optimal,
        algorithm="agg-opt",
        timings=stopwatch.finish(),
        params=best_params,
        solver_calls=solver_calls,
    )


def _with_retries(
    solver: MinOnesSolver, first: Iterable[frozenset[str]], max_retries: int
) -> Iterable[frozenset[str]]:
    """Yield the optimal model, then alternative models from enumeration.

    Running out of models is the one *expected* way enumeration ends early
    (``UnsatisfiableError``: the blocked clause set admits no further model),
    so only that is treated as benign exhaustion.  Anything else — a solver
    budget or internal limit (→ ``error_kind="solver_error"``), an evaluation
    failure while consuming the candidates (→ ``"evaluation_error"``) —
    propagates so the PR 2 taxonomy classifies it, instead of being swallowed
    here and silently degrading Agg-Opt's retry loop to a single candidate.
    """
    yield from first
    if max_retries <= 0:
        return
    try:
        enumeration = solver.enumerate_models(max_retries)
    except UnsatisfiableError:
        return
    for model in enumeration.models:
        yield model


def _validate_on_counterexample(
    q1: RAExpression,
    q2: RAExpression,
    instance: DatabaseInstance,
    tids: frozenset[str],
    params: ParamValues,
) -> bool:
    subinstance = instance.subinstance(tids)
    try:
        return not evaluate(q1, subinstance, params).same_rows(
            evaluate(q2, subinstance, params)
        )
    except (TypeError, QueryEvaluationError):
        # A synthesised parameter value of the wrong type (an integer probe
        # for a string parameter) makes a comparison ill-typed, and a
        # sub-instance can hit evaluation errors the full instance avoids
        # (division by an aggregate that is zero on this group); either way
        # the candidate simply does not validate — the search moves on.
        return False


def _find_parameter_setting(
    q1: RAExpression,
    q2: RAExpression,
    instance: DatabaseInstance,
    tids: frozenset[str],
    original_values: Mapping[str, Any],
) -> dict[str, Any] | None:
    """Choose parameter values making the parameterized queries differ on ``tids``.

    Candidate values follow §5.3.2: 0, 1, the original constant, and the
    aggregate values observed on the counterexample (±1).
    """
    subinstance = instance.subinstance(tids)
    candidates: dict[str, set[Any]] = {}
    for name, value in original_values.items():
        # Integer probes only make sense for numeric parameters; for any
        # other type the original constant is the sole trustworthy candidate.
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            candidates[name] = {0, 1, value}
        else:
            candidates[name] = {value}
    observed = _observed_aggregate_values(q1, subinstance) | _observed_aggregate_values(
        q2, subinstance
    )
    for name in candidates:
        if not isinstance(original_values[name], (int, float)):
            continue
        for value in observed:
            candidates[name].update({value, value - 1, value + 1})

    def closeness(name: str):
        origin = original_values[name]

        def key(v: Any):
            try:
                return (0, abs(v - origin), str(v))
            except TypeError:
                return (0 if v == origin else 1, 0, str(v))

        return key

    names = sorted(candidates)
    pools = [sorted(candidates[name], key=closeness(name)) for name in names]
    for combination in itertools.islice(itertools.product(*pools), 200):
        setting = dict(zip(names, combination))
        if _validate_on_counterexample(q1, q2, instance, tids, setting):
            return setting
    return None


def _observed_aggregate_values(query: RAExpression, instance: DatabaseInstance) -> set[Any]:
    """Aggregate alias values produced by the query's GroupBy nodes on ``instance``."""
    values: set[Any] = set()
    for node in query.walk():
        if not isinstance(node, GroupBy):
            continue
        result = evaluate(node, instance)
        schema = result.schema
        for spec in node.aggregates:
            index = schema.index_of(spec.alias)
            for row in result.rows:
                value = row[index]
                if isinstance(value, (int, float)):
                    values.add(int(value))
    return values
