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
  for its check budget.  Like Optσ and Agg-Opt, it selects before it
  annotates: the two concrete results name the differing groups, and only
  the core rows that can form one of them are annotated
  (``σ_{group ∈ differing}(core)``, pushed down, plus a sideways key filter
  across each join the scope cannot cross; see :func:`_scoped_to_groups`).
  The whole core is annotated only when no differing group yields a
  candidate.  Candidates are solved fewest tuple variables first, their
  variable sets computed in one walk over the nodes they share.
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
from repro.catalog.schema import RelationSchema
from repro.core.common import Stopwatch, Witness, annotate_cached, finalize_result
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
    AggregateQueryForm,
    ValuesDiffer,
    agg_and,
    agg_or,
    annotate_aggregate_query,
    decompose_aggregate_query,
    key_column_attributes,
    shared_variables,
)
from repro.ra.analysis import profile
from repro.ra.ast import Difference, GroupBy, Join, NaturalJoin, Projection, RAExpression
from repro.engine.domains import PROVENANCE_DOMAIN
from repro.engine.session import EngineSession, resolve_session
from repro.ra.predicates import Predicate, conj, disj, equals_constant
from repro.ra.rewrite import (
    add_tuple_selection,
    equijoin_pairs,
    expression_parameters,
    parameterize_query,
    push_selection_into,
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
    session = resolve_session(instance, session)
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
        result1 = session.evaluate(query1, original_params)
        result2 = session.evaluate(query2, original_params)
        if result1.same_rows(result2):
            raise CounterexampleError(
                "the two queries return identical results on this instance"
            )

    with stopwatch.measure("provenance"):
        form1 = decompose_aggregate_query(query1, instance.schema)
        form2 = decompose_aggregate_query(query2, instance.schema)
        differing = _differing_keys(
            form1.output_schema, tuple(key_column_attributes(form1)), result1, result2
        )
        # Annotate only the cores' rows that can form a differing group;
        # each whole core stays the fallback below.
        scoped1 = _scoped_to_groups(form1, differing, session, original_params)
        scoped2 = _scoped_to_groups(form2, differing, session, original_params)
        annotation1 = annotate_aggregate_query(
            scoped1 or query1, instance, original_params, session
        )
        annotation2 = annotate_aggregate_query(
            scoped2 or query2, instance, original_params, session
        )
        candidates = [
            item for item in _group_constraints(annotation1, annotation2) if item[0] in differing
        ]
        if not candidates:
            # Fall back to every group of the whole cores (the differing key
            # may only be reachable under a different parameter setting).
            if scoped1 is not None:
                annotation1 = annotate_aggregate_query(query1, instance, original_params, session)
            if scoped2 is not None:
                annotation2 = annotate_aggregate_query(query2, instance, original_params, session)
            candidates = _group_constraints(annotation1, annotation2)
    if not candidates:
        raise CounterexampleError("no candidate group distinguishes the two queries")

    ranked = _ranked(candidates)

    # The per-group constraint is an abstraction of "this group distinguishes
    # the two queries"; when the two queries group differently (a student
    # dropped a grouping attribute) a solved group need not distinguish the
    # *final* results, so every solver outcome is re-validated by evaluation
    # and non-distinguishing groups are skipped — shipping an unverified
    # witness is exactly the failure mode the fuzz verifier exists to catch.
    best: tuple[Values, Any, Witness] | None = None
    with stopwatch.measure("solver"):
        for key, constraint, variables in ranked:
            if best is not None and not all_groups:
                break
            problem = AggregateProblem(constraint=constraint)
            problem.seed_parameters(original_params)
            for clause in foreign_key_clauses(instance, variables):
                problem.add_foreign_key(clause.child, clause.parents)
            try:
                outcome = AggregateSolver(problem, solver_config).solve()
            except UnsatisfiableError:
                continue
            if outcome.timed_out and not outcome.true_variables:
                continue
            candidate_params = dict(original_params)
            candidate_params.update(outcome.parameter_values)
            sub = EngineSession(instance.subinstance(outcome.true_variables))
            witness = _validate_on_counterexample(query1, query2, sub, candidate_params)
            if not witness:
                continue
            if best is None or outcome.cost < len(best[1].true_variables):
                best = (key, outcome, witness)
    if best is None:
        raise CounterexampleError(
            "the aggregate solver found no group whose witness distinguishes "
            "the two queries within its budget"
        )
    key, outcome, witness = best
    algorithm = "agg-param" if parameterize else "agg-basic"
    return finalize_result(
        query1,
        query2,
        instance,
        outcome.true_variables,
        distinguishing_row=key,
        optimal=outcome.optimal,
        algorithm=algorithm,
        stopwatch=stopwatch,
        params=witness.params,
        solver_calls=outcome.nodes_explored,
        witness=witness,
    )


def _ranked(
    candidates: list[tuple[Values, AggConstraint]]
) -> list[tuple[Values, AggConstraint, frozenset[str]]]:
    """Cheapest candidate first (fewest tuple variables involved), then by key."""
    variables = shared_variables([constraint for _, constraint in candidates])
    ranked = [(key, constraint, names) for (key, constraint), names in zip(candidates, variables)]
    ranked.sort(key=lambda item: (len(item[2]), _nulls_last(item[0])))
    return ranked


def _nulls_last(key: Values) -> tuple:
    """``key`` in its natural order, with NULLs (which compare with nothing) last."""
    return tuple((value is None, 0 if value is None else value) for value in key)


def _differing_keys(
    schema: RelationSchema, key_columns: tuple[str, ...], result1, result2
) -> set[Values]:
    """Group keys on which the two queries already differ on the full instance."""
    key_indices = [schema.index_of(name) for name in key_columns]

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


def _scoped_to_groups(
    form: AggregateQueryForm, keys: set[Values], session: EngineSession, params: ParamValues
) -> RAExpression | None:
    """The query with its core cut to rows that can form one of the groups ``keys``.

    ``keys`` are tuples over the query's output key columns.  Each key column
    that copies a grouping attribute adds the conjunct ``attr = v1 ∨ attr =
    v2 ∨ …`` over the values it takes in ``keys``, pushed down.  A scope on a
    non-key column cannot cross a join, so each equi-join with exactly one
    scoped child then gets a sideways key filter on its other child
    (:func:`_sideways_key_filters`).  Every core row of a group in ``keys``
    passes all of them, and a filter keeps the rows' first-seen order, so each
    of those groups annotates exactly as on the whole core.  ``None`` when no
    column restricts: none maps to a grouping attribute, each one takes a NULL
    (or NaN) value that ``=`` never matches, or the keys are not over this
    query's key columns.
    """
    attributes = key_column_attributes(form)
    if not keys or any(len(key) != len(attributes) for key in keys):
        return None
    ordered = sorted(keys, key=lambda k: tuple(str(v) for v in k))
    conjuncts: list[Predicate] = []
    for index, attribute in enumerate(attributes.values()):
        if attribute is None:
            continue
        values = list(dict.fromkeys(key[index] for key in ordered))
        if any(_never_equal(value) for value in values):
            continue
        conjuncts.append(disj([equals_constant(attribute, value) for value in values]))
    if not conjuncts:
        return None
    db = session.instance.schema
    whole = push_selections_down(form.core, db)
    # The scope rebuilds only the nodes on its way down; the rest stay whole's.
    unscoped = {id(node) for node in whole.walk()}
    core = push_selection_into(conj(conjuncts), whole, db)
    core = _sideways_key_filters(core, unscoped, session, params)
    scoped = form.group_by.with_children([core])
    for wrapper in reversed(form.wrappers):
        scoped = wrapper.with_children([scoped])
    return scoped


def _never_equal(value: Any) -> bool:
    """NULL and NaN: ``=`` matches neither, though a hash join's dict lookup may."""
    return value is None or value != value


def _sideways_key_filters(
    node: RAExpression, unscoped: set[int], session: EngineSession, params: ParamValues
) -> RAExpression:
    """``node`` with a key filter on the unscoped child of each singly-scoped equi-join.

    A subtree is scoped when the scope reached it, i.e. its identity is not
    in ``unscoped``.  At an equi-join whose one child is scoped, the key
    values ``K`` of that child's annotated rows become ``other_key = k1 ∨ … ∨
    kn`` over the other child, pushed down; inside a difference that
    restricts both operands.  Only rows that match no scoped row drop out, so
    the join's rows and their annotations stay as they were.  ``K`` comes from
    the annotated rows, not the Set rows: provenance keeps a row of ``A − B``
    that ``B`` also holds (annotated ``A ∧ ¬B``).  ``session`` memoises those
    rows and serves them again when the scoped core is annotated.  One hop
    only: a filtered child does not in turn filter its own joins.  A join is
    skipped when ``K`` holds a NULL or a NaN: the hash join matches ``None``
    to ``None`` by dict equality, which an ``=`` filter would drop.
    """
    children = node.children()
    if not children or id(node) in unscoped:
        return node
    rebuilt = [_sideways_key_filters(child, unscoped, session, params) for child in children]
    if isinstance(node, (Join, NaturalJoin)):
        scoped = [id(child) not in unscoped for child in children]
        if scoped.count(True) == 1:
            side = scoped.index(True)
            key_filter = _key_filter(node.with_children(rebuilt), side, session, params)
            if key_filter is not None:
                other = 1 - side
                rebuilt[other] = push_selection_into(
                    key_filter, children[other], session.instance.schema
                )
    return node.with_children(rebuilt)


def _key_filter(
    join: Join | NaturalJoin, side: int, session: EngineSession, params: ParamValues
) -> Predicate | None:
    """``other_key ∈ K`` per equi-join pair, ``K`` the key values of child ``side``."""
    db = session.instance.schema
    left, right = (child.output_schema(db) for child in join.children())
    pairs = equijoin_pairs(join, left, right, db)
    if not pairs:
        return None
    schema, rows = session.execute(join.children()[side], PROVENANCE_DOMAIN, params)
    if not rows:
        return None
    conjuncts: list[Predicate] = []
    for pair in pairs:
        index = schema.index_of(pair[side])
        values = list(dict.fromkeys(row[index] for row in rows))
        if any(_never_equal(value) for value in values):
            return None
        conjuncts.append(disj([equals_constant(pair[1 - side], value) for value in values]))
    return conj(conjuncts)


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
    session = resolve_session(instance, session)
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
        core_rows1 = session.evaluate(core1, original_params)
        core_rows2 = session.evaluate(core2, original_params)
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
        annotated = annotate_cached(selected, session, original_params)
        expression = annotated.expression_for(target)

    problem = MinOnesProblem()
    problem.add_constraint(expression)
    for clause in foreign_key_clauses(instance, expression.variables()):
        problem.add_foreign_key(clause.child, clause.parents)
    solver = MinOnesSolver(problem, clause_cache=session.clause_cache)

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

    best: tuple[frozenset[str], Witness] | None = None
    solver_calls = 0
    optimal = True
    with stopwatch.measure("solver"):
        outcome = solver.minimize()
        solver_calls += outcome.solver_calls
        candidates: Iterable[frozenset[str]] = [outcome.true_variables]
        optimal = outcome.optimal
        for attempt, tids in enumerate(_with_retries(solver, candidates, max_retries)):
            solver_calls += 1 if attempt else 0
            sub = EngineSession(instance.subinstance(tids))
            witness = _validate_on_counterexample(q1, q2, sub, original_params)
            if not witness and has_parameters:
                witness = _find_parameter_setting(
                    parameterized1.query,
                    parameterized2.query,
                    sub,
                    {**parameterized1.original_values, **parameterized2.original_values},
                    original_params,
                )
            if witness:
                best = (tids, witness)
                break
            optimal = False
    if best is None:
        # Heuristic failed to validate within the retry budget: fall back.
        return smallest_counterexample_agg_basic(
            q1, q2, instance, params=params, parameterize=has_parameters, session=session
        )
    best_tids, witness = best
    freed = witness.params.keys() - original_params.keys()
    return finalize_result(
        parameterized1.query if freed else q1,
        parameterized2.query if freed else q2,
        instance,
        best_tids,
        distinguishing_row=target,
        optimal=optimal,
        algorithm="agg-opt",
        stopwatch=stopwatch,
        params=witness.params,
        solver_calls=solver_calls,
        witness=witness,
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
    q1: RAExpression, q2: RAExpression, sub: EngineSession, params: ParamValues
) -> Witness | None:
    """The two queries' rows on the sub-instance ``sub`` is bound to, if they differ."""
    try:
        q1_rows = sub.evaluate(q1, params)
        q2_rows = sub.evaluate(q2, params)
    except (TypeError, QueryEvaluationError):
        # A synthesised parameter value of the wrong type (an integer probe
        # for a string parameter) makes a comparison ill-typed, and a
        # sub-instance can hit evaluation errors the full instance avoids
        # (division by an aggregate that is zero on this group); either way
        # the candidate simply does not validate — the search moves on.
        return None
    if q1_rows.same_rows(q2_rows):
        return None
    return Witness(sub, dict(params), q1_rows, q2_rows)


def _find_parameter_setting(
    q1: RAExpression,
    q2: RAExpression,
    sub: EngineSession,
    original_values: Mapping[str, Any],
    params: ParamValues,
) -> Witness | None:
    """Choose parameter values making the parameterized queries differ on ``sub``.

    Candidate values follow §5.3.2: 0, 1, the original constant, and the
    aggregate values observed on the counterexample (±1).  ``params`` is the
    caller's binding; the returned witness's setting extends it.  Every
    setting is tried on the one session ``sub``, so its parameter-independent
    subplans are computed once.
    """
    candidates: dict[str, set[Any]] = {}
    for name, value in original_values.items():
        # Integer probes only make sense for numeric parameters; for any
        # other type the original constant is the sole trustworthy candidate.
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            candidates[name] = {0, 1, value}
        else:
            candidates[name] = {value}
    observed = _observed_aggregate_values(q1, sub, params) | _observed_aggregate_values(
        q2, sub, params
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
        setting = {**params, **dict(zip(names, combination))}
        witness = _validate_on_counterexample(q1, q2, sub, setting)
        if witness:
            return witness
    return None


def _observed_aggregate_values(
    query: RAExpression, witness: EngineSession, params: ParamValues
) -> set[Any]:
    """Aggregate alias values produced by the query's GroupBy nodes on the witness."""
    values: set[Any] = set()
    for node in query.walk():
        if not isinstance(node, GroupBy):
            continue
        result = witness.evaluate(node, params)
        schema = result.schema
        for spec in node.aggregates:
            index = schema.index_of(spec.alias)
            for row in result.rows:
                value = row[index]
                if isinstance(value, (int, float)):
                    values.add(int(value))
    return values
