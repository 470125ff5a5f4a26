"""Machine verification of counterexamples: the pipeline's trust layer.

A counterexample is only worth showing a student if it provably does what the
report claims.  Given a :class:`~repro.core.results.CounterexampleResult`,
:func:`verify_counterexample` re-establishes every claim from scratch:

* **validity** — the witness sub-instance really is induced by ``tids`` from
  the graded instance, and re-evaluating both queries on it (under the
  result's parameter setting) still distinguishes them, matching the recorded
  ``q1_rows``/``q2_rows`` bit for bit;
* **foreign-key closure** — every kept child tuple that has at least one
  matching parent in the full instance keeps one in the witness too (chained
  references included, because *every* kept tuple is checked);
* **size accounting** — ``result.size``, the materialised sub-instance and
  the tid set all agree on the paper's distinct-tuple cardinality metric;
* **minimality** — when the solver claimed ``optimal=True`` (a proven
  minimum for the witness target it examined), the claim is cross-checked
  against two independent oracles: exhaustive subset search
  (:mod:`repro.theory.bruteforce` style, on small instances) and Naive-M /
  Opt agreement — re-deriving the provenance constraint and asking the model
  *enumeration* strategy and a fresh *minimisation* for anything smaller.

The fuzzer's counterexample mode (``repro.workload.fuzz``) and the FK-closure
suite drive this over hundreds of generated wrong-query pairs; any failure it
ever reports is a genuine bug in an algorithm, a solver, or the provenance
layer — which is exactly the point.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import comb
from typing import Any, Iterable, Mapping

from repro.catalog.constraints import ForeignKeyConstraint
from repro.catalog.instance import DatabaseInstance, Values
from repro.core.common import evaluate_cached
from repro.core.fk import foreign_key_clauses
from repro.core.results import CounterexampleResult, witness_cardinality
from repro.engine.session import EngineSession
from repro.errors import ReproError, SolverError
from repro.provenance.annotate import annotate
from repro.ra.ast import Difference, RAExpression
from repro.ra.evaluator import evaluate
from repro.ra.rewrite import (
    add_tuple_selection,
    expression_parameters,
    parameterize_query,
    push_selections_down,
)
from repro.solver.minones import MinOnesProblem, MinOnesSolver

ParamValues = Mapping[str, Any]

#: Aggregate algorithms produce *group-key* distinguishing rows and validate
#: against (possibly re-parameterized) aggregate queries; their optimality
#: claim lives in a different solver, so the SWP-specific minimality oracles
#: below do not apply to them.
_AGGREGATE_ALGORITHMS_PREFIXES = ("agg-",)


class VerificationFailure(ReproError):
    """A counterexample failed machine verification.

    Carries the full :class:`VerificationReport` so callers (the fuzzer, CI)
    can print every failed check alongside the reproduction line.
    """

    def __init__(self, report: "VerificationReport") -> None:
        super().__init__("; ".join(report.issues) or "counterexample verification failed")
        self.report = report


@dataclass
class VerificationReport:
    """Outcome of verifying one counterexample."""

    algorithm: str
    #: Check name → ``"ok"`` / ``"failed"`` / ``"skipped"``.
    checks: dict[str, str] = field(default_factory=dict)
    #: Human-readable description of every failed check.
    issues: list[str] = field(default_factory=list)
    #: How minimality was established: ``"bruteforce"``, ``"enumeration"``,
    #: ``"bruteforce+enumeration"``, ``"not_claimed"`` or ``"skipped"``.
    minimality_method: str = "skipped"

    @property
    def valid(self) -> bool:
        return not self.issues

    def _ok(self, check: str) -> None:
        self.checks[check] = "ok"

    def _skip(self, check: str) -> None:
        self.checks[check] = "skipped"

    def _fail(self, check: str, message: str) -> None:
        self.checks[check] = "failed"
        self.issues.append(f"{check}: {message}")

    def raise_if_invalid(self) -> "VerificationReport":
        if not self.valid:
            raise VerificationFailure(self)
        return self


def verify_counterexample(
    q1: RAExpression,
    q2: RAExpression,
    instance: DatabaseInstance,
    result: CounterexampleResult,
    *,
    params: ParamValues | None = None,
    session: EngineSession | None = None,
    check_minimality: bool = True,
    bruteforce_budget: int = 20_000,
    enumeration_budget: int = 48,
    solver_time_budget: float | None = 5.0,
) -> VerificationReport:
    """Re-establish every claim a counterexample result makes.

    ``q1``/``q2`` are the queries the result was computed for (the *original*
    queries — parameterized variants produced by the SCP algorithms are
    re-derived internally exactly as the algorithms derive them).  ``params``
    is the original caller-supplied binding; the result's own
    ``parameter_values`` take precedence where they overlap.

    ``bruteforce_budget`` caps the number of candidate subsets the exhaustive
    minimality oracle may examine (it runs only when the whole search fits);
    ``enumeration_budget`` is the Naive-M model count of the solver-agreement
    oracle.  Returns a :class:`VerificationReport`; use
    :meth:`VerificationReport.raise_if_invalid` to turn failures into an
    exception.
    """
    report = VerificationReport(algorithm=result.algorithm)
    binding: dict[str, Any] = dict(params or {})
    binding.update(result.parameter_values)

    _check_witness_tuples(instance, result, report)
    _check_size_accounting(result, report)
    effective = _check_distinguishes(
        q1, q2, instance, result, binding, dict(params or {}), report
    )
    _check_fk_closure(instance, result, report)

    if not result.optimal:
        report.minimality_method = "not_claimed"
        report._skip("minimality")
        return report
    if not check_minimality or effective is None:
        report._skip("minimality")
        return report
    if result.algorithm.startswith(_AGGREGATE_ALGORITHMS_PREFIXES):
        # Group-key targets and re-parameterized validation put aggregate
        # results outside the SWP oracles; their aggregate solver is
        # cross-checked directly in tests/test_solver_theory.py.
        report._skip("minimality")
        return report

    eff_q1, eff_q2 = effective
    oriented = _orient_target(eff_q1, eff_q2, instance, result, binding, session)
    if oriented is None:
        report._skip("minimality")
        return report
    target, winning, losing = oriented

    methods: list[str] = []
    if _minimality_by_bruteforce(
        winning, losing, target, instance, result, binding, report, bruteforce_budget
    ):
        methods.append("bruteforce")
    if _minimality_by_solver_agreement(
        winning,
        losing,
        target,
        instance,
        result,
        binding,
        report,
        session,
        enumeration_budget,
        solver_time_budget,
    ):
        methods.append("enumeration")
    report.minimality_method = "+".join(methods) if methods else "skipped"
    if report.checks.get("minimality") is None:
        report.checks["minimality"] = "ok" if methods else "skipped"
    return report


# ---------------------------------------------------------------------------
# Individual checks
# ---------------------------------------------------------------------------


def _check_witness_tuples(
    instance: DatabaseInstance, result: CounterexampleResult, report: VerificationReport
) -> None:
    """The witness really is the sub-instance of ``instance`` induced by ``tids``."""
    check = "witness_tuples"
    witness_tids = {
        tid
        for relation in result.counterexample.relations.values()
        for tid in relation.tids()
    }
    if witness_tids != set(result.tids):
        report._fail(
            check,
            f"materialised witness holds {sorted(witness_tids)} "
            f"but tids claim {sorted(result.tids)}",
        )
        return
    for tid in sorted(result.tids):
        try:
            original = instance.lookup(tid)
        except (KeyError, ValueError, ReproError) as exc:
            report._fail(check, f"tid {tid!r} is not part of the graded instance ({exc})")
            return
        if result.counterexample.lookup(tid) != original:
            report._fail(
                check,
                f"tuple {tid!r} was altered: witness has "
                f"{result.counterexample.lookup(tid)!r}, instance has {original!r}",
            )
            return
    report._ok(check)


def _check_size_accounting(result: CounterexampleResult, report: VerificationReport) -> None:
    check = "size"
    expected = witness_cardinality(result.tids)
    materialised = result.counterexample.total_size()
    if result.size != expected or materialised != expected:
        report._fail(
            check,
            f"size={result.size}, distinct tids={expected}, "
            f"materialised tuples={materialised} — all three must agree",
        )
    else:
        report._ok(check)


def _check_distinguishes(
    q1: RAExpression,
    q2: RAExpression,
    instance: DatabaseInstance,
    result: CounterexampleResult,
    binding: Mapping[str, Any],
    caller_params: Mapping[str, Any],
    report: VerificationReport,
) -> tuple[RAExpression, RAExpression] | None:
    """Re-evaluate both queries on the witness; returns the query forms that
    reproduced the recorded rows (original, or re-parameterized for SCP)."""
    check = "distinguishes"
    for label, (form1, form2) in _query_forms(q1, q2, instance, result, caller_params):
        try:
            rows1 = evaluate(form1, result.counterexample, binding)
            rows2 = evaluate(form2, result.counterexample, binding)
        except ReproError:
            continue
        if rows1.same_rows(rows2):
            continue
        if not rows1.same_rows(result.q1_rows) or not rows2.same_rows(result.q2_rows):
            continue
        if not result.verified:
            report._fail(
                check,
                "the witness distinguishes the queries but the result was not "
                "marked verified",
            )
            return (form1, form2)
        report._ok(check)
        return (form1, form2)
    report._fail(
        check,
        "no query form (original or re-parameterized) both distinguishes the "
        f"queries on the witness under {dict(binding)!r} and reproduces the "
        "recorded q1_rows/q2_rows",
    )
    return None


def _query_forms(
    q1: RAExpression,
    q2: RAExpression,
    instance: DatabaseInstance,
    result: CounterexampleResult,
    caller_params: Mapping[str, Any],
) -> list[tuple[str, tuple[RAExpression, RAExpression]]]:
    """The query pairs a result may have been finalised against.

    The SCP algorithms (Agg-Param, Agg-Opt fallback) replace HAVING constants
    by parameters and record the distinguishing *parameter setting*; they are
    re-derived with the same shared naming and the same reserved-name set the
    algorithms use (both queries' own parameters plus the caller's binding —
    *not* the generated names), so the exact final queries are reproduced.
    """
    forms: list[tuple[str, tuple[RAExpression, RAExpression]]] = [
        ("original", (q1, q2))
    ]
    if result.parameter_values:
        try:
            shared: dict[Any, str] = {}
            reserved = (
                expression_parameters(q1)
                | expression_parameters(q2)
                | set(caller_params)
            )
            p1 = parameterize_query(
                q1, instance.schema, shared_names=shared, reserved_names=reserved
            )
            p2 = parameterize_query(
                q2, instance.schema, shared_names=shared, reserved_names=reserved
            )
        except ReproError:  # pragma: no cover - parameterization is total
            return forms
        if p1.original_values or p2.original_values:
            forms.append(("parameterized", (p1.query, p2.query)))
    return forms


def _check_fk_closure(
    instance: DatabaseInstance, result: CounterexampleResult, report: VerificationReport
) -> None:
    """Every kept child keeps at least one parent, per foreign key.

    Mirrors the solver encoding of :mod:`repro.core.fk` exactly: a child with
    candidate parents must keep one, and a child whose reference is dangling
    in the *full* instance (dirty fuzz data) is inadmissible outright — the
    encoding turns it into ``¬child``.  Chains are covered because every kept
    tuple is checked, parents included; all-NULL references impose nothing.
    """
    check = "fk_closed"
    kept = set(result.tids)
    foreign_keys = [
        c for c in instance.schema.constraints if isinstance(c, ForeignKeyConstraint)
    ]
    for fk in foreign_keys:
        implications = fk.implications(instance)
        for child_tid in sorted(kept):
            parents = implications.get(child_tid)
            if parents is None:
                continue  # not a child of this FK, or all-NULL reference
            if not parents:
                report._fail(
                    check,
                    f"{child_tid} is kept but its {fk} reference is dangling "
                    f"even in the full instance",
                )
                return
            if not any(parent in kept for parent in parents):
                report._fail(
                    check,
                    f"{child_tid} is kept but none of its {fk} parents "
                    f"{sorted(parents)} are",
                )
                return
    report._ok(check)


# ---------------------------------------------------------------------------
# Minimality oracles
# ---------------------------------------------------------------------------


def _orient_target(
    q1: RAExpression,
    q2: RAExpression,
    instance: DatabaseInstance,
    result: CounterexampleResult,
    binding: Mapping[str, Any],
    session: EngineSession | None,
) -> tuple[Values, RAExpression, RAExpression] | None:
    """``(t, winning, losing)`` with ``t ∈ winning(D) \\ losing(D)``, or None."""
    if result.distinguishing_row is None:
        return None
    target = tuple(result.distinguishing_row)
    try:
        rows1 = evaluate_cached(q1, instance, binding, session).rows
        rows2 = evaluate_cached(q2, instance, binding, session).rows
    except ReproError:
        return None
    if target in rows1 and target not in rows2:
        return target, q1, q2
    if target in rows2 and target not in rows1:
        return target, q2, q1
    return None


def _fk_implication_maps(instance: DatabaseInstance) -> list[dict[str, list[str]]]:
    """One child→parents map per FK constraint, computed once per search."""
    return [
        fk.implications(instance)
        for fk in instance.schema.constraints
        if isinstance(fk, ForeignKeyConstraint)
    ]


def _fk_respecting(
    implication_maps: list[dict[str, list[str]]], kept: frozenset[str]
) -> bool:
    for implications in implication_maps:
        for child_tid in kept:
            parents = implications.get(child_tid)
            if parents is not None and not any(parent in kept for parent in parents):
                return False  # unsupported or dangling child — inadmissible
    return True


def _minimality_by_bruteforce(
    winning: RAExpression,
    losing: RAExpression,
    target: Values,
    instance: DatabaseInstance,
    result: CounterexampleResult,
    binding: Mapping[str, Any],
    report: VerificationReport,
    budget: int,
) -> bool:
    """Exhaustively rule out any smaller FK-respecting witness of ``target``.

    Only runs when the complete search (all subsets strictly smaller than the
    claimed optimum) fits in ``budget`` evaluations; returns whether it ran.
    """
    all_tids = sorted(instance.all_tids())
    smaller = result.size - 1
    if smaller < 0:
        return False
    total = sum(comb(len(all_tids), size) for size in range(0, smaller + 1))
    if total > budget:
        return False
    combined = Difference(winning, losing)
    implication_maps = _fk_implication_maps(instance)
    for size in range(0, smaller + 1):
        for subset in itertools.combinations(all_tids, size):
            kept = frozenset(subset)
            if not _fk_respecting(implication_maps, kept):
                continue
            sub = instance.subinstance(kept)
            try:
                produced = evaluate(combined, sub, binding).rows
            except ReproError:
                continue
            if target in produced:
                report._fail(
                    "minimality",
                    f"claimed optimal at {result.size} tuples, but brute force "
                    f"found the {len(kept)}-tuple witness {sorted(kept)}",
                )
                return True
    return True


def _minimality_by_solver_agreement(
    winning: RAExpression,
    losing: RAExpression,
    target: Values,
    instance: DatabaseInstance,
    result: CounterexampleResult,
    binding: Mapping[str, Any],
    report: VerificationReport,
    session: EngineSession | None,
    enumeration_budget: int,
    solver_time_budget: float | None,
) -> bool:
    """Naive-M / Opt agreement: re-derive the constraint, re-solve both ways.

    The provenance of the witness target is recomputed independently (through
    the same engine path the algorithms use), handed to the min-ones solver
    in *enumeration* mode (Naive-M) and in fresh *minimisation* mode (Opt);
    either strategy finding a model smaller than the claimed optimum — or the
    fresh minimisation proving a different optimum — is a failure.  Returns
    whether the oracle ran.
    """
    diff = Difference(winning, losing)
    selected = push_selections_down(
        add_tuple_selection(diff, instance.schema, target), instance.schema
    )
    try:
        if session is not None and session.instance is instance:
            schema, rows = session.annotated_rows(selected, binding)
            expression = rows.get(tuple(target))
        else:
            expression = annotate(selected, instance, binding).expression_for(target)
    except ReproError:
        return False
    if expression is None or (not expression.variables() and not expression.evaluate({})):
        report._fail(
            "minimality",
            "no provenance derivation found for the distinguishing row while "
            "re-deriving the solver constraint",
        )
        return True
    problem = MinOnesProblem()
    problem.add_constraint(expression)
    for clause in foreign_key_clauses(instance, expression.variables()):
        problem.add_foreign_key(clause.child, clause.parents)
    try:
        enumeration = MinOnesSolver(problem, default_phase=True).enumerate_models(
            enumeration_budget, time_budget=solver_time_budget
        )
        opt = MinOnesSolver(problem).minimize(time_budget=solver_time_budget)
    except SolverError:
        return False
    if enumeration.best is not None and len(enumeration.best) < result.size:
        report._fail(
            "minimality",
            f"claimed optimal at {result.size} tuples, but Naive-M enumeration "
            f"found the {len(enumeration.best)}-tuple model {sorted(enumeration.best)}",
        )
        return True
    if opt.optimal and opt.cost != result.size:
        report._fail(
            "minimality",
            f"claimed optimal at {result.size} tuples, but an independent Opt "
            f"run proved the minimum is {opt.cost}",
        )
        return True
    return True


def verify_many(
    pairs: Iterable[tuple[RAExpression, RAExpression, CounterexampleResult]],
    instance: DatabaseInstance,
    **options: Any,
) -> list[VerificationReport]:
    """Verify a batch of results against one instance (testing convenience)."""
    session = options.pop("session", None) or EngineSession(instance)
    return [
        verify_counterexample(q1, q2, instance, result, session=session, **options)
        for q1, q2, result in pairs
    ]
