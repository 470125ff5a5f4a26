"""Poly-time specialised algorithms from the complexity dichotomy (Table 1).

Two specialised algorithms are implemented:

* :func:`smallest_witness_monotone_dnf` — Theorem 6: when both queries are
  monotone (SPJU, covering the SJ, SPU, JU* and PJ rows of the table), the
  how-provenance of the target tuple w.r.t. *Q1 alone* can be expanded into
  DNF and the smallest minterm is the smallest witness, because removing
  tuples can never put the target into the monotone Q2.
* :func:`smallest_witness_spjud_star` — Theorem 7: for SPJUD* queries
  (differences only at the top), the smallest witness is a union of minimal
  witnesses of the target w.r.t. the difference-free terminals, so it can be
  found by enumerating combinations of per-terminal minimal witnesses.

Both are exercised against the generic solver and against a brute-force
oracle in the test suite.
"""

from __future__ import annotations

import itertools
from typing import Any, Mapping

from repro.catalog.constraints import close_under_foreign_keys
from repro.catalog.instance import DatabaseInstance, Values
from repro.core.common import (
    Stopwatch,
    annotate_cached,
    finalize_result,
    pick_witness_target,
)
from repro.core.fk import dangling_children
from repro.engine.session import EngineSession, resolve_session
from repro.core.results import CounterexampleResult
from repro.errors import CounterexampleError, NotApplicableError
from repro.provenance.boolexpr import to_dnf
from repro.ra.analysis import QueryClass, profile, spju_terminals
from repro.ra.ast import Difference, RAExpression
from repro.ra.evaluator import evaluate

ParamValues = Mapping[str, Any]


def smallest_witness_monotone_dnf(
    q1: RAExpression,
    q2: RAExpression,
    instance: DatabaseInstance,
    *,
    params: ParamValues | None = None,
    max_terms: int = 100_000,
    session: EngineSession | None = None,
) -> CounterexampleResult:
    """Theorem 6: smallest witness for monotone (SPJU) query pairs via DNF."""
    profile1, profile2 = profile(q1), profile(q2)
    if not profile1.is_monotone or not profile2.is_monotone:
        raise NotApplicableError(
            "the DNF algorithm requires both queries to be monotone (SPJU)"
        )
    session = resolve_session(instance, session)
    stopwatch = Stopwatch()
    with stopwatch.measure("raw_eval"):
        row, winning, _losing = pick_witness_target(q1, q2, session, params)
    with stopwatch.measure("provenance"):
        annotated = annotate_cached(winning, session, params)
        expression = annotated.expression_for(row)
    with stopwatch.measure("solver"):
        minterms = to_dnf(expression, max_terms=max_terms)
        # A derivation through a tuple whose foreign-key reference is dangling
        # in the full instance is inadmissible — the solver-based algorithms
        # encode it as ``¬tid`` and so must the specialisations, or the two
        # families would disagree on minimality (found by the fuzz verifier).
        dangling = dangling_children(instance)
        if dangling:
            minterms = [term for term in minterms if not (term & dangling)]
        minterms.sort(key=lambda term: (len(term), sorted(term)))
        smallest: frozenset[str] | None = None
        closed: set[str] = set()
        for term in minterms:
            candidate = close_under_foreign_keys(instance, term)
            if not (candidate & dangling):
                smallest, closed = term, candidate
                break
        if smallest is None:
            raise CounterexampleError(
                "every derivation of the witness target requires a tuple with "
                "a dangling foreign-key reference"
            )
    return finalize_result(
        q1,
        q2,
        instance,
        closed,
        distinguishing_row=row,
        optimal=len(closed) == len(smallest),
        algorithm="polytime-dnf",
        stopwatch=stopwatch,
        params=params,
    )


def smallest_witness_spjud_star(
    q1: RAExpression,
    q2: RAExpression,
    instance: DatabaseInstance,
    *,
    params: ParamValues | None = None,
    max_witnesses_per_terminal: int = 64,
    max_combinations: int = 50_000,
    session: EngineSession | None = None,
) -> CounterexampleResult:
    """Theorem 7: smallest witness for SPJUD* query pairs by terminal enumeration."""
    for query in (q1, q2):
        query_class = profile(query).query_class
        if query_class not in (
            QueryClass.SPJUD_STAR,
            QueryClass.SJ,
            QueryClass.SPU,
            QueryClass.PJ,
            QueryClass.JU,
            QueryClass.JU_STAR,
            QueryClass.SPJU,
        ):
            raise NotApplicableError(
                f"the SPJUD* algorithm does not apply to query class {query_class.value}"
            )
    session = resolve_session(instance, session)
    stopwatch = Stopwatch()
    with stopwatch.measure("raw_eval"):
        row, winning, losing = pick_witness_target(q1, q2, session, params)
    combined = Difference(winning, losing)
    terminals = spju_terminals(combined)

    # Minimal witnesses of the target w.r.t. every terminal containing it.
    dangling = dangling_children(instance)
    with stopwatch.measure("provenance"):
        options: list[list[frozenset[str]]] = []
        for terminal in terminals:
            annotated = annotate_cached(terminal, session, params)
            if row not in annotated.provenance:
                continue
            expression = annotated.expression_for(row)
            if not expression.is_positive():
                # A difference hidden below a rename/projection survives the
                # class check but leaves negations in the terminal; Theorem 7
                # does not apply then.
                raise NotApplicableError(
                    "a decomposed terminal still contains negation; the query "
                    "pair is not SPJUD* after normalisation"
                )
            minterms = to_dnf(expression)
            if dangling:
                # Match the solver encoding: never build on a tuple whose
                # reference is dangling in the full instance.
                minterms = [term for term in minterms if not (term & dangling)]
            minterms.sort(key=lambda term: (len(term), sorted(term)))
            choices = [frozenset()] + minterms[:max_witnesses_per_terminal]
            options.append(choices)
    if not options:
        raise NotApplicableError("the witness target is not produced by any terminal")

    best: frozenset[str] | None = None
    examined = 0
    exhausted = True
    with stopwatch.measure("solver"):
        for combination in itertools.product(*options):
            examined += 1
            if examined > max_combinations:
                exhausted = False
                break
            candidate = frozenset().union(*combination)
            if best is not None and len(candidate) >= len(best):
                continue
            closed = frozenset(close_under_foreign_keys(instance, candidate))
            if closed & dangling:
                continue  # closure dragged in a tuple that cannot be supported
            if best is not None and len(closed) >= len(best):
                continue
            subinstance = instance.subinstance(closed)
            result = evaluate(combined, subinstance, params)
            if row in result.rows:
                best = closed
    if best is None:
        raise NotApplicableError("terminal enumeration found no witness (budget too small)")
    return finalize_result(
        q1,
        q2,
        instance,
        best,
        distinguishing_row=row,
        optimal=exhausted,
        algorithm="spjud-star",
        stopwatch=stopwatch,
        params=params,
    )
