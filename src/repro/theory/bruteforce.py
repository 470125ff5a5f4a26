"""Brute-force oracles for the smallest witness / counterexample problems.

These exhaustive solvers are exponential and only usable on tiny instances,
but they are *obviously correct*, which makes them the reference point for
property-based tests of every other algorithm in the package (the paper's
poly-time specialisations, the SAT-based Optσ, the aggregate solvers).
"""

from __future__ import annotations

import itertools
from typing import Any, Iterable, Mapping

from repro.catalog.instance import DatabaseInstance
from repro.errors import CounterexampleError
from repro.ra.ast import RAExpression
from repro.ra.evaluator import evaluate, results_differ

ParamValues = Mapping[str, Any]


def brute_force_smallest_counterexample(
    q1: RAExpression,
    q2: RAExpression,
    instance: DatabaseInstance,
    *,
    params: ParamValues | None = None,
    max_size: int | None = None,
    require_constraints: bool = True,
) -> frozenset[str]:
    """Exhaustively search for a minimum-cardinality counterexample.

    Candidate subsets are enumerated in order of increasing size, so the first
    hit is optimal.  ``max_size`` caps the search (defaults to the full
    instance size).  Raises :class:`CounterexampleError` when no counterexample
    of the allowed size exists.
    """
    all_tids = sorted(instance.all_tids())
    limit = len(all_tids) if max_size is None else min(max_size, len(all_tids))
    for size in range(0, limit + 1):
        for subset in itertools.combinations(all_tids, size):
            sub = instance.subinstance(subset)
            if require_constraints and not sub.satisfies_constraints():
                continue
            if results_differ(q1, q2, sub, params):
                return frozenset(subset)
    raise CounterexampleError("no counterexample within the size bound")


def brute_force_smallest_witness(
    query: RAExpression,
    instance: DatabaseInstance,
    row: tuple,
    *,
    params: ParamValues | None = None,
    max_size: int | None = None,
    require_constraints: bool = False,
) -> frozenset[str]:
    """Exhaustively search for a minimum witness of ``row`` w.r.t. ``query``."""
    all_tids = sorted(instance.all_tids())
    limit = len(all_tids) if max_size is None else min(max_size, len(all_tids))
    target = tuple(row)
    for size in range(0, limit + 1):
        for subset in itertools.combinations(all_tids, size):
            sub = instance.subinstance(subset)
            if require_constraints and not sub.satisfies_constraints():
                continue
            if target in evaluate(query, sub, params).rows:
                return frozenset(subset)
    raise CounterexampleError("no witness within the size bound")


def all_minimal_witnesses(
    query: RAExpression,
    instance: DatabaseInstance,
    row: tuple,
    *,
    params: ParamValues | None = None,
) -> list[frozenset[str]]:
    """All inclusion-minimal witnesses of ``row`` (tiny instances only)."""
    all_tids = sorted(instance.all_tids())
    target = tuple(row)
    witnesses: list[frozenset[str]] = []
    for size in range(0, len(all_tids) + 1):
        for subset_tuple in itertools.combinations(all_tids, size):
            subset = frozenset(subset_tuple)
            if any(existing <= subset for existing in witnesses):
                continue
            sub = instance.subinstance(subset)
            if target in evaluate(query, sub, params).rows:
                witnesses.append(subset)
    return witnesses


def enumerate_subinstances(
    instance: DatabaseInstance, *, max_size: int | None = None
) -> Iterable[DatabaseInstance]:
    """Yield every subinstance up to ``max_size`` tuples (testing helper)."""
    all_tids = sorted(instance.all_tids())
    limit = len(all_tids) if max_size is None else min(max_size, len(all_tids))
    for size in range(0, limit + 1):
        for subset in itertools.combinations(all_tids, size):
            yield instance.subinstance(subset)
