"""Figure 5: witness size (and runtime) per constraint-solving strategy.

Compares the Naive-M strategies (enumerate up to M models of the provenance
formula with a plain SAT solver and keep the smallest) against Opt (the
cardinality-minimising solver).  The paper's finding: Opt's witnesses are
never larger and its runtime overhead over even Naive-1 is negligible.
"""

from __future__ import annotations

import time

from repro.core.basic import smallest_witness_for_expression
from repro.core.common import pick_witness_target
from repro.datagen.university import university_instance_with_size
from repro.engine.session import EngineSession
from repro.experiments.harness import ExperimentResult, Row, ScaleProfile, mean, run_experiment
from repro.experiments.pairs import differing_pairs
from repro.provenance.annotate import annotate
from repro.ra.ast import Difference
from repro.ra.rewrite import add_tuple_selection, push_selections_down


def solver_strategy_experiment(
    profile: ScaleProfile | str = "quick", *, seed: int = 7
) -> ExperimentResult:
    """Reproduce Figure 5 at the given scale profile."""
    if isinstance(profile, str):
        profile = ScaleProfile.by_name(profile)
    size = profile.database_sizes[-1]
    instance = university_instance_with_size(size, seed=seed)
    pairs = differing_pairs(instance, limit=profile.pairs_per_size, seed=seed)

    # Pre-compute the provenance expression of one differing tuple per pair so
    # that only the solving strategy varies between the series.
    session = EngineSession(instance)
    prepared = []
    for pair in pairs:
        row, winning, losing = pick_witness_target(pair.correct, pair.wrong, session)
        diff = Difference(winning, losing)
        pushed = push_selections_down(
            add_tuple_selection(diff, instance.schema, row), instance.schema
        )
        expression = annotate(pushed, instance).expression_for(row)
        prepared.append((pair, row, expression))

    def rows() -> list[Row]:
        out: list[Row] = []
        strategies: list[tuple[str, str, int]] = [
            (f"Naive-{budget}", "enumerate", budget) for budget in profile.naive_budgets
        ]
        strategies.append(("Opt", "optimal", 0))
        for label, mode, budget in strategies:
            sizes, runtimes = [], []
            for _pair, row, expression in prepared:
                started = time.perf_counter()
                witness = smallest_witness_for_expression(
                    expression, instance, row, mode=mode, max_trials=max(budget, 1)
                )
                runtimes.append(time.perf_counter() - started)
                sizes.append(witness.size)
            out.append(
                {
                    "strategy": label,
                    "mean_witness_size": round(mean(sizes), 3),
                    "max_witness_size": max(sizes) if sizes else 0,
                    "mean_solver_runtime_s": round(mean(runtimes), 4),
                    "pairs": len(prepared),
                }
            )
        return out

    return run_experiment(
        "Figure 5 — witness size vs solver strategy",
        "Naive-M model enumeration vs the optimizing solver on the same provenance formulas.",
        rows,
        profile=profile.name,
        seed=seed,
    )
