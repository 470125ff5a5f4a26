"""Figure 7: effectiveness of query parameterization on TPC-H Q18.

Q18 has a HAVING predicate comparing an aggregate against a constant, so the
counterexample must contain enough lineitems to clear the threshold.  The
parameterized variant (Agg-Param, the SPCP of Definition 3) lets the solver
pick a different threshold, shrinking the counterexample substantially at a
small extra solver cost — the trade-off Figure 7 reports.
"""

from __future__ import annotations

from repro.core.aggregates import smallest_counterexample_agg_basic
from repro.datagen.tpch import tpch_instance
from repro.errors import ReproError
from repro.experiments.harness import ExperimentResult, Row, ScaleProfile, mean, run_experiment
from repro.ra.evaluator import evaluate
from repro.workload.tpch_queries import tpch_query


def parameterization_experiment(
    profile: ScaleProfile | str = "quick",
    *,
    seed: int = 1,
    query_key: str = "Q18",
) -> ExperimentResult:
    """Reproduce Figure 7 at the given scale profile."""
    if isinstance(profile, str):
        profile = ScaleProfile.by_name(profile)
    instance = tpch_instance(profile.tpch_scale, seed=seed)
    query = tpch_query(query_key)
    reference_rows = evaluate(query.correct_query, instance).rows
    variants = [
        wrong
        for wrong in query.wrong_queries
        if evaluate(wrong, instance).rows != reference_rows
    ]

    def rows() -> list[Row]:
        out: list[Row] = []
        for label, parameterize in (("Agg-Basic", False), ("Agg-Param", True)):
            solver_times, sizes, statuses = [], [], set()
            for wrong in variants:
                try:
                    result = smallest_counterexample_agg_basic(
                        query.correct_query,
                        wrong,
                        instance,
                        parameterize=parameterize,
                    )
                except ReproError as exc:
                    statuses.add(f"failed ({type(exc).__name__})")
                    continue
                statuses.add("ok" if result.optimal else "budget exhausted")
                solver_times.append(result.timings.get("solver", 0.0))
                sizes.append(result.size)
            out.append(
                {
                    "algorithm": label,
                    "query": query.key,
                    "mean_solver_runtime_s": round(mean(solver_times), 4) if solver_times else None,
                    "mean_counterexample_size": round(mean(sizes), 2) if sizes else None,
                    "wrong_variants": len(variants),
                    "status": "; ".join(sorted(statuses)),
                }
            )
        return out

    return run_experiment(
        "Figure 7 — parameterization on TPC-H Q18",
        "Solver runtime and counterexample size with and without parameterizing the "
        "HAVING constant.",
        rows,
        profile=profile.name,
        seed=seed,
    )
