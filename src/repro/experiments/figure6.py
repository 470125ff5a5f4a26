"""Figure 6: TPC-H aggregate queries — Agg-Basic vs Agg-Opt time breakdown.

For every benchmark query (Q4, Q16, Q18, Q21, Q21-S) and each of its wrong
variants, both aggregate algorithms are run and their phase timings recorded.
In the paper the heuristic (Agg-Opt) stays interactive on every query, while
the Z3-based aggregate-provenance approach (Agg-Basic) times out on the
queries with large groups (Q4, Q21, Q21-S).  Here Agg-Basic's size-ordered
search proves every witness optimal; a row's status reads "budget exhausted"
only when its check budget runs out.
"""

from __future__ import annotations

from repro.core.aggregates import (
    smallest_counterexample_agg_basic,
    smallest_counterexample_agg_opt,
)
from repro.datagen.tpch import tpch_instance
from repro.errors import ReproError
from repro.experiments.harness import ExperimentResult, Row, ScaleProfile, mean, run_experiment
from repro.ra.evaluator import evaluate
from repro.workload.tpch_queries import tpch_queries


def tpch_experiment(
    profile: ScaleProfile | str = "quick",
    *,
    seed: int = 1,
) -> ExperimentResult:
    """Reproduce Figure 6 at the given scale profile."""
    if isinstance(profile, str):
        profile = ScaleProfile.by_name(profile)
    instance = tpch_instance(profile.tpch_scale, seed=seed)

    def run_algorithm(name, correct, wrong) -> dict[str, float | str | int]:
        try:
            if name == "Agg-Basic":
                result = smallest_counterexample_agg_basic(correct, wrong, instance)
            else:
                result = smallest_counterexample_agg_opt(correct, wrong, instance)
        except ReproError as exc:
            return {"status": f"failed ({type(exc).__name__})"}
        status = "ok" if result.optimal else "budget exhausted"
        return {
            "status": status,
            "raw_eval_s": result.timings.get("raw_eval", 0.0),
            "prov_eval_s": result.timings.get("provenance", 0.0),
            "solver_s": result.timings.get("solver", 0.0),
            "total_s": result.total_time(),
            "counterexample_size": result.size,
        }

    def rows() -> list[Row]:
        out: list[Row] = []
        for query in tpch_queries():
            correct = query.correct_query
            reference_rows = evaluate(correct, instance).rows
            variants = [
                wrong
                for wrong in query.wrong_queries
                if evaluate(wrong, instance).rows != reference_rows
            ]
            for algorithm in ("Agg-Basic", "Agg-Opt"):
                per_variant = [run_algorithm(algorithm, correct, wrong) for wrong in variants]
                usable = [v for v in per_variant if "total_s" in v]
                statuses = {v["status"] for v in per_variant}
                row: Row = {
                    "query": query.key,
                    "algorithm": algorithm,
                    "wrong_variants": len(variants),
                    "status": "; ".join(sorted(statuses)) if statuses else "no differing variant",
                }
                for field in ("raw_eval_s", "prov_eval_s", "solver_s", "total_s"):
                    row[field] = round(mean([v[field] for v in usable]), 4) if usable else None
                row["mean_counterexample_size"] = (
                    round(mean([v["counterexample_size"] for v in usable]), 2) if usable else None
                )
                out.append(row)
        return out

    return run_experiment(
        "Figure 6 — TPC-H aggregate queries: Agg-Basic vs Agg-Opt",
        "Phase timings (raw query evaluation, provenance, solver) per query and algorithm, "
        f"TPC-H-lite scale={profile.tpch_scale}.",
        rows,
        profile=profile.name,
        seed=seed,
    )
