"""Figure 4: database size vs running time of each pipeline component.

The six series of the paper's figure are reproduced directly from the
lower-level building blocks rather than through the end-to-end algorithms, so
that each component is timed in isolation:

* ``raw``            — evaluating ``Q1 − Q2``;
* ``prov_all``       — provenance-annotated evaluation of ``Q1 − Q2`` (all tuples);
* ``prov_sp``        — provenance of a single output tuple after selection pushdown;
* ``solver_naive_M`` — Naive-M model enumeration on that tuple's provenance;
* ``solver_opt``     — the optimizing min-ones solve on that tuple;
* ``solver_opt_all`` — optimizing solves for every differing output tuple.
"""

from __future__ import annotations

import time

from repro.core.basic import smallest_witness_for_expression
from repro.core.common import symmetric_difference_rows
from repro.datagen.university import university_instance_with_size
from repro.engine.session import EngineSession
from repro.experiments.harness import ExperimentResult, Row, ScaleProfile, mean, run_experiment
from repro.experiments.pairs import differing_pairs
from repro.provenance.annotate import annotate
from repro.ra.ast import Difference
from repro.ra.evaluator import evaluate
from repro.ra.rewrite import add_tuple_selection, push_selections_down


def scaling_experiment(
    profile: ScaleProfile | str = "quick", *, seed: int = 7
) -> ExperimentResult:
    """Reproduce Figure 4 at the given scale profile."""
    if isinstance(profile, str):
        profile = ScaleProfile.by_name(profile)
    naive_budget = max(profile.naive_budgets)

    def rows() -> list[Row]:
        out: list[Row] = []
        for size in profile.database_sizes:
            instance = university_instance_with_size(size, seed=seed)
            pairs = differing_pairs(instance, limit=profile.pairs_per_size, seed=seed)
            timings: dict[str, list[float]] = {
                "raw": [],
                "prov_all": [],
                "prov_sp": [],
                f"solver_naive_{naive_budget}": [],
                "solver_opt": [],
                "solver_opt_all": [],
            }
            for pair in pairs:
                started = time.perf_counter()
                only_in_q1, only_in_q2 = symmetric_difference_rows(
                    pair.correct, pair.wrong, EngineSession(instance)
                )
                timings["raw"].append(time.perf_counter() - started)
                if only_in_q1:
                    row, winning, losing = only_in_q1[0], pair.correct, pair.wrong
                else:
                    row, winning, losing = only_in_q2[0], pair.wrong, pair.correct
                diff = Difference(winning, losing)

                started = time.perf_counter()
                annotated_all = annotate(diff, instance)
                timings["prov_all"].append(time.perf_counter() - started)

                started = time.perf_counter()
                pushed = push_selections_down(
                    add_tuple_selection(diff, instance.schema, row), instance.schema
                )
                annotated_sp = annotate(pushed, instance)
                timings["prov_sp"].append(time.perf_counter() - started)
                expression = annotated_sp.expression_for(row)

                started = time.perf_counter()
                smallest_witness_for_expression(
                    expression, instance, row, mode="enumerate", max_trials=naive_budget
                )
                timings[f"solver_naive_{naive_budget}"].append(time.perf_counter() - started)

                started = time.perf_counter()
                smallest_witness_for_expression(expression, instance, row, mode="optimal")
                timings["solver_opt"].append(time.perf_counter() - started)

                started = time.perf_counter()
                targets = only_in_q1 if only_in_q1 else only_in_q2
                for target in targets:
                    target_expression = annotated_all.expression_for(target)
                    smallest_witness_for_expression(
                        target_expression, instance, target, mode="optimal"
                    )
                timings["solver_opt_all"].append(time.perf_counter() - started)
            row_out: Row = {"num_tuples": instance.total_size(), "pairs": len(pairs)}
            for component, values in timings.items():
                row_out[f"{component}_s"] = round(mean(values), 4)
            out.append(row_out)
        return out

    return run_experiment(
        "Figure 4 — database size vs component running time",
        "Mean per-component running time over course query pairs at each instance size.",
        rows,
        profile=profile.name,
        seed=seed,
    )
