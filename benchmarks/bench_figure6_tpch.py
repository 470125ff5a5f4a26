"""Benchmark regenerating Figure 6: TPC-H aggregate queries, Agg-Basic vs Agg-Opt."""

from conftest import attach_rows, run_once

from repro.experiments import tpch_experiment


def test_figure6_tpch(benchmark, profile):
    result = run_once(benchmark, tpch_experiment, profile)
    attach_rows(benchmark, result)
    by_key = {}
    for row in result.rows:
        by_key.setdefault(row["query"], {})[row["algorithm"]] = row
    assert set(by_key) == {"Q4", "Q16", "Q18", "Q21", "Q21-S"}
    # The heuristic stays interactive on every query.
    for key, rows in by_key.items():
        opt_row = rows["Agg-Opt"]
        basic_row = rows["Agg-Basic"]
        if opt_row["total_s"] is not None and basic_row["total_s"] is not None:
            assert opt_row["solver_s"] <= basic_row["solver_s"] * 3 + 1.0
    # The paper's Z3-based Agg-Basic times out on the large-group queries
    # Q4 / Q21 / Q21-S; the size-ordered search here proves every witness
    # optimal within its check budget, on every query.
    statuses = {key: rows["Agg-Basic"]["status"] for key, rows in by_key.items()}
    assert all(status == "ok" for status in statuses.values()), statuses
