"""Smoke tests for the experiment drivers (tiny scale, checking shapes not numbers)."""

import pytest

from repro.experiments import (
    ScaleProfile,
    complexity_experiment,
    dichotomy_experiment,
    differing_pairs,
    discovery_experiment,
    generate_report,
    parameterization_experiment,
    scaling_experiment,
    scp_vs_swp_experiment,
    solver_strategy_experiment,
    tpch_experiment,
    user_study_experiments,
)
from repro.datagen import university_instance

TINY = ScaleProfile(
    name="tiny",
    database_sizes=(120, 250),
    pairs_per_size=3,
    tpch_scale=0.04,
    naive_budgets=(1, 4),
    cohort_size=40,
)


class TestProfilesAndPairs:
    def test_named_profiles(self):
        assert ScaleProfile.by_name("quick").name == "quick"
        assert ScaleProfile.by_name("paper").database_sizes[-1] == 100000
        with pytest.raises(ValueError):
            ScaleProfile.by_name("huge")

    def test_differing_pairs_actually_differ(self):
        instance = university_instance(30, seed=3)
        pairs = differing_pairs(instance, limit=5, seed=3)
        assert 0 < len(pairs) <= 5
        from repro.ra import results_differ

        for pair in pairs:
            assert results_differ(pair.correct, pair.wrong, instance)

    def test_differing_pairs_spread_questions(self):
        instance = university_instance(60, seed=3)
        pairs = differing_pairs(instance, limit=6, seed=3)
        assert len({pair.question for pair in pairs}) >= 3


class TestDrivers:
    def test_table3_rows_monotone(self):
        result = discovery_experiment(TINY)
        discovered = result.column("wrong_queries_discovered")
        assert len(discovered) == 2
        assert discovered[0] <= discovered[1] + 2  # allow small noise, expect non-decreasing trend

    def test_table4_optsigma_not_slower_and_same_size(self):
        result = scp_vs_swp_experiment(TINY)
        basic, optsigma = result.rows
        assert optsigma["mean_runtime_s"] <= basic["mean_runtime_s"]
        assert optsigma["mean_counterexample_size"] == pytest.approx(
            basic["mean_counterexample_size"], abs=0.51
        )

    def test_figure3_rows_have_metrics(self):
        result = complexity_experiment(TINY)
        assert result.rows
        for row in result.rows:
            assert row["witness_size"] >= 1
            assert row["total_s"] >= row["solver_s"]

    def test_figure4_components(self):
        result = scaling_experiment(TINY)
        assert len(result.rows) == 2
        for row in result.rows:
            assert row["solver_opt_all_s"] >= row["solver_opt_s"] - 1e-6
            assert row["prov_all_s"] >= 0 and row["prov_sp_s"] >= 0

    def test_figure5_opt_no_larger_than_naive(self):
        result = solver_strategy_experiment(TINY)
        by_strategy = {row["strategy"]: row for row in result.rows}
        assert by_strategy["Opt"]["mean_witness_size"] <= by_strategy["Naive-1"]["mean_witness_size"]

    def test_dichotomy_rows(self):
        result = dichotomy_experiment(TINY)
        assert result.rows
        for row in result.rows:
            if "specialised_size" in row:
                assert row["specialised_size"] == row["optsigma_size"]

    def test_user_study_experiments(self):
        results = user_study_experiments(TINY)
        assert set(results) == {"figure8", "table5", "figure9", "figure10"}
        assert results["table5"].rows

    def test_report_generation(self):
        results = user_study_experiments(TINY)
        report = generate_report(results)
        assert "Table 5" in report and "| problem |" in report


@pytest.mark.slow
class TestTpchDrivers:
    def test_figure6_rows(self):
        result = tpch_experiment(TINY)
        assert {row["query"] for row in result.rows} == {"Q4", "Q16", "Q18", "Q21", "Q21-S"}
        assert {row["algorithm"] for row in result.rows} == {"Agg-Basic", "Agg-Opt"}

    def test_figure7_parameterization_helps(self):
        result = parameterization_experiment(TINY)
        by_algorithm = {row["algorithm"]: row for row in result.rows}
        basic = by_algorithm["Agg-Basic"]["mean_counterexample_size"]
        param = by_algorithm["Agg-Param"]["mean_counterexample_size"]
        if basic is not None and param is not None:
            assert param <= basic
