"""Regression-testing rewritten aggregate queries on TPC-H (the §7.2 scenario).

A developer "optimises" TPC-H Q18 and Q16 but the rewrites are subtly wrong.
Running the rewrite against the reference query on a test database produces a
difference; the aggregate counterexample algorithms explain it with a handful
of tuples, and parameterizing the HAVING constant (Agg-Param) shrinks the
explanation further — the Figure 6 / Figure 7 story.

Run with:  python examples/tpch_regression.py
"""

from repro.core import (
    smallest_counterexample_agg_basic,
    smallest_counterexample_agg_opt,
)
from repro.datagen import tpch_instance
from repro.ra import evaluate, results_differ
from repro.ratest import format_instance
from repro.workload import tpch_query


def explain(query_key: str, variant_index: int, instance) -> None:
    query = tpch_query(query_key)
    correct = query.correct_query
    rewrite = query.wrong_queries[variant_index]
    print(f"=== {query_key}: {query.description}")
    if not results_differ(correct, rewrite, instance):
        print("    (rewrite is indistinguishable at this scale — try a larger scale)\n")
        return
    reference_rows = len(evaluate(correct, instance))
    rewrite_rows = len(evaluate(rewrite, instance))
    print(f"    reference returns {reference_rows} rows, rewrite returns {rewrite_rows} rows")

    heuristic = smallest_counterexample_agg_opt(correct, rewrite, instance)
    print(
        f"    Agg-Opt  : counterexample of {heuristic.size} tuples "
        f"in {heuristic.total_time():.2f}s"
    )
    basic = smallest_counterexample_agg_basic(correct, rewrite, instance)
    print(
        f"    Agg-Basic: counterexample of {basic.size} tuples "
        f"in {basic.total_time():.2f}s "
        f"({'optimal' if basic.optimal else 'budget exhausted'})"
    )
    if query.has_aggregate_predicate:
        parameterized = smallest_counterexample_agg_basic(
            correct, rewrite, instance, parameterize=True
        )
        setting = ", ".join(
            f"@{name}={value}" for name, value in sorted(parameterized.parameter_values.items())
        )
        print(
            f"    Agg-Param: counterexample of {parameterized.size} tuples "
            f"with parameter setting {setting}"
        )
    print()
    print("    Counterexample returned by Agg-Opt:")
    print(_indent(format_instance(heuristic.counterexample), 6))
    print()


def _indent(text: str, spaces: int) -> str:
    pad = " " * spaces
    return "\n".join(pad + line for line in text.splitlines())


def main() -> None:
    instance = tpch_instance(scale=0.1, seed=1)
    print(f"TPC-H-lite test database: {instance.total_size()} tuples\n")
    explain("Q18", 1, instance)   # rewrite added a spurious returnflag filter
    explain("Q16", 1, instance)   # rewrite dropped the supplier exclusion
    explain("Q21", 0, instance)   # rewrite forgot the "sole failing supplier" check


if __name__ == "__main__":
    main()
