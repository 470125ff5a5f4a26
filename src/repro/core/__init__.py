"""The paper's algorithms: SWP/SCP solvers for SPJUD and aggregate queries."""

from repro.core.aggregates import (
    is_aggregate_pair,
    smallest_counterexample_agg_basic,
    smallest_counterexample_agg_opt,
)
from repro.core.basic import smallest_counterexample_basic, smallest_witness_for_expression
from repro.core.common import pick_witness_target, symmetric_difference_rows
from repro.core.finder import (
    ALGORITHMS,
    SmallestCounterexampleFinder,
    find_smallest_counterexample,
)
from repro.core.fk import foreign_key_clauses
from repro.core.optsigma import smallest_witness_optsigma
from repro.core.polytime import smallest_witness_monotone_dnf, smallest_witness_spjud_star
from repro.core.results import CounterexampleResult, WitnessResult, witness_cardinality
from repro.core.verify import (
    VerificationFailure,
    VerificationReport,
    verify_counterexample,
)

__all__ = [
    "ALGORITHMS",
    "CounterexampleResult",
    "SmallestCounterexampleFinder",
    "VerificationFailure",
    "VerificationReport",
    "WitnessResult",
    "find_smallest_counterexample",
    "foreign_key_clauses",
    "is_aggregate_pair",
    "pick_witness_target",
    "smallest_counterexample_agg_basic",
    "smallest_counterexample_agg_opt",
    "smallest_counterexample_basic",
    "smallest_witness_for_expression",
    "smallest_witness_monotone_dnf",
    "smallest_witness_optsigma",
    "smallest_witness_spjud_star",
    "symmetric_difference_rows",
    "verify_counterexample",
    "witness_cardinality",
]
