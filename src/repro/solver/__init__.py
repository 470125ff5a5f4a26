"""Constraint solving: SAT, cardinality minimisation, exact aggregate search."""

from repro.solver.clausecache import ClauseCache, ClauseCacheEntry
from repro.solver.cnf import CNF, VariablePool, assert_expression, sequential_counter, tseitin
from repro.solver.minones import (
    ForeignKeyClause,
    MinOnesProblem,
    MinOnesSolver,
    solve_min_ones,
)
from repro.solver.models import AggregateSolveResult, EnumerationResult, MinOnesResult
from repro.solver.sat import SATSolver, SolveStats
from repro.solver.theory import (
    AggregateProblem,
    AggregateSolver,
    AggregateSolverConfig,
    solve_aggregate,
)

__all__ = [
    "AggregateProblem",
    "AggregateSolveResult",
    "AggregateSolver",
    "AggregateSolverConfig",
    "CNF",
    "ClauseCache",
    "ClauseCacheEntry",
    "EnumerationResult",
    "ForeignKeyClause",
    "MinOnesProblem",
    "MinOnesResult",
    "MinOnesSolver",
    "SATSolver",
    "SolveStats",
    "VariablePool",
    "assert_expression",
    "sequential_counter",
    "solve_aggregate",
    "solve_min_ones",
    "tseitin",
]
