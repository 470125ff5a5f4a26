"""Result types returned by the min-ones and aggregate solvers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping


@dataclass(frozen=True)
class MinOnesResult:
    """Outcome of a min-ones optimisation over Boolean provenance.

    ``true_variables`` are the provenance variables (tuple identifiers) set to
    true in the best model found; ``optimal`` records whether the solver
    proved that no smaller model exists.
    """

    true_variables: frozenset[str]
    cost: int
    optimal: bool
    solver_calls: int
    models_examined: int = 1

    @property
    def size(self) -> int:
        return self.cost


@dataclass(frozen=True)
class AggregateSolveResult:
    """Outcome of the aggregate (SMT-lite) solver; ``nodes_explored`` counts candidate checks."""

    true_variables: frozenset[str]
    parameter_values: Mapping[str, Any]
    cost: int
    optimal: bool
    nodes_explored: int
    timed_out: bool = False

    @property
    def size(self) -> int:
        return self.cost


@dataclass
class EnumerationResult:
    """Outcome of Naive-* model enumeration (Algorithm 1 / Figure 5)."""

    models: list[frozenset[str]] = field(default_factory=list)
    best: frozenset[str] | None = None
    exhausted: bool = False
    solver_calls: int = 0

    @property
    def best_cost(self) -> int | None:
        return None if self.best is None else len(self.best)
