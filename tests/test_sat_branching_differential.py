"""Heap-ordered branching makes exactly the decisions of a linear VSIDS scan.

``SATSolver`` picks its branch variable from a lazy activity heap.  The
reference below is the linear scan it replaced: visit every variable, keep the
first one with strictly the highest activity.  For the dense variable ids
``VariablePool`` mints, that scan visits variables in ascending order, so both
break ties on the lowest index and must agree on every decision — hence on
every model and every counter in :class:`SolveStats`.
"""

from __future__ import annotations

import random

import pytest

from repro.provenance.boolexpr import band, bnot, bor, var
from repro.solver import minones as minones_module
from repro.solver.minones import MinOnesProblem, MinOnesSolver
from repro.solver.sat import SATSolver


class LinearScanSolver(SATSolver):
    """The pre-heap branching rule: an O(V) scan per decision."""

    def _pick_branch_literal(self) -> int | None:
        best_var: int | None = None
        best_activity = -1.0
        for var in self._variables:
            if var in self._assign:
                continue
            activity = self._activity[var]
            if activity > best_activity:
                best_activity = activity
                best_var = var
        if best_var is None:
            return None
        phase = self._phase.get(best_var, self.default_phase)
        return best_var if phase else -best_var


def _random_cnf(rng: random.Random, num_vars: int, num_clauses: int) -> list[list[int]]:
    """Random 3-CNF mentioning every variable in 1..num_vars (dense ids)."""
    clauses = []
    for index in range(num_clauses):
        width = rng.choice((2, 3, 3, 3))
        variables = rng.sample(range(1, num_vars + 1), width)
        if index < num_vars:
            variables[0] = index + 1
            variables = list(dict.fromkeys(variables))
        clauses.append([v if rng.random() < 0.5 else -v for v in variables])
    return clauses


def _run(solver_cls, clauses, rng_seed, *, phases=(), var_inc=None, blocking_rounds=4):
    """Solve, then block and re-solve a few models; return models and stats."""
    solver = solver_cls()
    if phases:
        solver.warm_start(clauses, (), phases)
    else:
        solver.add_clauses(clauses)
    if var_inc is not None:
        solver._var_inc = var_inc
    rng = random.Random(rng_seed)
    models = []
    for _ in range(blocking_rounds):
        model = solver.solve()
        models.append(None if model is None else sorted(model.items()))
        if model is None:
            break
        chosen = rng.sample(sorted(model), min(4, len(model)))
        solver.add_clause([-v if model[v] else v for v in chosen])
    return models, solver.stats, solver._var_inc


CASES = [(seed, num_vars) for seed in range(24) for num_vars in (8, 20, 45)]


@pytest.mark.parametrize("seed,num_vars", CASES)
def test_random_cnf_matches_linear_scan(seed, num_vars):
    rng = random.Random(seed)
    clauses = _random_cnf(rng, num_vars, int(num_vars * rng.uniform(3.0, 4.6)))
    heap = _run(SATSolver, clauses, seed)
    linear = _run(LinearScanSolver, clauses, seed)
    assert heap == linear


@pytest.mark.parametrize("seed", range(16))
def test_warm_start_phases_match_linear_scan(seed):
    rng = random.Random(1000 + seed)
    num_vars = 30
    clauses = _random_cnf(rng, num_vars, 120)
    phases = [(var, rng.random() < 0.5) for var in range(1, num_vars + 1)]
    assert _run(SATSolver, clauses, seed, phases=phases) == _run(
        LinearScanSolver, clauses, seed, phases=phases
    )


def test_activity_rescaling_matches_linear_scan():
    # Starting the increment near the rescale threshold forces rescales (and
    # heap rebuilds) within a few conflicts; a rescale shrinks the increment.
    rescaled = 0
    for seed in range(8):
        rng = random.Random(2000 + seed)
        clauses = _random_cnf(rng, 40, 110)
        heap = _run(SATSolver, clauses, seed, var_inc=4e99)
        assert heap == _run(LinearScanSolver, clauses, seed, var_inc=4e99)
        rescaled += heap[2] < 1.0
    assert rescaled >= 4


def _random_expression(rng: random.Random, names: list[str], depth: int = 3):
    if depth == 0 or rng.random() < 0.25:
        leaf = var(rng.choice(names))
        return bnot(leaf) if rng.random() < 0.2 else leaf
    children = [_random_expression(rng, names, depth - 1) for _ in range(rng.randint(2, 3))]
    return band(*children) if rng.random() < 0.5 else bor(*children)


def _minimize_with(solver_cls, problem, monkeypatch):
    created: list[SATSolver] = []

    class Recording(solver_cls):
        def __init__(self, *args, **kwargs) -> None:
            super().__init__(*args, **kwargs)
            created.append(self)

    monkeypatch.setattr(minones_module, "SATSolver", Recording)
    result = MinOnesSolver(problem).minimize()
    return result, [solver.stats for solver in created]


@pytest.mark.parametrize("seed", range(24))
def test_min_ones_matches_linear_scan(seed, monkeypatch):
    rng = random.Random(3000 + seed)
    names = [f"T:{i}" for i in range(1, 13)]
    problem = MinOnesProblem()
    for _ in range(rng.randint(1, 3)):
        problem.add_constraint(_random_expression(rng, names))
    for child in rng.sample(names, 3):
        problem.add_foreign_key(child, rng.sample([n for n in names if n != child], 2))
    try:
        heap = _minimize_with(SATSolver, problem, monkeypatch)
    except Exception as exc:  # an unsatisfiable draw must fail the same way
        with pytest.raises(type(exc)):
            _minimize_with(LinearScanSolver, problem, monkeypatch)
        return
    assert heap == _minimize_with(LinearScanSolver, problem, monkeypatch)
