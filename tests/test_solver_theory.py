"""Tests for the aggregate solver (SMT-lite): exact search by witness size."""

import itertools
import math
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from repro.errors import UnsatisfiableError
from repro.provenance.aggregate import (
    AggAnd,
    AggComparison,
    AggNot,
    AggOr,
    BoolCondition,
    NumConst,
    NumParam,
    SymbolicAggregate,
    ValuesDiffer,
)
from repro.provenance.boolexpr import band, bnot, bor, var
from repro.ra import AggregateFunction
from repro.solver.minones import ForeignKeyClause
from repro.solver.theory import AggregateProblem, AggregateSolver, AggregateSolverConfig, solve_aggregate


def _count(*names):
    return SymbolicAggregate(AggregateFunction.COUNT, tuple((var(n), 1) for n in names))


def _avg(pairs):
    return SymbolicAggregate(AggregateFunction.AVG, tuple((var(n), v) for n, v in pairs))


def brute_force(constraint, fk_clauses=(), seeds=None):
    """The smallest witness size by exhaustive search, or None if there is none.

    Tries every subset T of the constraint's variables.  T's witness is the
    smallest FK-closed set whose constraint variables are exactly T, found by
    trying every parent of every clause.  Parameters range over every integer
    within one of a value that a parameter-free expression of the constraint
    takes on T, plus 0, 1 and the seeds.
    """
    names = sorted(constraint.variables())
    clauses = {}
    for fk in fk_clauses:
        clauses.setdefault(fk.child, []).append(fk.parents)
    parameters = sorted(constraint.parameters())
    best = None
    for size in range(len(names) + 1):
        for subset in itertools.combinations(names, size):
            kept = frozenset(subset)
            witness = _smallest_closure(kept, clauses, set(names) - kept)
            if witness is None or (best is not None and witness >= best):
                continue
            if _holds_for_some_parameters(constraint, kept, parameters, seeds or {}):
                best = witness
    return best


def _smallest_closure(kept, clauses, forbidden):
    """Size of the smallest FK-closed superset of ``kept`` avoiding ``forbidden``."""
    for tid in sorted(kept):
        for parents in clauses.get(tid, ()):
            if kept.isdisjoint(parents):
                sizes = [
                    _smallest_closure(kept | {parent}, clauses, forbidden)
                    for parent in parents
                    if parent not in forbidden
                ]
                sizes = [size for size in sizes if size is not None]
                return min(sizes) if sizes else None
    return len(kept)


def _holds_for_some_parameters(constraint, kept, parameters, seeds):
    assignment = {name: True for name in kept}
    if not parameters:
        return constraint.evaluate(assignment, {})
    values = {0, 1, *seeds.values()}
    for number in _numbers(constraint):
        if number.parameters():
            continue
        value = number.evaluate(assignment, {})
        if isinstance(value, (int, float)):
            values.update(range(math.floor(value) - 1, math.ceil(value) + 2))
    for combination in itertools.product(sorted(values), repeat=len(parameters)):
        if constraint.evaluate(assignment, dict(zip(parameters, combination))):
            return True
    return False


def _numbers(constraint):
    if isinstance(constraint, (AggComparison, ValuesDiffer)):
        yield constraint.left
        yield constraint.right
    elif isinstance(constraint, (AggAnd, AggOr)):
        for operand in constraint.operands:
            yield from _numbers(operand)
    elif isinstance(constraint, AggNot):
        yield from _numbers(constraint.operand)


class TestAggregateSolver:
    def test_presence_only_constraint(self):
        constraint = BoolCondition(bor(var("a"), var("b")))
        result = solve_aggregate(constraint)
        assert result.cost == 1
        assert result.optimal

    def test_count_threshold(self):
        constraint = AggComparison(">=", _count("a", "b", "c"), NumConst(2))
        result = solve_aggregate(constraint)
        assert result.cost == 2

    def test_average_difference_example5(self):
        # Mary's average over CS courses vs over all courses: keeping only the
        # ECON registration (t6) plus presence makes the averages differ.
        avg_cs = _avg([("t4", 100), ("t5", 75)])
        avg_all = _avg([("t4", 100), ("t5", 75), ("t6", 95)])
        presence = BoolCondition(bor(var("t4"), var("t5"), var("t6")))
        constraint = AggAnd((presence, ValuesDiffer(avg_cs, avg_all)))
        result = solve_aggregate(constraint)
        assert result.cost == 1
        assert result.true_variables == frozenset({"t6"})

    def test_unsatisfiable(self):
        constraint = AggAnd(
            (
                AggComparison(">=", _count("a"), NumConst(2)),  # only one contributor
            )
        )
        with pytest.raises(UnsatisfiableError):
            solve_aggregate(constraint)

    def test_foreign_keys_respected(self):
        constraint = AggComparison(">=", _count("child"), NumConst(1))
        result = solve_aggregate(
            constraint, foreign_keys=[ForeignKeyClause("child", ("parent",))]
        )
        assert result.true_variables == frozenset({"child", "parent"})

    def test_budget_returns_best_effort(self):
        names = [f"x{i}" for i in range(12)]
        constraint = AggComparison(">=", _count(*names), NumConst(6))
        config = AggregateSolverConfig(max_nodes=50)
        result = AggregateSolver(AggregateProblem(constraint=constraint), config).solve()
        assert result.timed_out or result.optimal
        assert result.cost >= 6  # still a valid (possibly non-optimal) answer

    def test_negation_and_disjunction(self):
        constraint = AggOr(
            (
                AggAnd((BoolCondition(var("a")), AggNot(BoolCondition(var("b"))))),
                AggComparison(">=", _count("c", "d"), NumConst(2)),
            )
        )
        result = solve_aggregate(constraint)
        assert result.cost == 1
        assert result.true_variables == frozenset({"a"})

    @pytest.mark.parametrize("threshold,expected", [(1, 1), (2, 2), (3, 3)])
    def test_matches_brute_force(self, threshold, expected):
        constraint = AggComparison(">=", _count("a", "b", "c", "d"), NumConst(threshold))
        assert solve_aggregate(constraint).cost == brute_force(constraint) == expected


class TestParameterSynthesis:
    def test_parameter_allows_smaller_counterexample(self):
        # count(kept) >= @p and the averages must differ; with a free parameter
        # the solver can pick p = 0 or 1 and keep a single tuple.
        count_expr = _count("t4", "t5", "t6")
        avg_cs = _avg([("t4", 100), ("t5", 75)])
        avg_all = _avg([("t4", 100), ("t5", 75), ("t6", 95)])
        constraint = AggAnd(
            (
                AggComparison(">=", count_expr, NumParam("numCS")),
                ValuesDiffer(avg_cs, avg_all),
            )
        )
        result = solve_aggregate(constraint)
        assert result.cost == 1
        assert "numCS" in result.parameter_values
        assignment = {name: True for name in result.true_variables}
        assert constraint.evaluate(assignment, result.parameter_values)

    def test_parameter_on_both_sides_is_handled(self):
        constraint = AggComparison(">=", NumParam("p"), NumParam("p"))
        result = solve_aggregate(constraint)
        assert result.cost == 0

    def test_brute_force_agreement_with_parameters(self):
        constraint = AggAnd(
            (
                AggComparison(">=", _count("a", "b", "c"), NumParam("k")),
                AggComparison(">=", _count("a", "b"), NumConst(1)),
            )
        )
        result = solve_aggregate(constraint)
        expected = brute_force(constraint)
        assert result.cost == expected

    def test_variable_order_prioritises_frequent_variables(self):
        constraint = AggAnd(
            (
                BoolCondition(var("hot")),
                AggComparison(">=", _count("hot", "cold"), NumConst(1)),
            )
        )
        problem = AggregateProblem(constraint=constraint)
        order = AggregateSolver(problem)._variable_order()
        assert order[0] == "hot"


# ---------------------------------------------------------------------------
# Differential tests against brute_force on seeded random constraints
# ---------------------------------------------------------------------------

_FUNCS = list(AggregateFunction)
_OPS = ["=", "!=", "<", "<=", ">", ">="]


def random_problem(seed, features=None):
    """A seeded aggregate problem over a lineitem→orders→customer→nation→region chain.

    ``features`` (a Counter) records which constructs the problem uses.
    """
    rng = random.Random(seed)
    features = features if features is not None else Counter()
    levels = {
        "region": rng.randint(1, 2),
        "nation": rng.randint(1, 2),
        "customer": rng.randint(1, 3),
        "orders": rng.randint(2, 3),
        "lineitem": rng.randint(3, 5),
    }
    tids = {level: [f"{level}:{i}" for i in range(count)] for level, count in levels.items()}
    chain = list(levels)
    clauses = []
    for parent_level, child_level in zip(chain, chain[1:]):
        for child in tids[child_level]:
            clauses.append(ForeignKeyClause(child, (rng.choice(tids[parent_level]),)))
    if rng.random() < 0.5:
        features["part"] += 1
        for child in tids["lineitem"]:
            clauses.append(ForeignKeyClause(child, (f"part:{rng.randint(0, 2)}",)))
    if rng.random() < 0.3:
        # A key referencing a non-unique column: any of two orders will do.
        features["multi_parent"] += 1
        child = rng.choice(tids["lineitem"])
        clauses = [fk for fk in clauses if fk.child != child]
        clauses.append(ForeignKeyClause(child, tuple(rng.sample(tids["orders"], 2))))
    if rng.random() < 0.25:
        features["dangling"] += 1
        clauses.append(ForeignKeyClause(rng.choice(tids["lineitem"] + tids["customer"]), ()))
    names = tids["lineitem"] + tids["orders"]
    if rng.random() < 0.3:
        names = names + tids["customer"][:1]
    names = rng.sample(names, min(len(names), rng.randint(3, 7)))
    parameters = ["p0", "p1"][: rng.choice([0, 0, 1, 1, 2])]

    def term():
        roll = rng.random()
        if roll < 0.35:
            return var(rng.choice(names))
        left, right = rng.sample(names, 2)
        if roll < 0.7:
            return band(var(left), var(right))
        if roll < 0.85:
            features["negated_provenance"] += 1
            return band(var(left), bnot(band(var(left), var(right))))
        return bor(band(var(left), var(right)), var(rng.choice(names)))

    def aggregate():
        func = rng.choice(_FUNCS)
        features[func.value] += 1
        contributions = []
        for _ in range(rng.randint(1, 4)):
            value = rng.choice([0, 1, 2, 3, 4, 4, None])
            if func is AggregateFunction.COUNT:
                value = None if value is None else 1
            contributions.append((term(), value))
        return SymbolicAggregate(func, tuple(contributions))

    def leaf():
        roll = rng.random()
        if roll < 0.25:
            return BoolCondition(term())
        if roll < 0.45:
            features["values_differ"] += 1
            return ValuesDiffer(aggregate(), aggregate())
        other = NumConst(rng.randint(0, 6))
        if parameters and roll < 0.8:
            features["parameter"] += 1
            other = NumParam(rng.choice(parameters))
        sides = (aggregate(), other) if rng.random() < 0.7 else (other, aggregate())
        return AggComparison(rng.choice(_OPS), *sides)

    def constraint(depth):
        roll = rng.random()
        if depth == 0 or roll < 0.35:
            return leaf()
        if roll < 0.6:
            return AggAnd((constraint(depth - 1), constraint(depth - 1)))
        if roll < 0.8:
            features["or"] += 1
            return AggOr((constraint(depth - 1), constraint(depth - 1)))
        features["not"] += 1
        return AggNot(constraint(depth - 1))

    body = constraint(2)
    if rng.random() < 0.5:
        body = AggAnd((BoolCondition(bor(*(term() for _ in range(2)))), body))
    problem = AggregateProblem(constraint=body, foreign_keys=clauses)
    if parameters and rng.random() < 0.5:
        problem.seed_parameters({name: rng.randint(0, 5) for name in parameters})
    return problem


def _assert_valid_witness(problem, result):
    kept = result.true_variables
    assert result.cost == len(kept)
    for fk in problem.foreign_keys:
        if fk.child in kept:
            assert not kept.isdisjoint(fk.parents), (fk, sorted(kept))
    assignment = {name: True for name in kept}
    assert problem.constraint.evaluate(assignment, result.parameter_values)


class TestDifferential:
    SEEDS = range(400)

    def test_matches_brute_force_on_random_constraints(self):
        features = Counter()
        satisfiable = 0
        for seed in self.SEEDS:
            problem = random_problem(seed, features)
            expected = brute_force(
                problem.constraint, problem.foreign_keys, problem.parameter_seeds
            )
            if expected is None:
                with pytest.raises(UnsatisfiableError):
                    AggregateSolver(problem).solve()
                continue
            satisfiable += 1
            result = AggregateSolver(problem).solve()
            assert result.optimal, seed
            assert result.cost == expected, seed
            _assert_valid_witness(problem, result)
        assert satisfiable > len(self.SEEDS) // 2
        # Every construct the solver compiles was exercised.
        covered = {func.value for func in AggregateFunction} | {
            "values_differ", "or", "not", "negated_provenance", "parameter",
            "multi_parent", "dangling", "part",
        }
        assert covered <= {name for name, count in features.items() if count}, features

    def test_witness_is_the_same_under_two_hash_seeds(self):
        script = (
            "import sys; sys.path.insert(0, sys.argv[1])\n"
            "from test_solver_theory import random_problem\n"
            "from repro.errors import UnsatisfiableError\n"
            "from repro.solver.theory import AggregateSolver\n"
            "for seed in range(120):\n"
            "    try:\n"
            "        r = AggregateSolver(random_problem(seed)).solve()\n"
            "    except UnsatisfiableError:\n"
            "        print(seed, 'unsat'); continue\n"
            "    print(seed, sorted(r.true_variables), sorted(r.parameter_values.items()))\n"
        )
        tests_dir = str(Path(__file__).resolve().parent)
        src = str(Path(__file__).resolve().parents[1] / "src")
        outputs = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
            completed = subprocess.run(
                [sys.executable, "-c", script, tests_dir],
                env=env, capture_output=True, text=True, timeout=120, check=True,
            )
            outputs.append(completed.stdout)
        assert outputs[0] == outputs[1]
        assert outputs[0].count("\n") == 120


class TestTpchWitnesses:
    """The pairs that once exhausted the node budget are proven optimal."""

    @pytest.mark.parametrize("key,index", [("Q4", 1), ("Q18", 0), ("Q21-S", 1)])
    def test_agg_param_witness_is_proven_minimal(self, monkeypatch, key, index):
        from repro.api import GradingService, SubmissionRequest
        from repro.core import aggregates
        from repro.workload.tpch_queries import tpch_query

        solved = []

        class Recording(AggregateSolver):
            def solve(self):
                result = super().solve()
                solved.append((self.problem, result))
                return result

        monkeypatch.setattr(aggregates, "AggregateSolver", Recording)
        query = tpch_query(key)
        graded = GradingService(default_dataset="tpch:0.01", default_seed=0).submit(
            SubmissionRequest(query.correct_text, query.wrong_texts[index])
        )
        result = graded.outcome.report.result
        assert result.algorithm == "agg-param"
        assert result.optimal
        assert solved
        for problem, outcome in solved:
            assert outcome.optimal
            expected = brute_force(
                problem.constraint, problem.foreign_keys, problem.parameter_seeds
            )
            assert outcome.cost == expected
        assert result.size == min(outcome.cost for _, outcome in solved)
