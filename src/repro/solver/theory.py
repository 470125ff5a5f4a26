"""Exact solver for aggregate provenance constraints ("SMT-lite").

Aggregate counterexamples (§5) need more than Boolean satisfiability: the
constraint mixes tuple variables, symbolic aggregate values computed from the
kept tuples, and — for the parameterized variant (Definition 3) — free integer
parameters standing for the constants of HAVING predicates.

Z3's optimizing solver is unavailable offline, so this module searches the
witnesses themselves, smallest first:

* a candidate is a set of tuples closed under foreign keys, grown from the
  constraint's own variables: adding a tuple adds its FK parents at once
  (forced for a single parent, one branch per parent otherwise; a tuple whose
  reference dangles is never added), so a candidate's size is the size of the
  witness it would ship;
* candidates are enumerated by iterative deepening on that size, each set
  once (variables are added in a fixed order, and a variable skipped earlier
  may not come back as a parent), so the first size at which a candidate
  satisfies the constraint is the proven optimum;
* a check reads only what a small candidate can make true: every Boolean
  term and aggregate contribution is filed under one variable it needs, each
  aggregate is computed once per candidate, and parameter values are
  synthesised from the finitely many *breakpoints* of the aggregates (an
  integer parameter compared against aggregates only changes the
  constraint's truth value at those breakpoints, so trying breakpoint±1
  values is complete);
* a budget on candidate checks bounds pathological instances (huge groups,
  large optima): the answer is then the FK-closed set of all variables with
  ``optimal=False`` — mirroring the paper's observation that the SMT solver
  does not scale to large groups.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from repro.errors import UnsatisfiableError
from repro.provenance.aggregate import (
    AggAnd,
    AggComparison,
    AggConstraint,
    AggNot,
    AggOr,
    AggTrue,
    BoolCondition,
    NumConst,
    NumExpr,
    NumParam,
    SymbolicAggregate,
    ValuesDiffer,
    comparator,
    fold_aggregate,
)
from repro.provenance.boolexpr import AndExpr, BoolExpr, FalseExpr, NotExpr, OrExpr, TrueExpr, Var
from repro.solver.minones import ForeignKeyClause
from repro.solver.models import AggregateSolveResult

#: A compiled test on the set of kept tuples.
Membership = Callable[[frozenset[str]], bool]
#: A compiled constraint or value: (kept tuples, per-candidate memo, parameters).
Compiled = Callable[[frozenset[str], dict[int, Any], Mapping[str, Any]], Any]


@dataclass
class AggregateProblem:
    """An aggregate min-ones instance."""

    constraint: AggConstraint
    foreign_keys: list[ForeignKeyClause] = field(default_factory=list)
    parameters: set[str] = field(default_factory=set)
    #: Known good values per parameter (the original constants / the caller's
    #: binding).  Always tried as candidates; for non-numeric parameters they
    #: are the *only* trustworthy candidates, since breakpoint synthesis is
    #: integer arithmetic.
    parameter_seeds: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.parameters |= self.constraint.parameters()

    def seed_parameters(self, values: Mapping[str, Any]) -> None:
        """Record known-good values for any of the constraint's parameters."""
        for name, value in values.items():
            if name in self.parameters:
                self.parameter_seeds[name] = value

    def add_foreign_key(self, child: str, parents: Iterable[str]) -> None:
        self.foreign_keys.append(ForeignKeyClause(child, tuple(parents)))


@dataclass
class AggregateSolverConfig:
    """The search's one budget: candidate checks before it gives up on optimality.

    A check costs tens of microseconds on the TPC-H workloads, so the default
    bounds a hopeless solve to well under a second.
    """

    max_nodes: int = 20_000


class _BudgetExhausted(Exception):
    """Raised inside the search when the check budget is spent."""


class AggregateSolver:
    """Minimise the number of kept tuples subject to an aggregate constraint."""

    def __init__(self, problem: AggregateProblem, config: AggregateSolverConfig | None = None) -> None:
        self.problem = problem
        self.config = config or AggregateSolverConfig()
        # Every clause per child tuple: a relation may carry several foreign
        # keys (Likes.drinker → Drinker *and* Likes.beer → Beer) and each must
        # hold.  A clause with no parents means the child's reference dangles
        # in the full instance; such a tuple can never be part of a witness.
        self._clauses: dict[str, list[tuple[str, ...]]] = {}
        for fk in problem.foreign_keys:
            clauses = self._clauses.setdefault(fk.child, [])
            if fk.parents not in clauses:
                clauses.append(fk.parents)
        self._rank: dict[str, int] = {}
        order = [
            name
            for name in self._variable_order()
            if next(self._grow(frozenset({name}), [name], None, -1), None) is not None
        ]
        self._order = order
        self._rank = {name: index for index, name in enumerate(order)}
        # Most tuples reach their ancestors through single-parent keys only;
        # their closure is one fixed set, and ``_below`` holds its members a
        # canonical enumeration must already have added.
        self._closures: list[frozenset[str] | None] = [self._fixed_closure(name) for name in order]
        self._below: list[frozenset[str]] = [
            frozenset(m for m in closure if self._rank.get(m, index) < index)
            if closure is not None
            else frozenset()
            for index, closure in enumerate(self._closures)
        ]
        # The search reads variables by closure size (a branching closure
        # counts as one tuple, the least it can add) and by the tuples their
        # closures contain; both lists are in index order.
        by_size: dict[int, list[int]] = {}
        self._containing: dict[str, list[int]] = {}
        for index, closure in enumerate(self._closures):
            by_size.setdefault(1 if closure is None else len(closure), []).append(index)
            for tid in closure or ():
                self._containing.setdefault(tid, []).append(index)
        self._by_size = sorted(by_size.items())
        self._numbers: dict[int, Compiled] = {}
        self._breakpoints: dict[tuple[str, int], Compiled] = {}
        self._holds = self._compile(problem.constraint)
        self._parameter_names = sorted(problem.parameters)
        self._checks = 0
        self._next_bound: int | None = None

    # -- public API -----------------------------------------------------------

    def solve(self) -> AggregateSolveResult:
        self._checks = 0
        bound: int | None = 0
        try:
            while bound is not None:
                self._next_bound = None
                found = self._visit(bound, 0, frozenset())
                if found is not None:
                    witness, parameter_values = found
                    return AggregateSolveResult(
                        true_variables=witness,
                        parameter_values=parameter_values,
                        cost=len(witness),
                        optimal=True,
                        nodes_explored=self._checks,
                    )
                bound = self._next_bound
        except _BudgetExhausted:
            return self._fallback()
        raise UnsatisfiableError("aggregate constraint is unsatisfiable over the instance")

    # -- the search -----------------------------------------------------------

    def _visit(
        self, bound: int, start: int, kept: frozenset[str]
    ) -> tuple[frozenset[str], dict[str, Any]] | None:
        """Check every canonical candidate of ``bound`` tuples that extends ``kept``.

        ``kept`` holds the variables chosen before index ``start`` (and their
        parents); variables before ``start`` that are not in it stay out.
        """
        if len(kept) == bound:
            # Candidates one tuple larger may extend this one.
            self._note_size(bound + 1)
            return self._check(kept)
        closures, below, order = self._closures, self._below, self._order
        for index in self._candidates(start, kept, bound - len(kept)):
            name = order[index]
            if name in kept:
                continue
            closure = closures[index]
            if closure is None:
                extensions: Iterable[frozenset[str]] = self._grow(kept | {name}, [name], bound, index)
            elif not below[index] <= kept:
                continue
            else:
                grown = kept | closure
                if len(grown) > bound:
                    self._note_size(len(grown))
                    continue
                extensions = (grown,)
            for grown in extensions:
                found = self._visit(bound, index + 1, grown)
                if found is not None:
                    return found
        return None

    def _candidates(self, start: int, kept: frozenset[str], room: int) -> list[int]:
        """Indices from ``start`` on whose closure may fit in ``room`` more tuples.

        A closure larger than the room fits only by sharing tuples with
        ``kept``, so only those filed under a kept tuple are read; the rest
        would be rejected one by one.
        """
        found: set[int] = set()
        for size, indices in self._by_size:
            if size > room:
                self._note_size(len(kept) + size)
                break
            found.update(indices[bisect_left(indices, start):])
        for tid in kept:
            indices = self._containing.get(tid, ())
            found.update(indices[bisect_left(indices, start):])
        return sorted(found)

    def _grow(
        self, kept: frozenset[str], pending: list[str], bound: int | None, floor: int
    ) -> Iterator[frozenset[str]]:
        """Each minimal FK-closed superset of ``kept`` with at most ``bound`` tuples.

        ``pending`` lists the added tuples whose clauses are still to be
        satisfied; a clause with several admissible parents branches over
        them.  A variable ranked at or below ``floor`` that is not kept was
        skipped by the enumeration and may not be added.
        """
        states = [(kept, list(pending))]
        while states:
            kept, pending = states.pop()
            while pending:
                unmet = self._unmet_clause(kept, pending[-1])
                if unmet is None:
                    pending.pop()
                    continue
                options = [p for p in unmet if self._rank.get(p, floor + 1) > floor]
                if options and bound is not None and len(kept) >= bound:
                    self._note_size(len(kept) + 1)
                    options = []
                if len(options) != 1:
                    # A dead end, or one state per parent with the first on top.
                    states.extend((kept | {p}, pending + [p]) for p in reversed(options))
                    break
                kept = kept | {options[0]}
                pending.append(options[0])
            else:
                yield kept

    def _unmet_clause(self, kept: frozenset[str], tid: str) -> tuple[str, ...] | None:
        for parents in self._clauses.get(tid, ()):
            if kept.isdisjoint(parents):
                return parents
        return None

    def _fixed_closure(self, name: str) -> frozenset[str] | None:
        """The tuple's FK closure when every clause on the way has one parent."""
        closure = {name}
        pending = [name]
        while pending:
            for parents in self._clauses.get(pending.pop(), ()):
                if len(parents) != 1:
                    return None
                if parents[0] not in closure:
                    closure.add(parents[0])
                    pending.append(parents[0])
        return frozenset(closure)

    def _note_size(self, size: int) -> None:
        if self._next_bound is None or size < self._next_bound:
            self._next_bound = size

    def _check(self, kept: frozenset[str]) -> tuple[frozenset[str], dict[str, Any]] | None:
        if self._checks >= self.config.max_nodes:
            raise _BudgetExhausted
        self._checks += 1
        parameter_values = self._satisfies(kept)
        return None if parameter_values is None else (kept, parameter_values)

    def _fallback(self) -> AggregateSolveResult:
        """Every variable with its FK closure: large, but a witness if anything is."""
        full: frozenset[str] = frozenset()
        for name, closure in zip(self._order, self._closures):
            if closure is None:
                closure = next(self._grow(frozenset({name}), [name], None, -1))
            full |= closure
        self._checks += 1
        parameter_values = self._satisfies(full)
        if parameter_values is None:
            full, parameter_values = frozenset(), {}
        return AggregateSolveResult(
            true_variables=full,
            parameter_values=parameter_values,
            cost=len(full),
            optimal=False,
            nodes_explored=self._checks,
            timed_out=True,
        )

    def _variable_order(self) -> list[str]:
        """Order variables so frequently-constrained tuples are decided first."""
        weights: dict[str, int] = {name: 0 for name in self.problem.constraint.variables()}
        for occurrence in _variable_occurrences(self.problem.constraint):
            if occurrence in weights:
                weights[occurrence] += 1
        return sorted(weights, key=lambda name: (-weights[name], name))

    # -- the check ------------------------------------------------------------

    def _satisfies(self, kept: frozenset[str]) -> dict[str, Any] | None:
        """Parameter values making the constraint true on ``kept``, or None."""
        memo: dict[int, Any] = {}
        if not self._parameter_names:
            return {} if self._holds_on(kept, memo, {}) else None
        for candidate in self._parameter_candidates(kept, memo):
            if self._holds_on(kept, memo, candidate):
                return candidate
        return None

    def _holds_on(self, kept: frozenset[str], memo: dict[int, Any], parameter_values) -> bool:
        """Evaluate the constraint; ill-typed candidates simply do not satisfy it.

        Synthesised parameter candidates are integers (breakpoints ± 1); when
        the parameter actually ranges over strings the comparison raises
        ``TypeError``, which means "this candidate value is no good", not
        "abort the search".
        """
        try:
            return bool(self._holds(kept, memo, parameter_values))
        except TypeError:
            return False

    def _parameter_candidates(
        self, kept: frozenset[str], memo: dict[int, Any]
    ) -> Iterator[dict[str, Any]]:
        """Candidate parameter assignments derived from aggregate breakpoints.

        Every parameter's known-good seed value (the original constant) is
        always among the candidates; the integer probes 0/1 are only added
        when nothing suggests the parameter is non-numeric.
        """
        per_parameter: dict[str, set[Any]] = {}
        for name in self._parameter_names:
            seed = self.problem.parameter_seeds.get(name)
            if seed is not None and not isinstance(seed, (int, float)):
                per_parameter[name] = {seed}
            elif seed is not None:
                per_parameter[name] = {0, 1, seed}
            else:
                per_parameter[name] = {0, 1}
        for (name, _), other in self._breakpoints.items():
            try:
                value = other(kept, memo, {})
            except TypeError:  # an aggregate over values of mixed types
                continue
            if isinstance(value, (int, float)):
                base = int(value)
                per_parameter[name].update({base - 1, base, base + 1})
        # Candidate sets may mix types (integer probes next to a string seed);
        # order deterministically without relying on cross-type comparison.
        value_lists = [
            sorted(per_parameter[name], key=lambda v: (type(v).__name__, str(v)))
            for name in self._parameter_names
        ]
        for combination in itertools.product(*value_lists):
            yield dict(zip(self._parameter_names, combination))

    def _compile(self, constraint: AggConstraint) -> Compiled:
        """The constraint as a closure over (kept tuples, memo, parameters)."""
        if isinstance(constraint, BoolCondition):
            test = _compile_bool(constraint.expression)
            return lambda kept, memo, params: test(kept)
        if isinstance(constraint, AggComparison):
            left, right = self._number(constraint.left), self._number(constraint.right)
            compare = comparator(constraint.op)
            self._note_breakpoints(constraint.left, constraint.right)

            def holds(kept, memo, params):
                left_value = left(kept, memo, params)
                right_value = right(kept, memo, params)
                if left_value is None or right_value is None:
                    return False
                return compare(left_value, right_value)

            return holds
        if isinstance(constraint, ValuesDiffer):
            left, right = self._number(constraint.left), self._number(constraint.right)
            equal = comparator("=")
            self._note_breakpoints(constraint.left, constraint.right)

            def differ(kept, memo, params):
                left_value = left(kept, memo, params)
                right_value = right(kept, memo, params)
                if left_value is None or right_value is None:
                    return (left_value is None) != (right_value is None)
                return not equal(left_value, right_value)

            return differ
        if isinstance(constraint, AggAnd):
            parts = [self._compile(operand) for operand in constraint.operands]

            def conjunction(kept, memo, params):
                for part in parts:
                    if not part(kept, memo, params):
                        return False
                return True

            return conjunction
        if isinstance(constraint, AggOr):
            parts = [self._compile(operand) for operand in constraint.operands]

            def disjunction(kept, memo, params):
                for part in parts:
                    if part(kept, memo, params):
                        return True
                return False

            return disjunction
        if isinstance(constraint, AggNot):
            inner = self._compile(constraint.operand)
            return lambda kept, memo, params: not inner(kept, memo, params)
        if isinstance(constraint, AggTrue):
            return lambda kept, memo, params: True
        return lambda kept, memo, params: constraint.evaluate(dict.fromkeys(kept, True), params)

    def _note_breakpoints(self, left: NumExpr, right: NumExpr) -> None:
        """Remember each parameter compared against a parameter-free value."""
        for this, other in ((left, right), (right, left)):
            if isinstance(this, NumParam) and not other.parameters():
                self._breakpoints[this.name, id(other)] = self._number(other)

    def _number(self, expression: NumExpr) -> Compiled:
        """A value, computed at most once per candidate for an aggregate."""
        if isinstance(expression, NumConst):
            value = expression.value
            return lambda kept, memo, params: value
        if isinstance(expression, NumParam):
            name = expression.name
            return lambda kept, memo, params: params[name]
        if not isinstance(expression, SymbolicAggregate):
            return lambda kept, memo, params: expression.evaluate(dict.fromkeys(kept, True), params)
        # The constraint holds the expression, so its id stays unique meanwhile.
        slot = id(expression)
        if slot in self._numbers:
            return self._numbers[slot]
        func = expression.func
        contributions = _SupportIndex(
            [
                (_necessary(condition), (_compile_bool(condition), value))
                for condition, value in expression.contributions
                if value is not None
            ]
        )

        def aggregate(kept, memo, params):
            if slot in memo:
                return memo[slot]
            hits = [
                (position, value)
                for position, (test, value) in contributions.candidates(kept)
                if test(kept)
            ]
            hits.sort()
            memo[slot] = fold_aggregate(func, [value for _, value in hits])
            return memo[slot]

        self._numbers[slot] = aggregate
        return aggregate


class _SupportIndex:
    """Items that can only hold when every variable of their support is kept.

    Each item is filed under the rarest variable of its support, so a small
    candidate reads only the items it could make true; an item with an empty
    support is read every time and one that can never hold is dropped.
    """

    def __init__(self, items: Sequence[tuple[frozenset[str] | None, Any]]) -> None:
        counts: dict[str, int] = {}
        for support, _ in items:
            for name in support or ():
                counts[name] = counts.get(name, 0) + 1
        self._by_variable: dict[str, list[tuple[int, Any]]] = {}
        self._always: list[tuple[int, Any]] = []
        for position, (support, item) in enumerate(items):
            if support is None:
                continue
            if not support:
                self._always.append((position, item))
                continue
            key = min(support, key=lambda name: (counts[name], name))
            self._by_variable.setdefault(key, []).append((position, item))

    def candidates(self, kept: frozenset[str]) -> list[tuple[int, Any]]:
        by_variable = self._by_variable
        found = [entry for name in kept for entry in by_variable.get(name, ())]
        found.extend(self._always)
        return found


def _necessary(expression: BoolExpr) -> frozenset[str] | None:
    """Variables true under every satisfying assignment; None if there is none."""
    if isinstance(expression, Var):
        return frozenset({expression.name})
    if isinstance(expression, FalseExpr):
        return None
    if isinstance(expression, AndExpr):
        needed: frozenset[str] = frozenset()
        for operand in expression.operands:
            part = _necessary(operand)
            if part is None:
                return None
            needed |= part
        return needed
    if isinstance(expression, OrExpr):
        parts = [p for p in map(_necessary, expression.operands) if p is not None]
        return frozenset.intersection(*parts) if parts else None
    return frozenset()


def _compile_bool(expression: BoolExpr) -> Membership:
    """A provenance expression as a test on the kept tuples."""
    if isinstance(expression, Var):
        name = expression.name
        return lambda kept: name in kept
    if isinstance(expression, TrueExpr):
        return lambda kept: True
    if isinstance(expression, FalseExpr):
        return lambda kept: False
    if isinstance(expression, NotExpr):
        inner = _compile_bool(expression.operand)
        return lambda kept: not inner(kept)
    if isinstance(expression, AndExpr):
        needed = _necessary(expression)
        if needed is None:
            return lambda kept: False
        rest = [_compile_bool(op) for op in expression.operands if not isinstance(op, Var)]
        if not rest:
            return needed.issubset
        return lambda kept: needed <= kept and all(test(kept) for test in rest)
    if isinstance(expression, OrExpr):
        terms = _SupportIndex(
            [(_necessary(op), _compile_bool(op)) for op in expression.operands]
        )

        def disjunction(kept: frozenset[str]) -> bool:
            for _, test in terms.candidates(kept):
                if test(kept):
                    return True
            return False

        return disjunction
    return lambda kept: expression.evaluate(dict.fromkeys(kept, True))


def _variable_occurrences(constraint: AggConstraint) -> Iterable[str]:
    """Yield tuple variables once per syntactic occurrence (for the branching order)."""
    if isinstance(constraint, BoolCondition):
        yield from constraint.expression.variables()
    elif isinstance(constraint, (AggComparison, ValuesDiffer)):
        yield from constraint.left.variables()
        yield from constraint.right.variables()
    elif isinstance(constraint, (AggAnd, AggOr)):
        for operand in constraint.operands:
            yield from _variable_occurrences(operand)
    elif isinstance(constraint, AggNot):
        yield from _variable_occurrences(constraint.operand)


def solve_aggregate(
    constraint: AggConstraint,
    *,
    foreign_keys: Sequence[ForeignKeyClause] = (),
    config: AggregateSolverConfig | None = None,
) -> AggregateSolveResult:
    """Convenience wrapper building an :class:`AggregateProblem` and solving it."""
    problem = AggregateProblem(constraint=constraint)
    for fk in foreign_keys:
        problem.add_foreign_key(fk.child, fk.parents)
    return AggregateSolver(problem, config).solve()
