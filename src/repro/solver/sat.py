"""A CDCL SAT solver (the MiniSAT-style engine behind the min-ones optimizer).

The paper solves the smallest-witness problem by handing the provenance
formula to MiniSAT / Z3.  Neither is available offline, so this module
implements a self-contained conflict-driven clause-learning solver with
two-literal watching, first-UIP learning, VSIDS-like activities and
phase saving (biased towards *false*, which nudges initial models towards
few kept tuples).

Branching follows VSIDS through a lazy binary heap of ``(-activity, var)``
entries, as in MiniSat: a decision pops the most active unassigned variable
in O(log V) instead of scanning every variable.  Ties go to the lowest
variable index.  Entries are pushed when a free variable's activity is
bumped and when backtracking frees a variable; stale or assigned entries are
skipped on pop, and the heap is rebuilt at every solve restart and whenever
activities are rescaled.

The solver is incremental in the simple sense used by the optimizer: clauses
may be added between :meth:`SATSolver.solve` calls and learned clauses are
retained; every solve restarts the search from decision level zero.
"""

from __future__ import annotations

import heapq
import time
from collections import defaultdict
from dataclasses import dataclass, field

from repro.errors import BudgetExceededError, SolverError
from repro.obs.trace import add_span_metrics

#: How many conflicts may pass between two deadline checks.  Conflicts are
#: the unit of CDCL progress, so checking every few of them bounds a solve's
#: overrun to a handful of propagation rounds while keeping ``perf_counter``
#: off the unit-propagation hot path.
_DEADLINE_CHECK_INTERVAL = 16


@dataclass
class SolveStats:
    """Counters accumulated across all ``solve`` calls of one solver instance."""

    decisions: int = 0
    propagations: int = 0
    conflicts: int = 0
    learned_clauses: int = 0
    solve_calls: int = 0
    restarts: int = 0


@dataclass
class SATSolver:
    """Conflict-driven clause-learning SAT solver over integer literals."""

    max_conflicts_per_solve: int | None = None
    #: Phase chosen for a variable that has never been flipped; ``False``
    #: biases first models towards keeping few tuples, ``True`` mimics an
    #: "arbitrary model" solver (used for the Naive-* baseline of Figure 5).
    default_phase: bool = False
    #: Absolute ``time.perf_counter()`` timestamp after which :meth:`solve`
    #: aborts with :class:`BudgetExceededError`.  Callers that own a wall-clock
    #: budget (the min-ones optimizer) set this so a *single* long SAT call can
    #: no longer blow past the budget — previously the budget was only checked
    #: between models.  Checked every few conflicts and at every decision.
    deadline: float | None = None

    _clauses: list[list[int]] = field(default_factory=list)
    _watches: dict[int, list[int]] = field(default_factory=lambda: defaultdict(list))
    _units: list[int] = field(default_factory=list)
    _unsat: bool = False

    _assign: dict[int, bool] = field(default_factory=dict)
    _level: dict[int, int] = field(default_factory=dict)
    _reason: dict[int, int | None] = field(default_factory=dict)
    _trail: list[int] = field(default_factory=list)
    _trail_lim: list[int] = field(default_factory=list)

    _activity: dict[int, float] = field(default_factory=lambda: defaultdict(float))
    _phase: dict[int, bool] = field(default_factory=dict)
    _var_inc: float = 1.0
    _variables: set[int] = field(default_factory=set)
    _order: list[tuple[float, int]] = field(default_factory=list)
    _propagated: int = 0

    stats: SolveStats = field(default_factory=SolveStats)

    # ------------------------------------------------------------------ API

    def add_clause(self, literals) -> None:
        """Add a clause; tautologies are dropped, duplicates within it merged."""
        clause: list[int] = []
        seen: set[int] = set()
        for literal in literals:
            if literal == 0:
                raise SolverError("0 is not a valid literal")
            if -literal in seen:
                return  # tautology: x ∨ ¬x
            if literal not in seen:
                seen.add(literal)
                clause.append(literal)
        for literal in clause:
            self._variables.add(abs(literal))
        if not clause:
            self._unsat = True
            return
        if len(clause) == 1:
            self._units.append(clause[0])
            return
        index = len(self._clauses)
        self._clauses.append(clause)
        self._watches[clause[0]].append(index)
        self._watches[clause[1]].append(index)

    def add_clauses(self, clauses) -> None:
        for clause in clauses:
            self.add_clause(clause)

    def export_clauses(self) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
        """Immutable snapshot of the clause database: ``(clauses, units)``.

        Includes clauses learned so far.  Taken *before* any assumption-like
        clause (cardinality bound, model-blocking) is added, every snapshotted
        clause is implied by the original input alone, so the snapshot can
        warm-start a fresh solver for the same problem.  The copy is deep:
        later in-place watch swaps or appends never leak into it.
        """
        return tuple(tuple(clause) for clause in self._clauses), tuple(self._units)

    def warm_start(
        self,
        clauses,
        units=(),
        phases=(),
    ) -> None:
        """Load a previously exported clause set plus optional phase hints.

        Must be called on a fresh solver (before the first :meth:`solve`).
        ``phases`` is an iterable of ``(variable, bool)`` pairs seeding the
        phase-saving heuristic toward a known model, so the warm first solve
        re-derives a nearby solution with few conflicts.
        """
        for clause in clauses:
            self.add_clause(clause)
        for unit in units:
            self.add_clause((unit,))
        for var, phase in phases:
            self._phase[var] = phase

    def solve(self) -> dict[int, bool] | None:
        """Return a satisfying assignment (var -> bool) or ``None`` if UNSAT.

        Variables never mentioned in any clause are absent from the model;
        callers treat missing variables as *false* (tuple not kept).

        Per-solve counter deltas are reported onto the ambient trace span
        (a no-op when nothing is traced), so counterexample spans carry SAT
        conflicts/decisions/propagations/restarts without the solver knowing
        anything about the server.
        """
        before = (
            self.stats.conflicts,
            self.stats.decisions,
            self.stats.propagations,
            self.stats.restarts,
        )
        try:
            return self._solve_impl()
        finally:
            add_span_metrics(
                sat_solve_calls=1,
                sat_conflicts=self.stats.conflicts - before[0],
                sat_decisions=self.stats.decisions - before[1],
                sat_propagations=self.stats.propagations - before[2],
                sat_restarts=self.stats.restarts - before[3],
            )

    def _solve_impl(self) -> dict[int, bool] | None:
        self.stats.solve_calls += 1
        if self._unsat:
            return None
        self._restart_state()

        # Level-0 units.
        for literal in self._units:
            if not self._enqueue(literal, None):
                self._unsat = True
                return None
        conflict = self._propagate()
        if conflict is not None:
            self._unsat = True
            return None

        conflicts_this_call = 0
        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.stats.conflicts += 1
                conflicts_this_call += 1
                if self.max_conflicts_per_solve is not None and (
                    conflicts_this_call > self.max_conflicts_per_solve
                ):
                    raise BudgetExceededError(
                        f"SAT solver exceeded {self.max_conflicts_per_solve} conflicts"
                    )
                if (
                    self.deadline is not None
                    and conflicts_this_call % _DEADLINE_CHECK_INTERVAL == 0
                    and time.perf_counter() > self.deadline
                ):
                    raise BudgetExceededError("SAT solve exceeded its time budget")
                if self._decision_level() == 0:
                    self._unsat = True
                    return None
                learned, backjump_level = self._analyze(conflict)
                self._backtrack(backjump_level)
                self._attach_learned(learned)
                self.stats.learned_clauses += 1
                if self._unsat:
                    return None
            else:
                if self.deadline is not None and time.perf_counter() > self.deadline:
                    raise BudgetExceededError("SAT solve exceeded its time budget")
                literal = self._pick_branch_literal()
                if literal is None:
                    return dict(self._assign)
                self.stats.decisions += 1
                self._trail_lim.append(len(self._trail))
                self._enqueue(literal, None)

    def is_permanently_unsat(self) -> bool:
        """True once the clause set has been proven unsatisfiable."""
        return self._unsat

    # ----------------------------------------------------------- internals

    def _restart_state(self) -> None:
        self._assign.clear()
        self._level.clear()
        self._reason.clear()
        self._trail.clear()
        self._trail_lim.clear()
        self._propagated = 0
        self._rebuild_order()
        self.stats.restarts += 1

    def _decision_level(self) -> int:
        return len(self._trail_lim)

    def _value(self, literal: int) -> bool | None:
        value = self._assign.get(abs(literal))
        if value is None:
            return None
        return value if literal > 0 else not value

    def _enqueue(self, literal: int, reason: int | None) -> bool:
        current = self._value(literal)
        if current is not None:
            return current
        var = abs(literal)
        self._assign[var] = literal > 0
        self._level[var] = self._decision_level()
        self._reason[var] = reason
        self._trail.append(literal)
        return True

    def _propagate(self) -> list[int] | None:
        """Unit propagation; returns a conflicting clause or ``None``."""
        while self._propagated < len(self._trail):
            literal = self._trail[self._propagated]
            self._propagated += 1
            self.stats.propagations += 1
            falsified = -literal
            watch_list = self._watches[falsified]
            new_watch_list: list[int] = []
            i = 0
            conflict: list[int] | None = None
            while i < len(watch_list):
                clause_index = watch_list[i]
                i += 1
                clause = self._clauses[clause_index]
                # Ensure the falsified literal is in position 1.
                if clause[0] == falsified:
                    clause[0], clause[1] = clause[1], clause[0]
                first = clause[0]
                if self._value(first) is True:
                    new_watch_list.append(clause_index)
                    continue
                # Look for a new literal to watch.
                replaced = False
                for k in range(2, len(clause)):
                    if self._value(clause[k]) is not False:
                        clause[1], clause[k] = clause[k], clause[1]
                        self._watches[clause[1]].append(clause_index)
                        replaced = True
                        break
                if replaced:
                    continue
                new_watch_list.append(clause_index)
                if self._value(first) is False:
                    # Conflict: keep the remaining watches and report.
                    new_watch_list.extend(watch_list[i:])
                    conflict = clause
                    break
                self._enqueue(first, clause_index)
            self._watches[falsified] = new_watch_list
            if conflict is not None:
                return conflict
        return None

    def _analyze(self, conflict: list[int]) -> tuple[list[int], int]:
        """First-UIP conflict analysis; returns (learned clause, backjump level)."""
        learned: list[int] = []
        seen: set[int] = set()
        counter = 0
        literal: int | None = None
        clause = conflict
        index = len(self._trail) - 1
        current_level = self._decision_level()

        while True:
            for lit in clause:
                if literal is not None and lit == -literal:
                    continue
                var = abs(lit)
                if var in seen or self._level.get(var, 0) == 0:
                    continue
                seen.add(var)
                self._bump_activity(var)
                if self._level[var] == current_level:
                    counter += 1
                else:
                    learned.append(lit)
            # Find the next literal to resolve on (most recent seen on trail).
            while True:
                literal = self._trail[index]
                index -= 1
                if abs(literal) in seen:
                    break
            counter -= 1
            if counter == 0:
                break
            reason_index = self._reason[abs(literal)]
            if reason_index is None:  # pragma: no cover - defensive
                break
            clause = self._clauses[reason_index]
        assert literal is not None
        learned.insert(0, -literal)
        if len(learned) == 1:
            backjump_level = 0
        else:
            backjump_level = max(self._level[abs(lit)] for lit in learned[1:])
        self._decay_activities()
        return learned, backjump_level

    def _attach_learned(self, learned: list[int]) -> None:
        if len(learned) == 1:
            self._units.append(learned[0])
            if not self._enqueue(learned[0], None):
                self._unsat = True
            return
        # Put a literal from the backjump level in the second watch position.
        backjump_level = max(self._level[abs(lit)] for lit in learned[1:])
        for k in range(1, len(learned)):
            if self._level[abs(learned[k])] == backjump_level:
                learned[1], learned[k] = learned[k], learned[1]
                break
        index = len(self._clauses)
        self._clauses.append(learned)
        self._watches[learned[0]].append(index)
        self._watches[learned[1]].append(index)
        self._enqueue(learned[0], index)

    def _backtrack(self, level: int) -> None:
        while self._decision_level() > level:
            boundary = self._trail_lim.pop()
            while len(self._trail) > boundary:
                literal = self._trail.pop()
                var = abs(literal)
                self._phase[var] = self._assign[var]
                del self._assign[var]
                del self._level[var]
                del self._reason[var]
                heapq.heappush(self._order, (-self._activity[var], var))
            self._propagated = min(self._propagated, len(self._trail))

    def _pick_branch_literal(self) -> int | None:
        order = self._order
        while order:
            negated, var = heapq.heappop(order)
            if var in self._assign or -negated != self._activity[var]:
                continue  # assigned, or superseded by a later bump
            phase = self._phase.get(var, self.default_phase)
            return var if phase else -var
        return None

    def _rebuild_order(self) -> None:
        self._order = [
            (-self._activity[var], var)
            for var in self._variables
            if var not in self._assign
        ]
        heapq.heapify(self._order)

    def _bump_activity(self, var: int) -> None:
        self._activity[var] += self._var_inc
        if self._activity[var] > 1e100:
            for key in list(self._activity):
                self._activity[key] *= 1e-100
            self._var_inc *= 1e-100
            self._rebuild_order()
        elif var not in self._assign:
            heapq.heappush(self._order, (-self._activity[var], var))

    def _decay_activities(self) -> None:
        self._var_inc /= 0.95
