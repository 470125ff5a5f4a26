"""Differential maintenance of memoized plan results under instance deltas.

When a bound :class:`~repro.catalog.instance.DatabaseInstance` mutates, the
session used to throw away *every* cached result.  This module implements
the alternative from Berkholz et al.'s work on answering queries under
updates: patch the memoized annotated row sets of the **Set domain** in
place, operator by operator, so the cost of a small edit is proportional to
the delta (plus the touched subplans), not to the database.  Every Set
annotation reads "present", so the rules work on bare rows and share the
executor's helpers: the hash-index build table of
:mod:`repro.engine.columnar` and :func:`~repro.engine.physical.aggregate_groups`.

The maintenance contract:

* Only memo entries whose plan scans a touched relation are revisited;
  everything else survives verbatim ("maintained").
* Touched entries are processed children-first (by plan size), so every
  parent patch can read its children's already-patched post-states straight
  from the memo and their row-level deltas from this pass's bookkeeping.
* Filter/Project/Join/Aggregate have genuinely differential rules — work
  proportional to the changed rows (joins use the relations' cached hash
  indexes for the unchanged side; aggregates recompute only touched
  groups).  The remaining operators re-execute against their memoized
  (patched) children, which never re-reads base data for untouched inputs.
* Anything that fails to patch — raising predicates on fresh rows, unknown
  child deltas, exotic operators — is simply **dropped** from the memo, so
  the next access recomputes cold and raises (or succeeds) exactly as a
  cold session would.  Dropping is always sound; patching is the fast path.

Order-sensitive domains (Boolean provenance) are *never* patched here: the
session drops their touched entries instead, because replaying a delta
would fold annotations in a different order than the historical evaluator.
"""

from __future__ import annotations

from typing import Any, Mapping, MutableMapping

from repro.catalog.delta import Delta
from repro.catalog.instance import DatabaseInstance, Values
from repro.engine.columnar import as_mapping, index_table
from repro.engine.domains import SET_DOMAIN
from repro.engine.logical import (
    AggregateOp,
    FilterOp,
    JoinOp,
    PlanNode,
    ProjectOp,
    ScanOp,
    plan_operators,
)
from repro.engine.physical import (
    PlanExecutor,
    aggregate_groups,
    compile_predicate,
    key_function,
    plan_memo_key,
)

AnnotatedRows = "dict[Values, Any]"
#: Row-level delta of one memo entry: (added row keys, removed row keys).
NodeDelta = tuple[set, set]


def plan_scan_relations(
    plan: PlanNode, cache: MutableMapping[PlanNode, frozenset] | None = None
) -> frozenset:
    """Names of the base relations a plan reads (its invalidation footprint)."""
    if cache is not None:
        cached = cache.get(plan)
        if cached is not None:
            return cached
    names = frozenset(
        node.relation for node in plan_operators(plan) if isinstance(node, ScanOp)
    )
    if cache is not None:
        cache[plan] = names
    return names


def _plan_size(plan: PlanNode, cache: MutableMapping[PlanNode, int]) -> int:
    size = cache.get(plan)
    if size is None:
        size = sum(1 for _ in plan_operators(plan))
        cache[plan] = size
    return size


class DeltaMaintainer:
    """Patches one Set-domain result memo for a batch of relation deltas.

    ``memo`` is the session's per-domain result cache (an ``LRUCache`` or any
    mapping with ``items``/``get``/``__setitem__``/``__delitem__``); keys are
    the ``(plan, binding)`` pairs produced by
    :func:`~repro.engine.physical.plan_memo_key`.
    """

    def __init__(
        self,
        instance: DatabaseInstance,
        memo,
        param_refs: MutableMapping[PlanNode, frozenset],
        *,
        scan_cache: MutableMapping[PlanNode, frozenset] | None = None,
    ) -> None:
        self.instance = instance
        self.memo = memo
        self.param_refs = param_refs
        self.scan_cache = {} if scan_cache is None else scan_cache
        self._sizes: dict[PlanNode, int] = {}
        self._node_delta: dict[tuple, NodeDelta] = {}
        # LRUCache.get takes record= to keep maintenance reads out of the
        # hit/miss counters; plain dicts (tests) don't.
        kwdefaults = getattr(getattr(memo, "get", None), "__kwdefaults__", None)
        if kwdefaults and "record" in kwdefaults:
            self._peek = lambda key: memo.get(key, record=False)
        else:
            self._peek = memo.get

    # -- public entry point ------------------------------------------------

    def apply(self, delta: Delta) -> dict[str, int]:
        """Patch the memo in place; returns maintained/patched/dropped counts."""
        counters = {"maintained": 0, "patched": 0, "dropped": 0}
        touched = delta.relations
        if not touched:
            counters["maintained"] = len(self.memo)
            return counters
        entries: list[tuple[int, tuple, PlanNode, tuple]] = []
        for key, _value in list(self.memo.items()):
            plan, binding = key
            if plan_scan_relations(plan, self.scan_cache).isdisjoint(touched):
                counters["maintained"] += 1
                continue
            entries.append((_plan_size(plan, self._sizes), key, plan, binding))
        entries.sort(key=lambda entry: entry[0])
        # Snapshot pre-states before any patch overwrites them: parents need
        # their children's pre-state to interpret this pass's row deltas.
        pre: dict[tuple, AnnotatedRows] = {}
        for _size, key, _plan, _binding in entries:
            value = self._peek(key)
            if value is not None:
                pre[key] = as_mapping(value)
        for _size, key, plan, binding in entries:
            old = pre.get(key)
            if old is None:  # evicted mid-pass (shouldn't happen; be safe)
                counters["dropped"] += 1
                continue
            params = dict(binding)
            executor = PlanExecutor(
                self.instance, params, SET_DOMAIN, self.memo, self.param_refs
            )
            try:
                # Re-executed operators run columnar, like the session's.
                new = as_mapping(self._patch(plan, params, old, executor, touched))
            except Exception:
                new = None
            if new is None:
                if key in self.memo:
                    del self.memo[key]
                counters["dropped"] += 1
                continue
            added = {row for row in new if row not in old}
            removed = {row for row in old if row not in new}
            self._node_delta[key] = (added, removed)
            self.memo[key] = new
            counters["patched"] += 1
        return counters

    # -- child bookkeeping -------------------------------------------------

    def _child_state(
        self,
        child: PlanNode,
        params: Mapping[str, Any],
        executor: PlanExecutor,
        touched: frozenset,
    ) -> tuple[AnnotatedRows, "NodeDelta | None"]:
        """The child's post-state plus its row delta (None when unknown).

        Children are processed before their parents (plan-size order), so a
        touched child that was in the memo has already been patched — its
        delta sits in ``_node_delta``.  A child that was never memoized (or
        was dropped) is recomputed cold through the executor, which memoizes
        the post-state but cannot tell us what changed: the parent then falls
        back to re-execution over memoized children.
        """
        key = plan_memo_key(child, params, self.param_refs)
        if key is None:
            return executor.run(child), None
        if plan_scan_relations(child, self.scan_cache).isdisjoint(touched):
            cached = self._peek(key)
            if cached is None:
                return executor.run(child), (set(), set())
            return as_mapping(cached), (set(), set())
        node_delta = self._node_delta.get(key)
        cached = self._peek(key)
        if node_delta is not None and cached is not None:
            return as_mapping(cached), node_delta
        return executor.run(child), None

    # -- operator rules ----------------------------------------------------

    def _patch(
        self,
        plan: PlanNode,
        params: Mapping[str, Any],
        old: AnnotatedRows,
        executor: PlanExecutor,
        touched: frozenset,
    ) -> AnnotatedRows:
        if isinstance(plan, FilterOp):
            return self._patch_filter(plan, params, old, executor, touched)
        if isinstance(plan, ProjectOp):
            return self._patch_project(plan, params, old, executor, touched)
        if isinstance(plan, JoinOp):
            return self._patch_join(plan, params, old, executor, touched)
        if isinstance(plan, AggregateOp):
            return self._patch_aggregate(plan, params, old, executor, touched)
        # Scan, union, difference, intersect, cross: re-execute
        # against memoized (already patched) children — never touches base
        # data for untouched inputs, and a scan rebuild is O(|R|) anyway.
        return executor._execute(plan)

    def _patch_filter(self, plan, params, old, executor, touched):
        child_post, child_delta = self._child_state(plan.child, params, executor, touched)
        if child_delta is None:
            return executor._execute(plan)
        added, removed = child_delta
        keep = compile_predicate(plan.predicate, plan.schema)
        new = dict(old)
        for row in removed:
            new.pop(row, None)
        for row in added:
            if keep(row, params):
                new[row] = child_post[row]
        return new

    def _patch_project(self, plan, params, old, executor, touched):
        child_post, child_delta = self._child_state(plan.child, params, executor, touched)
        if child_delta is None:
            return executor._execute(plan)
        added, removed = child_delta
        extract = key_function(plan.indexes)
        new = dict(old)
        for row in added:
            new[extract(row)] = True
        doomed = {extract(row) for row in removed}
        doomed -= {extract(row) for row in added}
        if doomed:
            # A projection of a removed row survives iff some remaining child
            # row still projects onto it: one membership pass, only when rows
            # actually disappeared.
            surviving = set()
            for row in child_post:
                projected = extract(row)
                if projected in doomed:
                    surviving.add(projected)
                    if len(surviving) == len(doomed):
                        break
            for projected in doomed - surviving:
                new.pop(projected, None)
        return new

    def _rows_by_key(
        self, child: PlanNode, post: AnnotatedRows, key: tuple[int, ...], wanted: set
    ) -> dict:
        """``{join key -> [row, ...]}`` restricted to ``wanted``.

        A bare base-relation scan is answered from the relation's maintained
        hash index, folded like a columnar join's build table, so the
        unchanged side of a join costs one dict lookup per touched key
        instead of a pass over the memoized rows.
        """
        if isinstance(child, ScanOp):
            relation = self.instance.relation(child.relation)
            return index_table(relation, key, SET_DOMAIN, wanted)
        extract = key_function(key)
        groups: dict = {}
        for row in post:
            key_values = extract(row)
            if key_values in wanted:
                groups.setdefault(key_values, []).append(row)
        return groups

    def _patch_join(self, plan, params, old, executor, touched):
        left_post, left_delta = self._child_state(plan.left, params, executor, touched)
        right_post, right_delta = self._child_state(plan.right, params, executor, touched)
        if left_delta is None or right_delta is None:
            return executor._execute(plan)
        left_key = key_function(plan.left_key)
        right_key = key_function(plan.right_key)
        affected = {left_key(row) for rows in left_delta for row in rows}
        affected |= {right_key(row) for rows in right_delta for row in rows}
        if not affected:
            return dict(old)
        # Output rows keep the left columns in positions 0..left_arity-1, so
        # the left-key extractor identifies an output row's join key directly.
        new = {row: a for row, a in old.items() if left_key(row) not in affected}
        residual = [compile_predicate(p, plan.schema) for p in plan.residual]
        keep_right = plan.keep_right
        left_groups = self._rows_by_key(plan.left, left_post, plan.left_key, affected)
        right_groups = self._rows_by_key(plan.right, right_post, plan.right_key, affected)
        for key_values, left_rows in left_groups.items():
            right_rows = right_groups.get(key_values)
            if not right_rows:
                continue
            for left_row in left_rows:
                for right_row in right_rows:
                    if keep_right is None:
                        combined = left_row + right_row
                    else:
                        combined = left_row + tuple(right_row[i] for i in keep_right)
                    if residual and not all(p(combined, params) for p in residual):
                        continue
                    new[combined] = True
        return new

    def _patch_aggregate(self, plan, params, old, executor, touched):
        child_post, child_delta = self._child_state(plan.child, params, executor, touched)
        if child_delta is None:
            return executor._execute(plan)
        added, removed = child_delta
        if not added and not removed:
            return dict(old)
        extract = key_function(plan.group_indexes)
        touched_keys = {extract(row) for rows in (added, removed) for row in rows}
        width = len(plan.group_indexes)
        new = {row: a for row, a in old.items() if row[:width] not in touched_keys}
        return aggregate_groups(plan, child_post.items(), SET_DOMAIN, new, touched_keys)


__all__ = ["DeltaMaintainer", "plan_scan_relations"]
