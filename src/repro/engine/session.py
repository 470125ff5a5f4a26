"""Engine sessions: plan + result caching across repeated evaluations.

An :class:`EngineSession` binds one :class:`~repro.catalog.instance.DatabaseInstance`
and memoises two levels of work:

* **Plans** — each RA expression is compiled and optimized once, keyed
  structurally, so re-checking the same reference query against many
  submissions never re-plans it.
* **Results** — every executed subplan's annotated row set is cached per
  domain, keyed by the subplan plus the restriction of the parameter binding
  to the parameters that subplan references — so scans and other
  param-independent subplans are shared across bindings.  Structural keys
  mean the cache is shared between distinct-but-equal subtrees (the two
  sides of a ``Difference``, a reference query re-evaluated per submission,
  scans shared by all queries over the instance).

Caches survive instance mutations *selectively*: when a relation's version
moves (or a relation appears or disappears), the session drops every memo
entry whose plan scans that relation, in every domain, and keeps every other
entry as it is.  The next request over a dropped subplan recomputes it from
the base data, exactly as a cold session would.  Plans are data-independent
and survive every edit.

Each plan comes in one of two flavours, picked by the executing domain; both
run on the same operators (columnar batches, annotated under every domain
but Set).  The Set domain runs the full pipeline (pushdown, then the
hash-join build-side choice from row-count estimates).  Provenance (and any
other *order-sensitive* annotation domain, see
:attr:`~repro.engine.domains.AnnotationDomain.order_sensitive`) runs the
pushdown-only "logical" plan: flipping a build side reorders how Boolean
annotations are folded and would change their structure, while selection
movement only ever *filters* annotated rows, so this flavour stays
bit-identical to the reference provenance evaluator (asserted by
``tests/test_provenance_engine_path.py``).

Set-domain execution is **traced** whenever a span is current: every plan
node it runs opens an ``op.<Operator>`` span on the active tracer (see
:meth:`PlanExecutor.run_cached <repro.engine.physical.PlanExecutor.run_cached>`),
labelled and estimated from one per-session cache of operator metadata.
:meth:`EngineSession.explain_analyze` is an evaluation under a private
tracer whose captured operator spans become the EXPLAIN ANALYZE tree; it runs
the same plan and memo as any other evaluation.

Sessions are **thread-safe**: a reentrant lock serializes plan compilation
and execution, so one warm session per dataset can serve a pool of grading
workers (see :mod:`repro.api.service`).  The lock makes sharing *correct*
and *deterministic* — concurrent throughput gains come from the shared
caches, not from parallel plan execution, which the lock (and CPython's GIL)
intentionally forgoes.

Every plan runs on the in-process operators.  SQLite is an independent
oracle only (:class:`~repro.engine.backends.sqlite.SqliteBackend`): tests
compare its rows with the session's, and nothing here calls it.
"""

from __future__ import annotations

import threading
from typing import Any, Iterable, Mapping

from repro.catalog.instance import DatabaseInstance, ResultSet, Values
from repro.catalog.schema import RelationSchema
from repro.engine.domains import (
    PROVENANCE_DOMAIN,
    SET_DOMAIN,
    AnnotationDomain,
)
from repro.engine.logical import PlanNode, ScanOp, compile_plan, plan_operators
from repro.engine.optimizer import (
    CardinalityEstimator,
    choose_build_sides,
    optimize_expression,
)
from repro.engine.physical import PlanExecutor
from repro.engine.structural import KeyCache, StructuralKey
from repro.errors import ReproError
from repro.lru import LRUCache
from repro.obs.analyze import ExplainAnalysis, operator_meta
from repro.obs.trace import Tracer, current_span
from repro.ra.ast import RAExpression
from repro.solver.clausecache import ClauseCache

ParamValues = Mapping[str, Any]


def plan_scan_relations(plan: PlanNode, cache: "dict[PlanNode, frozenset]") -> frozenset:
    """Names of the base relations ``plan`` reads, memoised in ``cache``."""
    names = cache.get(plan)
    if names is None:
        names = cache[plan] = frozenset(
            node.relation for node in plan_operators(plan) if isinstance(node, ScanOp)
        )
    return names


class EngineSession:
    """Compile-and-execute service bound to one database instance."""

    def __init__(self, instance: DatabaseInstance) -> None:
        self.instance = instance
        self._keys = KeyCache()
        self._plans: dict[tuple[str, StructuralKey], PlanNode] = {}
        # Output schemas are pure functions of the database schema, so they
        # are memoized alongside plans: re-deriving them on every execute()
        # call costs a full AST walk per request on the warm path.
        self._schemas: dict[StructuralKey, RelationSchema] = {}
        self._results: dict[str, LRUCache] = {}
        self._param_refs: dict[PlanNode, frozenset] = {}
        # Operator-span metadata per plan node, so a traced warm request
        # re-describes and re-estimates no operator.  Keyed by node identity
        # (the entry pins the node, so its id cannot be recycled): equal but
        # distinct subtrees of different queries would otherwise be told
        # apart by deep equality on every traced operator.  Estimates read
        # row counts, so an edit drops the cache.
        self._op_meta: dict[int, tuple[PlanNode, tuple[str, str, float | None]]] = {}
        self._rel_versions: dict[str, int] = {
            name: rel.version for name, rel in instance.relations.items()
        }
        # Memoised scan sets (which relations a plan node reads); lives and
        # dies with ``_plans``.
        self._scan_sets: dict[PlanNode, frozenset] = {}
        #: Warm-start clause sets for the min-ones solver, keyed by provenance
        #: CNF structure (renamed duplicate submissions hash equal because
        #: renames compile away before provenance capture).
        self.clause_cache = ClauseCache()
        self._lock = threading.RLock()
        self.stats = {
            "plan_hits": 0,
            "plan_misses": 0,
            "delta_maintained": 0,
            "delta_dropped": 0,
        }

    # -- cache management ----------------------------------------------------

    #: Soft bounds on cache sizes; exceeding one clears that cache wholesale
    #: (a grading service survives unbounded submissions at the price of
    #: occasional cold re-evaluation).  The result bound counts materialised
    #: *rows* across all cached result sets, not cache entries, so memory is
    #: actually bounded.
    max_cached_rows = 2_000_000
    max_cached_plans = 10_000
    #: Entry bound on each per-domain result memo.  Unlike the wholesale row
    #: bound above, this is enforced per insertion with LRU eviction, so a
    #: long-lived server session degrades gracefully instead of periodically
    #: dropping its entire memo.
    max_cached_results = 100_000

    def _check_version(self) -> None:
        self._reconcile_versions()
        cached_rows = sum(memo.weight for memo in self._results.values())
        if cached_rows > self.max_cached_rows:
            for memo in self._results.values():
                memo.clear()
        if len(self._plans) > self.max_cached_plans:
            self._plans.clear()
            self._schemas.clear()
            self._param_refs.clear()
            self._keys.clear()
            self._scan_sets.clear()
            self._op_meta.clear()

    def _reconcile_versions(self) -> None:
        """Drop every memo entry whose plan scans a touched relation.

        A relation is touched when its version moved since the caches last
        looked, or when it appeared or disappeared.  Every other entry is
        kept as it is, in every domain.  Plans, structural keys and
        parameter-reference maps are data-independent and survive (a stale
        build side is a performance matter, not a correctness one); the
        operator-span estimates read row counts, so they are dropped.
        """
        current = {name: rel.version for name, rel in self.instance.relations.items()}
        known = self._rel_versions
        if current == known:
            return
        touched = {
            name
            for name in current.keys() | known.keys()
            if current.get(name) != known.get(name)
        }
        self._rel_versions = current
        self._op_meta.clear()
        for memo in self._results.values():
            for key in list(memo.keys()):
                if touched.isdisjoint(plan_scan_relations(key[0], self._scan_sets)):
                    self.stats["delta_maintained"] += 1
                else:
                    del memo[key]
                    self.stats["delta_dropped"] += 1

    def apply_delta(self) -> dict[str, int]:
        """Reconcile the caches with the instance now; return what happened.

        Returns the increments of ``delta_maintained`` (entries kept) and
        ``delta_dropped`` (entries over touched relations) caused by this
        call.
        """
        keys = ("delta_maintained", "delta_dropped")
        with self._lock:
            before = {k: self.stats[k] for k in keys}
            self._check_version()
            return {k: self.stats[k] - before[k] for k in keys}

    def _memo(self, domain: AnnotationDomain) -> LRUCache:
        memo = self._results.get(domain.name)
        if memo is None:
            # Weighed by row count: ``_check_version`` reads the memo's rows
            # on every execute() and must not walk the entries to count them.
            memo = self._results[domain.name] = LRUCache(
                self.max_cached_results, weigh=len
            )
        return memo

    def _plan(self, expression: RAExpression, domain: AnnotationDomain) -> PlanNode:
        """Compile (or fetch) the plan flavour ``domain`` runs on.

        ``"logical"`` — selection pushdown only, deterministic operator order
        (what order-sensitive domains such as provenance run on);
        ``"optimized"`` — additionally the hash-join build-side choice, each
        join building on the input with fewer estimated rows (relation sizes
        only, so planning reads no row of the instance).
        """
        mode = "logical" if domain.order_sensitive else "optimized"
        key = (mode, self._keys.key(expression))
        plan = self._plans.get(key)
        if plan is not None:
            self.stats["plan_hits"] += 1
            return plan
        self.stats["plan_misses"] += 1
        db = self.instance.schema
        plan = compile_plan(optimize_expression(expression, db), db)
        if mode == "optimized":
            plan = choose_build_sides(plan, CardinalityEstimator(self.instance))
        self._plans[key] = plan
        return plan

    def clear_cached_results(self) -> None:
        """Drop every cached result set while keeping compiled plans.

        Benchmark hook: re-timing *warm evaluation* (plans compiled, indexes
        hot, results cold) requires emptying the result memo between passes
        — otherwise a warm pass measures pure memo lookups.
        """
        with self._lock:
            for memo in self._results.values():
                memo.clear()

    def cache_info(self) -> dict[str, int]:
        """Plan/result cache statistics (used by tests, benchmarks, /metrics)."""
        with self._lock:
            return {
                **self.stats,
                "cached_plans": len(self._plans),
                "cached_results": sum(len(memo) for memo in self._results.values()),
                "result_hits": sum(memo.hits for memo in self._results.values()),
                "result_misses": sum(memo.misses for memo in self._results.values()),
                "result_evictions": sum(
                    memo.evictions for memo in self._results.values()
                ),
                "solver_clause_reuse": self.clause_cache.hits,
                "solver_clause_entries": len(self.clause_cache),
            }

    def warmup(self, queries: "Iterable[RAExpression | str]", params: ParamValues | None = None) -> int:
        """Plan and evaluate ``queries`` to populate the session caches.

        The server's workers (and anything else that knows its workload ahead
        of traffic) call this so the first real submission pays neither
        planning nor reference-evaluation cost.  Queries that fail to parse
        or evaluate are skipped — warming is best-effort by design.  Returns
        the number of queries successfully warmed.
        """
        from repro.parser.ra_parser import parse_query

        warmed = 0
        for query in queries:
            try:
                expression = query if isinstance(query, RAExpression) else parse_query(query)
                self.evaluate(expression, params)
            except ReproError:
                continue
            warmed += 1
        return warmed

    # -- execution -----------------------------------------------------------

    def execute(
        self,
        expression: RAExpression,
        domain: AnnotationDomain,
        params: ParamValues | None = None,
    ) -> tuple[RelationSchema, "dict[Values, Any]"]:
        """Run ``expression`` under ``domain``; returns (schema, annotated rows).

        The returned dict is owned by the session cache — treat it as
        read-only (the public helpers below copy).  Safe to call from many
        threads: the whole compile-and-execute path runs under the session
        lock (operators never mutate a finished annotated row set, so
        returned dicts stay valid after the lock is released).
        """
        with self._lock:
            self._check_version()
            schema_key = self._keys.key(expression)
            schema = self._schemas.get(schema_key)
            if schema is None:
                schema = expression.output_schema(self.instance.schema)
                self._schemas[schema_key] = schema
            plan = self._plan(expression, domain)
            traced = domain is SET_DOMAIN and current_span() is not None
            executor = PlanExecutor(
                self.instance,
                params or {},
                domain,
                self._memo(domain),
                self._param_refs,
                span_meta=self._span_meta if traced else None,
            )
            return schema, executor.run(plan)

    def _span_meta(self, plan: PlanNode) -> tuple[str, str, float | None]:
        """``(span name, detail, est_rows)`` of the operator span over ``plan``.

        A miss describes and estimates ``plan``'s whole subtree with one
        estimator, so the operators below it hit.
        """
        entry = self._op_meta.get(id(plan))
        if entry is None or entry[0] is not plan:
            estimator = CardinalityEstimator(self.instance)
            for node in plan_operators(plan):
                self._op_meta[id(node)] = (node, operator_meta(node, estimator))
            entry = self._op_meta[id(plan)]
        return entry[1]

    def explain_analyze(self, expression: RAExpression, params: ParamValues | None = None):
        """EXPLAIN ANALYZE: execute under set semantics with per-operator timing.

        Evaluates on a private tracer and returns the captured operator spans
        as an :class:`~repro.obs.analyze.ExplainAnalysis`: per operator, actual
        rows, wall time, cache/index/columnar attribution, and the
        :class:`CardinalityEstimator`'s predicted rows with q-error.  Uses the
        same plan and memo the normal path would, so the analysis reflects
        real execution (including warm-cache hits).
        """
        tracer = Tracer("explain-analyze")
        with tracer.capture() as spans, tracer.span("explain.analyze", parent=None):
            _, rows = self.execute(expression, SET_DOMAIN, params)
        return ExplainAnalysis.from_spans(spans, output_rows=len(rows))

    def evaluate(self, expression: RAExpression, params: ParamValues | None = None) -> ResultSet:
        """Set-semantics evaluation (same contract as ``repro.ra.evaluate``)."""
        schema, rows = self.execute(expression, SET_DOMAIN, params)
        return ResultSet(schema, frozenset(rows))

    def rows(self, expression: RAExpression, params: ParamValues | None = None) -> list[Values]:
        """Deduplicated rows of ``expression`` in first-seen order."""
        _, rows = self.execute(expression, SET_DOMAIN, params)
        return list(rows)

    def annotated_rows(
        self, expression: RAExpression, params: ParamValues | None = None
    ) -> tuple[RelationSchema, "dict[Values, Any]"]:
        """Boolean how-provenance of every candidate row (a fresh dict).

        Runs on the logically optimized plan (selection pushdown, structural
        plan/result caching) while keeping the deterministic operator order,
        so the annotations stay identical — expression by expression — to the
        reference ``ReferenceProvenanceEvaluator``.
        """
        schema, rows = self.execute(expression, PROVENANCE_DOMAIN, params)
        return schema, dict(rows)


def resolve_session(instance: DatabaseInstance, session: EngineSession | None) -> EngineSession:
    """The one session an explain call evaluates ``instance`` through.

    The caller's ``session`` when it is bound to this very instance (its warm
    caches then serve the call), otherwise one new session over ``instance``.
    Each public explain entry resolves once and hands the result down, so no
    helper below it ever sees ``None`` or a session bound elsewhere.
    """
    if session is not None and session.instance is instance:
        return session
    return EngineSession(instance)
