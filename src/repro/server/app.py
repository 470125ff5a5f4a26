"""The grading daemon: JSON-over-HTTP frontend over workers and the store.

Request lifecycle for ``POST /v1/grade``::

    parse + validate (400 on junk)
      → persistent-store lookup ..................... hit → serve from disk
      → in-flight coalescing ........ identical request already grading →
                                      share its result ("store": "coalesced")
      → cluster routing (when clustered) ... another peer owns this
                                      (dataset, seed) → proxy to it
                                      ("store": "forwarded"); owner down →
                                      grade locally after probing peers'
                                      stores ("store": "remote_hit")
      → bounded queue check (429 Retry-After on overload, 503 while draining)
      → route to the worker owning this dataset (cache locality), over
        that worker's own pipe; the pool's collector thread reads the reply
      → store the deterministic envelope, respond ("store": "miss")

``/v1/grade_batch`` runs the same path per item over a small thread pool,
with intra-batch deduplication falling out of the coalescing map, and opts
into *waiting* for queue slots instead of failing item-by-item.

The HTTP frontend is the :class:`~repro.cluster.eventloop.EventLoopHTTPServer`
reactor — one event-loop thread multiplexing every connection, handlers on a
bounded pool — which replaced the earlier thread-per-connection
``ThreadingHTTPServer`` (whose throughput *fell* from 16 to 64 keep-alive
clients; see ``benchmarks/bench_cluster_load.py``).

A worker that dies (OOM kill, stray signal) is seen the moment its pipe reads
EOF or its sentinel fires: its in-flight grades answer ``internal_error``, and
it is respawned on a fresh pipe after replaying the pool's dataset edits (kept
in memory only: a daemon restart starts from the unedited datasets).

Shutdown (SIGTERM/SIGINT under ``repro serve``, or :meth:`GradingServer.shutdown`)
drains gracefully: new grading work is refused with 503, in-flight grades
finish and are stored, then workers, the HTTP listener and the store close.
:meth:`GradingServer.kill` is the opposite on purpose — an abrupt stop used
by failure drills to stand in for SIGKILL.

Everything observable is exported on ``/metrics`` in Prometheus text format:
request counts by endpoint/status, store and coalescing hit counts,
per-stage latency histograms (store lookup, queue wait, grading, store
write, total), queue depth, worker restarts and collector errors, and —
when clustered — forward/fallback/coalesce counters, live-ring size and
per-peer states.
"""

from __future__ import annotations

import json
import logging
import math
import signal
import sys
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass
from pathlib import Path
from time import monotonic, perf_counter
from typing import Any, Mapping
from urllib.parse import parse_qs, urlsplit

import repro
from repro.api.registry import default_registry
from repro.api.serialization import SCHEMA_VERSION
from repro.api.service import SubmissionRequest, display_text
from repro.cluster.eventloop import EventLoopHTTPServer, HTTPRequest, HTTPResponse
from repro.cluster.forward import FORWARDED_HEADER, ForwardError, Forwarder
from repro.cluster.membership import (
    STATE_CODES,
    ClusterMembership,
    parse_peer_specs,
)
from repro.errors import ReproError
from repro.obs.trace import TRACEPARENT_HEADER, Span, SpanContext, Tracer, TraceStore
from repro.server.metrics import MetricsRegistry, label_key
from repro.server.store import ResultStore, StoreKey
from repro.server.workers import (
    QueueFullError,
    WorkerConfig,
    WorkerPool,
    error_envelope,
)

log = logging.getLogger(__name__)

#: ``error_kind`` values that are deterministic properties of the submission
#: and therefore safe to persist.  Operational failures (overload, solver
#: budget, worker crash) must be retried, never remembered.
_CACHEABLE_ERROR_KINDS = frozenset(
    {None, "parse_error", "schema_error", "evaluation_error", "no_counterexample"}
)

#: Threads fanning one ``/v1/grade_batch`` body out over the pool, and the
#: bound on *running* HTTP handlers (connections are cheap under the event
#: loop; handler threads are the real resource).
_BATCH_THREADS, _HTTP_THREADS = 16, 32


def compute_retry_after(depth: int, workers: int, grade_seconds: float) -> int:
    """Retry-After (seconds) for a 429: when should a queue slot exist?

    A Little's-law drain estimate — ``depth`` requests ahead, ``workers``
    servers, ``grade_seconds`` observed per grade — clamped to [1, 60] so a
    cold estimate never tells clients "now" and a pathological one never
    parks them for minutes.
    """
    per_grade = grade_seconds if grade_seconds > 0 else 0.5
    eta = (depth / max(1, workers)) * per_grade
    return max(1, min(60, math.ceil(eta)))


@dataclass(frozen=True)
class ServerConfig:
    """Static configuration of one :class:`GradingServer`."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 → pick a free ephemeral port (reported as .port)
    workers: int = 2
    default_dataset: str = "toy-university"
    default_seed: int = 0
    #: Persistent store location; ``None`` keeps results in memory only.
    store_path: str | Path | None = None
    #: Extra dataset specs each worker warms at startup (the default dataset
    #: is always warmed).
    warm_datasets: tuple[str, ...] = ()
    #: Bound on requests in flight across the whole pool; beyond it
    #: ``/v1/grade`` answers 429.
    max_queue: int = 64
    #: Per-request grading deadline (seconds) before the HTTP answer is 504.
    request_timeout: float = 300.0
    #: How long shutdown waits for in-flight grades before forcing the issue.
    drain_timeout: float = 30.0
    #: Hard bound on items per batch request.
    max_batch_size: int = 10_000
    #: Log one line per request to stderr (quiet by default: tests/benchmarks).
    verbose: bool = False
    #: Root spans (whole requests) slower than this land in the slow-request
    #: log (``/v1/debug/traces`` → ``"slow"``) and a warning log line.
    slow_request_seconds: float = 1.0
    #: Bound on traces kept in memory for ``/v1/debug/traces``.
    trace_max_traces: int = 256

    # -- cluster membership (all inert unless ``cluster_self`` is set) -------

    #: This daemon's logical peer name (e.g. ``shard-0``); enables clustering.
    cluster_self: str | None = None
    #: The full static peer map, as ``name=http://host:port`` specs.  Must
    #: include ``cluster_self`` and be identical on every peer.
    cluster_peers: tuple[str, ...] = ()
    cluster_virtual_nodes: int = 64
    cluster_heartbeat_interval: float = 0.5
    cluster_suspect_after: int = 1
    cluster_down_after: int = 3
    cluster_probe_timeout: float = 1.0
    #: Proxy non-owned keys to their owner (off → every peer grades locally
    #: but the cross-shard store tier still deduplicates work).
    cluster_forward: bool = True
    cluster_forward_retries: int = 2
    cluster_store_probes: int = 2
    cluster_store_probe_timeout: float = 2.0


class GradingServer:
    """The daemon: HTTP frontend + worker pool + persistent result store."""

    def __init__(self, config: ServerConfig | None = None) -> None:
        self.config = config if config is not None else ServerConfig()
        self.store = ResultStore(
            ":memory:" if self.config.store_path is None else self.config.store_path
        )
        self.pool = WorkerPool(
            WorkerConfig(
                default_dataset=self.config.default_dataset,
                default_seed=self.config.default_seed,
                warm_datasets=self.config.warm_datasets,
            ),
            workers=self.config.workers,
            max_queue=self.config.max_queue,
        )
        self.membership: ClusterMembership | None = None
        self.forwarder: Forwarder | None = None
        if self.config.cluster_self is not None:
            self.membership = ClusterMembership(
                self.config.cluster_self,
                parse_peer_specs(self.config.cluster_peers),
                virtual_nodes=self.config.cluster_virtual_nodes,
                heartbeat_interval=self.config.cluster_heartbeat_interval,
                suspect_after=self.config.cluster_suspect_after,
                down_after=self.config.cluster_down_after,
                probe_timeout=self.config.cluster_probe_timeout,
            ).start()
            self.forwarder = Forwarder(
                self.membership,
                timeout=self.config.request_timeout,
                retries=self.config.cluster_forward_retries,
                store_probe_timeout=self.config.cluster_store_probe_timeout,
                store_probes=self.config.cluster_store_probes,
            )
        self._started = monotonic()
        self._draining = threading.Event()
        self._shutdown_done = threading.Event()
        self._inflight: dict[StoreKey, Future] = {}
        self._inflight_lock = threading.Lock()
        #: EWMA of observed grade seconds, feeding Retry-After estimates.
        self._grade_ewma = 0.0
        self._batch_pool = ThreadPoolExecutor(
            max_workers=_BATCH_THREADS, thread_name_prefix="repro-batch"
        )
        self.traces = TraceStore(max_traces=self.config.trace_max_traces)
        self.tracer = Tracer(
            self.config.cluster_self or "server",
            store=self.traces,
            slow_threshold=self.config.slow_request_seconds,
            on_span=self._observe_span,
        )
        # One cross-process worker-stats round trip serves every callback
        # metric on a scrape (and concurrent scrapes within the TTL).
        self._stats_snapshot: tuple[float, list[dict[str, Any]]] | None = None
        self._stats_snapshot_lock = threading.Lock()
        self.metrics = self._build_metrics()
        self._httpd = EventLoopHTTPServer(
            (self.config.host, self.config.port),
            self._dispatch,
            handler_threads=_HTTP_THREADS,
            server_name=f"repro-serve/{repro.__version__}",
        )
        self.host, self.port = self._httpd.server_address[:2]
        self._serve_thread: threading.Thread | None = None

    # -- metrics -------------------------------------------------------------

    def _build_metrics(self) -> MetricsRegistry:
        metrics = MetricsRegistry()
        metrics.counter(
            "repro_server_requests_total", "HTTP requests handled, by endpoint and status."
        )
        metrics.counter(
            "repro_server_grades_total",
            'Grades served, by source ("hit": persistent store, "miss": computed, '
            '"coalesced": shared with an identical in-flight request, '
            '"forwarded": proxied to the owning cluster peer, '
            '"remote_hit": found in a peer\'s store before grading cold).',
        )
        metrics.histogram(
            "repro_server_stage_seconds",
            "Per-stage latency: store_lookup, queue_wait, grade, store_write, total.",
        )
        metrics.histogram(
            "repro_server_explain_stage_seconds",
            "Counterexample-pipeline phase latency (raw_eval, provenance, "
            "solver, finalize, total), from the CounterexampleResult timings of "
            "explanation-mode grades.",
        )
        metrics.counter(
            "repro_server_explanations_total",
            "Counterexamples computed by the workers, by algorithm and by whether "
            'the witness is proven smallest (optimal="false": a solver budget ran out).',
        )
        metrics.gauge(
            "repro_server_queue_depth",
            "Requests currently in flight in the worker pool.",
            callback=lambda: self.pool.queue_depth(),
        )
        metrics.gauge(
            "repro_server_store_rows",
            "Rows in the persistent result store.",
            callback=lambda: len(self.store),
        )
        metrics.gauge(
            "repro_server_draining", "1 while the server is draining for shutdown."
        )
        metrics.set("repro_server_draining", 0.0)
        metrics.gauge(
            "repro_server_uptime_seconds",
            "Seconds since the server started.",
            callback=lambda: monotonic() - self._started,
        )
        metrics.gauge(
            "repro_server_info",
            "Constant 1; the labels carry build information.",
        )
        metrics.set(
            "repro_server_info",
            1.0,
            {"version": repro.__version__, "schema_version": str(SCHEMA_VERSION)},
        )
        metrics.gauge(
            "repro_worker_restarts_total",
            "Worker processes respawned after a crash.",
            callback=lambda: self.pool.restarts,
        )
        metrics.gauge(
            "repro_server_watchdog_errors",
            "Worker-pool collector errors survived (e.g. a respawn that raised, "
            "retried every 0.5s) — nonzero means worker supervision is degraded.",
            callback=lambda: self.pool.watchdog_errors,
        )
        metrics.histogram(
            "repro_trace_span_seconds",
            "Latency of finished trace spans, by span name (http, server.grade, "
            "cluster.forward, worker.grade, grade.* phases, op.* operators).",
        )
        metrics.histogram(
            "repro_engine_qerror",
            "Per-operator cardinality-estimation q-error (max(est/actual, "
            "actual/est), 1.0 = perfect) from traced plan executions.",
            buckets=(1.0, 1.5, 2.0, 4.0, 8.0, 16.0, 64.0, 256.0, 1024.0),
        )
        metrics.gauge(
            "repro_trace_store_traces",
            "Traces currently held in the bounded in-memory trace store.",
            callback=lambda: float(len(self.traces)),
        )
        metrics.gauge(
            "repro_store_age_seconds",
            "Seconds since the newest and oldest stored grade "
            '(label bound="newest"/"oldest"; absent while the store is empty). '
            "Derived from the store's wall-clock created_at_unix column.",
            callback=self._store_age_series,
        )
        metrics.gauge(
            "repro_worker_cache",
            "Per-worker engine/registry cache counters (plan and result "
            "hits/misses/evictions, dataset handle churn), by worker and counter.",
            callback=self._worker_cache_series,
        )
        for stat_key, metric_name, help_text in (
            (
                "delta_maintained",
                "repro_engine_delta_maintained_total",
                "Cached subplan results that survived an instance mutation "
                "verbatim (their plans scan only untouched relations), by worker.",
            ),
            (
                "delta_dropped",
                "repro_engine_delta_dropped_total",
                "Cached subplan results dropped on mutation because their plans "
                "scan an edited relation, by worker.",
            ),
            (
                "solver_clause_reuse",
                "repro_solver_clause_reuse_total",
                "Min-ones solves warm-started from a structurally equal prior "
                "submission's learned clause set, by worker.",
            ),
        ):
            metrics.counter(
                metric_name,
                help_text,
                callback=lambda key=stat_key: self._session_counter_series(key),
            )
        if self.membership is not None:
            membership = self.membership
            metrics.counter(
                "repro_cluster_forwarded_total",
                "Grades proxied to their owning peer, by peer.",
            )
            metrics.counter(
                "repro_cluster_fallback_total",
                "Grades computed locally because the owning peer was "
                "unreachable, by (attempted) peer.",
            )
            metrics.counter(
                "repro_cluster_local_total",
                "Grades computed locally on the worker pool while clustered "
                "(owned keys and fallbacks).",
            )
            metrics.counter(
                "repro_cluster_coalesced_total",
                "Requests coalesced onto an identical in-flight grade while "
                "clustered (cluster-wide single-flight composes from these).",
            )
            metrics.counter(
                "repro_cluster_store_proxy_total",
                "Cross-shard store-tier probes before grading cold, by result.",
            )
            metrics.gauge(
                "repro_cluster_ring_size",
                "Peers currently in the live routing ring.",
                callback=lambda: len(membership.live_peers()),
            )
            metrics.gauge(
                "repro_cluster_peers",
                "Peers in the configured (static) cluster.",
                callback=lambda: len(membership.peer_urls()),
            )
            metrics.gauge(
                "repro_cluster_peer_state",
                "Per-peer liveness state: 0 alive, 1 suspect, 2 down.",
                callback=self._peer_state_series,
            )
        return metrics

    def _pool_stats_snapshot(self, ttl: float = 1.0) -> list[dict[str, Any]]:
        """Worker cache stats, shared across the callbacks of one scrape."""
        with self._stats_snapshot_lock:
            cached = self._stats_snapshot
            if cached is not None and monotonic() - cached[0] < ttl:
                return cached[1]
        stats = self.pool.stats(timeout=1.0)
        with self._stats_snapshot_lock:
            self._stats_snapshot = (monotonic(), stats)
        return stats

    def _session_counter_series(self, key: str) -> Mapping[tuple, float]:
        """Per-worker cumulative value of one summed session counter.

        Totals can regress when a worker respawns after a crash or its
        dataset handles are LRU-evicted — the standard counter-reset
        semantics Prometheus rate() already handles.
        """
        series: dict[tuple, float] = {}
        for stats in self._pool_stats_snapshot():
            value = stats.get("sessions", {}).get(key)
            if value is not None:
                series[label_key({"worker": str(stats.get("worker"))})] = float(value)
        return series

    def _worker_cache_series(self) -> Mapping[tuple, float]:
        series: dict[tuple, float] = {}
        for stats in self._pool_stats_snapshot():
            worker = str(stats.get("worker"))
            for scope in ("registry", "sessions"):
                for name, value in stats.get(scope, {}).items():
                    labels = label_key({"worker": worker, "counter": f"{scope}_{name}"})
                    series[labels] = float(value)
        return series

    def _peer_state_series(self) -> Mapping[tuple, float]:
        assert self.membership is not None
        return {
            label_key({"peer": name}): float(STATE_CODES[state])
            for name, state in self.membership.states().items()
        }

    def _store_age_series(self) -> Mapping[tuple, float]:
        bounds = self.store.age_bounds()
        if bounds is None:
            return {}
        newest, oldest = bounds
        return {
            label_key({"bound": "newest"}): newest,
            label_key({"bound": "oldest"}): oldest,
        }

    def _observe_span(self, span: Span) -> None:
        """Tracer callback: every locally finished span feeds the histograms."""
        self.metrics.observe(
            "repro_trace_span_seconds",
            span.duration if span.duration is not None else 0.0,
            {"span": span.name},
        )
        qe = span.attributes.get("q_error")
        if isinstance(qe, (int, float)):
            self.metrics.observe("repro_engine_qerror", float(qe))

    def _ingest_spans(self, spans: Any) -> None:
        """Merge span dicts from a worker process or a forwarded peer.

        They join the local trace store (so ``/v1/debug/traces`` shows whole
        traces, not just this daemon's slice) and feed the same span-latency
        and q-error histograms local spans do.
        """
        if not isinstance(spans, list):
            return
        for span in spans:
            if not isinstance(span, Mapping):
                continue
            self.traces.add(span)
            duration = span.get("duration")
            if isinstance(duration, (int, float)):
                self.metrics.observe(
                    "repro_trace_span_seconds",
                    float(duration),
                    {"span": str(span.get("name"))},
                )
            qe = (span.get("attributes") or {}).get("q_error")
            if isinstance(qe, (int, float)):
                self.metrics.observe("repro_engine_qerror", float(qe))

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "GradingServer":
        """Serve in a background thread (tests, benchmarks, embedding)."""
        thread = threading.Thread(
            target=self._httpd.serve_forever, name="repro-serve", daemon=True
        )
        thread.start()
        self._serve_thread = thread
        return self

    def serve_forever(self, *, install_signal_handlers: bool = False) -> None:
        """Serve on the calling thread until :meth:`shutdown` (or SIGTERM)."""
        if install_signal_handlers:

            def _drain(signum: int, frame: Any) -> None:
                # Keep the handler trivial: the drain itself runs on its own
                # thread, because shutdown() joins the serve loop this signal
                # interrupted.
                threading.Thread(
                    target=self.shutdown, name="repro-drain", daemon=True
                ).start()

            signal.signal(signal.SIGTERM, _drain)
            signal.signal(signal.SIGINT, _drain)
        self._httpd.serve_forever()
        self._shutdown_done.wait(timeout=self.config.drain_timeout + 10.0)

    def shutdown(self) -> None:
        """Graceful drain: refuse new grades, finish in-flight ones, stop."""
        if self._draining.is_set():
            self._shutdown_done.wait(timeout=self.config.drain_timeout + 10.0)
            return
        self._draining.set()
        self.metrics.set("repro_server_draining", 1.0)
        if self.membership is not None:
            self.membership.stop()
        self.pool.drain(timeout=self.config.drain_timeout)
        self._batch_pool.shutdown(wait=True, cancel_futures=False)
        self._httpd.shutdown()  # stops the reactor; in-flight handlers finish
        self._httpd.server_close()
        if self.forwarder is not None:
            self.forwarder.close()
        self.pool.close()
        self.store.close()
        self._shutdown_done.set()

    def kill(self) -> None:
        """Abrupt stop — the in-process stand-in for SIGKILL in drills.

        No drain, no goodbyes: connections are dropped mid-flight and worker
        processes are torn down at once, so peers experience exactly what a
        killed daemon looks like (resets and refused connections).
        """
        if self._draining.is_set():
            return
        self._draining.set()
        if self.membership is not None:
            self.membership.stop()
        self._httpd.close_now()
        self._batch_pool.shutdown(wait=False, cancel_futures=True)
        if self.forwarder is not None:
            self.forwarder.close()
        self.pool.close(timeout=1.0)
        self.store.close()
        self._shutdown_done.set()

    # -- request handling ----------------------------------------------------

    def handle_healthz(self) -> tuple[int, dict[str, Any]]:
        status = "draining" if self._draining.is_set() else "ok"
        payload: dict[str, Any] = {
            "status": status,
            "version": repro.__version__,
            "schema_version": SCHEMA_VERSION,
            "workers": self.config.workers,
            "worker_restarts": self.pool.restarts,
            "queue_depth": self.pool.queue_depth(),
            "uptime_seconds": monotonic() - self._started,
            "store": self.store.info(),
        }
        if self.membership is not None:
            payload["cluster"] = {
                "name": self.membership.self_name,
                "peers": self.membership.states(),
                "live": self.membership.live_peers(),
            }
        return 200, payload

    def handle_datasets(self) -> tuple[int, dict[str, Any]]:
        return 200, {
            "datasets": list(default_registry().known_datasets()),
            "default_dataset": self.config.default_dataset,
            "default_seed": self.config.default_seed,
        }

    def handle_datasets_mutate(self, payload: Any) -> tuple[int, dict[str, Any]]:
        """Apply an edit stream to a dataset on every worker (and purge grades).

        The edits are broadcast through each worker's pipe, so every
        worker's copy of the dataset absorbs them in its own request order
        and each warm engine session drops the memo entries over the edited
        relations (the reply carries each worker's ``delta`` counter
        increments).
        Stored grades for the dataset are purged regardless of per-worker
        success — after any mutation attempt they are potentially stale.
        """
        if not isinstance(payload, Mapping) or not isinstance(
            payload.get("operations"), list
        ):
            return 400, {
                "error": 'mutate body must be {"dataset": spec?, "operations": [...]}',
                "error_kind": "invalid_request",
            }
        if self._draining.is_set():
            return 503, {
                "error": "server is draining",
                "error_kind": "unavailable",
            }
        dataset = payload.get("dataset")
        if dataset is not None and not isinstance(dataset, str):
            return 400, {
                "error": "dataset must be a string spec",
                "error_kind": "invalid_request",
            }
        spec = dataset if dataset is not None else self.config.default_dataset
        workers = self.pool.mutate({**payload, "dataset": spec})
        purged = self.store.purge_dataset(spec)
        errors = [reply for reply in workers if "error" in reply]
        if errors:
            return 500, {
                "error": f"{len(errors)} of {len(workers)} workers failed to "
                "confirm the mutation; their dataset copies may have diverged "
                "(restart the daemon or re-register the dataset)",
                "error_kind": "internal_error",
                "dataset": spec,
                "purged_grades": purged,
                "workers": workers,
            }
        return 200, {"dataset": spec, "purged_grades": purged, "workers": workers}

    def handle_cluster_health(self) -> tuple[int, dict[str, Any]]:
        if self.membership is None:
            return 200, {
                "cluster": False,
                "name": None,
                "virtual_nodes": 0,
                "peers": {},
                "live": [],
            }
        return 200, {"cluster": True, **self.membership.describe()}

    def handle_store_lookup(self, payload: Any) -> tuple[int, dict[str, Any]]:
        """The cluster store tier's wire endpoint: one key, local store only.

        Deliberately *not* recursive — a lookup never forwards or grades, so
        two peers probing each other can never create work or loops.
        """
        if not isinstance(payload, Mapping):
            return 400, {
                "error": "store lookup body must be a JSON object",
                "error_kind": "invalid_request",
            }
        try:
            key = StoreKey.from_dict(payload)
        except ReproError as exc:
            return 400, {"error": str(exc), "error_kind": "invalid_request"}
        envelope = self.store.get(key)
        return 200, {"found": envelope is not None, "envelope": envelope}

    def handle_grade(
        self, payload: Any, *, forwarded: bool = False, trace: bool = False
    ) -> tuple[int, dict[str, Any]]:
        try:
            request = SubmissionRequest.from_dict(payload)
        except ReproError as exc:
            return 400, {"error": str(exc), "error_kind": "invalid_request"}
        return self._grade_one(
            request, wait_for_slot=False, forwarded=forwarded, trace=trace
        )

    def handle_debug_traces(self, target: str) -> tuple[int, dict[str, Any]]:
        """Recent traces from the bounded in-memory store (debug surface).

        ``?trace_id=<32hex>`` returns that one trace; otherwise the newest
        ``?limit=`` traces (default 20) plus the slow-request log.
        """
        params = parse_qs(urlsplit(target).query)
        trace_id = (params.get("trace_id") or [None])[0]
        if trace_id:
            spans = self.traces.get(trace_id)
            traces = [] if spans is None else [{"trace_id": trace_id, "spans": spans}]
            return 200, {"traces": traces}
        try:
            limit = int((params.get("limit") or ["20"])[0])
        except ValueError:
            return 400, {"error": "limit must be an integer", "error_kind": "invalid_request"}
        return 200, {
            "traces": self.traces.snapshot(limit=limit),
            "slow": list(self.tracer.slow_spans),
        }

    def handle_grade_batch(self, payload: Any, *, forwarded: bool = False) -> tuple[int, dict[str, Any]]:
        if not isinstance(payload, Mapping) or not isinstance(payload.get("requests"), list):
            return 400, {
                "error": "grade_batch body must be {\"requests\": [...]}",
                "error_kind": "invalid_request",
            }
        items = payload["requests"]
        if len(items) > self.config.max_batch_size:
            return 400, {
                "error": f"batch of {len(items)} exceeds max_batch_size "
                f"{self.config.max_batch_size}",
                "error_kind": "invalid_request",
            }
        requests: list[SubmissionRequest | None] = []
        errors: dict[int, dict[str, Any]] = {}
        for index, item in enumerate(items):
            try:
                requests.append(SubmissionRequest.from_dict(item))
            except ReproError as exc:
                requests.append(None)
                errors[index] = error_envelope(str(exc), "invalid_request", item if isinstance(item, Mapping) else None)
        futures = {
            index: self._batch_pool.submit(
                self._grade_one, request, wait_for_slot=True, forwarded=forwarded
            )
            for index, request in enumerate(requests)
            if request is not None
        }
        results: list[dict[str, Any]] = []
        for index in range(len(items)):
            if index in errors:
                results.append(errors[index])
                continue
            status, envelope = futures[index].result()
            if status != 200:
                # Frontend-level failures (drain, queue timeout, 504) come
                # back as bare {"error", "error_kind"} dicts; batch items
                # must always be full grade envelopes or the client breaks.
                envelope = error_envelope(
                    envelope.get("error", "server error"),
                    envelope.get("error_kind", "unavailable"),
                    items[index] if isinstance(items[index], Mapping) else None,
                )
            results.append(envelope)
        return 200, {"results": results}

    # -- the grading path ----------------------------------------------------

    def _normalize(self, request: SubmissionRequest) -> tuple[str, int]:
        spec = request.dataset if request.dataset is not None else self.config.default_dataset
        seed = self.config.default_seed if request.seed is None else request.seed
        return spec, seed

    def _store_key(self, request: SubmissionRequest, spec: str, seed: int) -> StoreKey:
        return StoreKey.for_request(
            dataset=spec,
            seed=seed,
            correct_query=display_text(request.correct_query),
            test_query=display_text(request.test_query),
            algorithm=request.algorithm,
            params=request.params,
            explain=request.explain,
            options=request.options,
        )

    def _observe(self, stage: str, seconds: float) -> None:
        self.metrics.observe("repro_server_stage_seconds", seconds, {"stage": stage})

    def _observe_explain_stages(self, timings: Mapping[str, Any] | None) -> None:
        """Record the counterexample pipeline's own phase breakdown.

        Explanation-mode grades ship the solver's wall-clock split
        (``raw_eval``/``provenance``/``solver``/``finalize``/``total``) alongside the
        deterministic envelope (like ``grade_time``, it never enters the
        store); scraping it per stage makes "the solver is the bottleneck on
        this workload" visible in Prometheus instead of buried in payloads.
        """
        if not timings:
            return
        for stage, seconds in timings.items():
            if isinstance(seconds, (int, float)):
                self.metrics.observe(
                    "repro_server_explain_stage_seconds",
                    float(seconds),
                    {"stage": str(stage)},
                )

    def _count_explanation(self, reply: Mapping[str, Any]) -> None:
        """Export the algorithm and optimality of a computed counterexample."""
        report = (reply.get("outcome") or {}).get("report") or {}
        result = report.get("result") or {}
        if result.get("algorithm"):
            self.metrics.inc(
                "repro_server_explanations_total",
                {
                    "algorithm": str(result["algorithm"]),
                    "optimal": "true" if result.get("optimal") else "false",
                },
            )

    def _grade_one(
        self,
        request: SubmissionRequest,
        *,
        wait_for_slot: bool,
        forwarded: bool = False,
        trace: bool = False,
    ) -> tuple[int, dict[str, Any]]:
        """Grade one validated request, optionally under a ``server.grade`` span.

        ``trace=True`` (the ``?trace=1`` query flag) records a span for this
        grade and collects the spans produced downstream — forward hop, worker,
        per-operator engine spans — into a ``"trace"`` block on the *returned*
        envelope only.  The block is decoration like ``store``/``wall_time``:
        coalesced followers and the persistent store always see the clean,
        deterministic envelope.
        """
        if not trace:
            return self._grade_inner(
                request, wait_for_slot=wait_for_slot, forwarded=forwarded
            )
        spec, seed = self._normalize(request)
        span = self.tracer.start_span(
            "server.grade",
            attributes={"dataset": spec, "seed": seed, "forwarded": forwarded},
        )
        sink: list[dict[str, Any]] = []
        try:
            status, envelope = self._grade_inner(
                request,
                wait_for_slot=wait_for_slot,
                forwarded=forwarded,
                trace_span=span,
                sink=sink,
            )
        except BaseException as exc:
            span.attributes.setdefault("error", type(exc).__name__)
            self.tracer.finish_span(span, status="error")
            raise
        if status == 200:
            span.attributes["store"] = envelope.get("store")
        # Finish before building the response so the span's duration covers
        # the whole grade and its dict form can ride along in the envelope.
        self.tracer.finish_span(span, status="ok" if status < 500 else "error")
        if status == 200:
            envelope = {
                **envelope,
                "trace": {
                    "trace_id": span.trace_id,
                    "spans": [*sink, span.to_dict()],
                },
            }
        return status, envelope

    def _grade_inner(
        self,
        request: SubmissionRequest,
        *,
        wait_for_slot: bool,
        forwarded: bool = False,
        trace_span: Span | None = None,
        sink: list[dict[str, Any]] | None = None,
    ) -> tuple[int, dict[str, Any]]:
        """Grade one validated request: store → coalesce → route → worker pool."""
        started = perf_counter()
        spec, seed = self._normalize(request)
        key = self._store_key(request, spec, seed)

        lookup_started = perf_counter()
        stored = self.store.get(key)
        self._observe("store_lookup", perf_counter() - lookup_started)
        if stored is not None:
            self.metrics.inc("repro_server_grades_total", {"store": "hit"})
            self._observe("total", perf_counter() - started)
            return 200, {
                **stored,
                "id": request.id,
                "store": "hit",
                "wall_time": perf_counter() - started,
            }

        if self._draining.is_set():
            return 503, {"error": "server is draining", "error_kind": "unavailable"}

        # Coalesce identical concurrent requests onto one grading future —
        # the common closed-loop pattern where a whole class submits the
        # same wrong query within one scrape interval.  In a cluster this
        # sits *before* routing, so a non-owner makes one wire call for N
        # identical submissions, and the owner coalesces arrivals from
        # different peers: cluster-wide single-flight by composition.
        with self._inflight_lock:
            shared = self._inflight.get(key)
            owner = shared is None
            if owner:
                shared = Future()
                self._inflight[key] = shared
        if not owner:
            try:
                status, envelope, _ = shared.result(timeout=self.config.request_timeout)
            except FutureTimeoutError:
                return 504, {
                    "error": "timed out waiting for an identical in-flight grade",
                    "error_kind": "unavailable",
                }
            if status == 200:
                self.metrics.inc("repro_server_grades_total", {"store": "coalesced"})
                if self.membership is not None:
                    self.metrics.inc("repro_cluster_coalesced_total")
                envelope = {
                    **envelope,
                    "id": request.id,
                    "store": "coalesced",
                    "wall_time": perf_counter() - started,
                }
            self._observe("total", perf_counter() - started)
            return status, envelope

        try:
            status, envelope, grade_time, source = self._compute(
                request, key, spec, seed, wait_for_slot, forwarded,
                trace_span=trace_span, sink=sink,
            )
            shared.set_result((status, dict(envelope), grade_time))
        except BaseException as exc:
            shared.set_exception(exc)
            raise
        finally:
            with self._inflight_lock:
                self._inflight.pop(key, None)
        if status == 200:
            self.metrics.inc("repro_server_grades_total", {"store": source})
            envelope = {
                **envelope,
                "id": request.id,
                "store": source,
                "wall_time": perf_counter() - started,
            }
        self._observe("total", perf_counter() - started)
        return status, envelope

    def _compute(
        self,
        request: SubmissionRequest,
        key: StoreKey,
        spec: str,
        seed: int,
        wait_for_slot: bool,
        forwarded: bool,
        trace_span: Span | None = None,
        sink: list[dict[str, Any]] | None = None,
    ) -> tuple[int, dict[str, Any], float, str]:
        """Route one cold, non-coalesced grade; returns (status, envelope,
        grade_time, store-source label)."""
        if (
            self.membership is not None
            and self.forwarder is not None
            and self.config.cluster_forward
            and not forwarded
        ):
            peer = self.membership.owner(spec, seed)
            if not self.membership.is_self(peer):
                traced = trace_span is not None and sink is not None
                forward_span: Span | None = None
                try:
                    if traced:
                        # The span context manager makes the forward span
                        # ambient on this thread, so the pooled client injects
                        # its traceparent and the owner's spans join the trace.
                        with self.tracer.span(
                            "cluster.forward", parent=trace_span, attributes={"peer": peer}
                        ) as forward_span:
                            status, envelope = self.forwarder.forward_grade(
                                peer, request.to_dict(), trace=True
                            )
                    else:
                        status, envelope = self.forwarder.forward_grade(
                            peer, request.to_dict()
                        )
                except ForwardError:
                    # Owner unreachable: grade locally.  Correctness is
                    # preserved (grading is deterministic everywhere); only
                    # cache locality is lost until the peer recovers.
                    self.metrics.inc(
                        "repro_cluster_fallback_total", {"peer": peer}
                    )
                else:
                    if status != 200:  # the owner's backpressure (429) is ours
                        return status, dict(envelope), 0.0, "forwarded"
                    self.metrics.inc(
                        "repro_cluster_forwarded_total", {"peer": peer}
                    )
                    envelope = dict(envelope)
                    # The owner's trace block is response decoration, never
                    # store content: lift it out before cleaning/persisting.
                    remote_trace = envelope.pop("trace", None)
                    if sink is not None and isinstance(remote_trace, Mapping):
                        remote_spans = remote_trace.get("spans")
                        if isinstance(remote_spans, list):
                            sink.extend(remote_spans)
                            self._ingest_spans(remote_spans)
                    envelope = self._clean_envelope(envelope)
                    self._maybe_persist(key, envelope)
                    return 200, envelope, 0.0, "forwarded"
                finally:
                    if forward_span is not None and sink is not None:
                        sink.append(forward_span.to_dict())

        if self.membership is not None and self.forwarder is not None:
            # The store tier: before grading cold, ask the key's static
            # preference peers whether anyone already holds this grade.
            remote = self.forwarder.remote_store_lookup(key)
            self.metrics.inc(
                "repro_cluster_store_proxy_total",
                {"result": "hit" if remote is not None else "miss"},
            )
            if remote is not None:
                envelope = self._clean_envelope(remote)
                self._maybe_persist(key, envelope)
                return 200, envelope, 0.0, "remote_hit"

        status, envelope, grade_time = self._grade_via_pool(
            request, key, spec, seed, wait_for_slot,
            trace_span=trace_span, sink=sink,
        )
        if self.membership is not None and status == 200:
            self.metrics.inc("repro_cluster_local_total")
        return status, envelope, grade_time, "miss"

    @staticmethod
    def _clean_envelope(envelope: Mapping[str, Any]) -> dict[str, Any]:
        """Strip the non-deterministic routing fields another daemon added."""
        clean = dict(envelope)
        clean.pop("store", None)
        clean.pop("wall_time", None)
        clean.pop("trace", None)
        return clean

    def _maybe_persist(self, key: StoreKey, envelope: Mapping[str, Any]) -> None:
        """Store a deterministic grade without the submitter's id (routing, not content).

        Remote grades are kept too (replicate-on-forward): the next identical
        submission here is a plain local hit, and the grade survives the
        remote peer's death — the cluster's only replication, and all it
        needs, since grades are deterministic.
        """
        error_kind = (envelope.get("outcome") or {}).get("error_kind")
        if error_kind in _CACHEABLE_ERROR_KINDS:
            write_started = perf_counter()
            self.store.put(key, {**envelope, "id": None})
            self._observe("store_write", perf_counter() - write_started)

    def _grade_via_pool(
        self,
        request: SubmissionRequest,
        key: StoreKey,
        spec: str,
        seed: int,
        wait_for_slot: bool,
        trace_span: Span | None = None,
        sink: list[dict[str, Any]] | None = None,
    ) -> tuple[int, dict[str, Any], float]:
        enqueued = perf_counter()
        trace_ctx = (
            None
            if trace_span is None
            else {"traceparent": trace_span.context.to_traceparent()}
        )
        try:
            future = self.pool.submit(
                request.to_dict(),
                dataset=spec,
                seed=seed,
                wait=wait_for_slot,
                wait_timeout=self.config.request_timeout,
                trace=trace_ctx,
            )
        except QueueFullError as exc:
            return 429, {"error": str(exc), "error_kind": "overloaded"}, 0.0
        try:
            reply = future.result(timeout=self.config.request_timeout)
        except FutureTimeoutError:
            return 504, {
                "error": f"grading exceeded {self.config.request_timeout:.0f}s",
                "error_kind": "unavailable",
            }, 0.0
        grade_time = float(reply.pop("grade_time", 0.0))
        self._observe("grade", grade_time)
        if grade_time > 0:
            # Racy float update is fine: this is a smoothing estimate feeding
            # Retry-After, not an exact statistic.
            self._grade_ewma = (
                grade_time
                if self._grade_ewma == 0.0
                else 0.8 * self._grade_ewma + 0.2 * grade_time
            )
        self._observe("queue_wait", max(0.0, perf_counter() - enqueued - grade_time))
        self._observe_explain_stages(reply.pop("explain_timings", None))
        self._count_explanation(reply)
        # Worker spans ship back alongside the envelope; pop them *before* the
        # cacheable-persist below so traces never enter the store.
        spans = reply.pop("trace_spans", None)
        if isinstance(spans, list) and spans:
            if sink is not None:
                sink.extend(spans)
            self._ingest_spans(spans)
        self._maybe_persist(key, reply)
        return 200, reply, grade_time

    # -- the HTTP dispatcher (runs on the event loop's handler pool) ---------

    def retry_after_hint(self) -> int:
        return compute_retry_after(
            self.pool.queue_depth(), self.config.workers, self._grade_ewma
        )

    def _json_response(
        self, status: int, payload: Mapping[str, Any], *, endpoint: str
    ) -> HTTPResponse:
        self.metrics.inc(
            "repro_server_requests_total",
            {"endpoint": endpoint, "status": str(status)},
        )
        headers: tuple[tuple[str, str], ...] = ()
        if status == 429:
            headers = (("Retry-After", str(self.retry_after_hint())),)
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        return HTTPResponse(status, body, headers=headers)

    def _read_json_body(self, request: HTTPRequest) -> Any:
        if not request.body:
            raise ReproError("request body is empty; expected a JSON object")
        try:
            return json.loads(request.body)
        except json.JSONDecodeError as exc:
            raise ReproError(f"request body is not valid JSON: {exc}") from None

    def _dispatch(self, request: HTTPRequest) -> HTTPResponse:
        # Trace the endpoints that do real work (POST grading paths) and any
        # request that already carries a traceparent (forwarded hops).  GETs
        # without one — health probes at heartbeat rate, Prometheus scrapes —
        # would otherwise churn the bounded trace store with one-span traces.
        traceparent = request.header(TRACEPARENT_HEADER)
        if request.method == "POST" or traceparent is not None:
            with self.tracer.span(
                f"http {request.path}",
                parent=SpanContext.parse(traceparent),
                attributes={"method": request.method},
            ) as span:
                response = self._route(request)
                span.attributes["status"] = response.status
        else:
            response = self._route(request)
        if self.config.verbose:
            print(
                f"{request.method} {request.target} -> {response.status}",
                file=sys.stderr,
                flush=True,
            )
        return response

    def _route(self, request: HTTPRequest) -> HTTPResponse:
        path = request.path
        if request.method == "GET":
            if path == "/healthz":
                status, payload = self.handle_healthz()
                return self._json_response(status, payload, endpoint="/healthz")
            if path == "/metrics":
                self.metrics.inc(
                    "repro_server_requests_total",
                    {"endpoint": "/metrics", "status": "200"},
                )
                return HTTPResponse(
                    200,
                    self.metrics.render().encode("utf-8"),
                    content_type="text/plain; version=0.0.4; charset=utf-8",
                )
            if path == "/v1/datasets":
                status, payload = self.handle_datasets()
                return self._json_response(status, payload, endpoint="/v1/datasets")
            if path == "/v1/cluster/health":
                status, payload = self.handle_cluster_health()
                return self._json_response(
                    status, payload, endpoint="/v1/cluster/health"
                )
            if path == "/v1/debug/traces":
                status, payload = self.handle_debug_traces(request.target)
                return self._json_response(
                    status, payload, endpoint="/v1/debug/traces"
                )
            return self._json_response(
                404, {"error": f"unknown path {path!r}"}, endpoint="other"
            )
        if request.method == "POST":
            if path not in (
                "/v1/grade",
                "/v1/grade_batch",
                "/v1/store/lookup",
                "/v1/datasets/mutate",
            ):
                return self._json_response(
                    404, {"error": f"unknown path {path!r}"}, endpoint="other"
                )
            try:
                payload = self._read_json_body(request)
            except ReproError as exc:
                return self._json_response(
                    400,
                    {"error": str(exc), "error_kind": "invalid_request"},
                    endpoint=path,
                )
            forwarded = request.header(FORWARDED_HEADER.lower()) is not None
            try:
                if path == "/v1/grade":
                    query = parse_qs(urlsplit(request.target).query)
                    trace = (query.get("trace") or ["0"])[0] not in ("", "0", "false")
                    status, body = self.handle_grade(
                        payload, forwarded=forwarded, trace=trace
                    )
                elif path == "/v1/grade_batch":
                    status, body = self.handle_grade_batch(payload, forwarded=forwarded)
                elif path == "/v1/datasets/mutate":
                    status, body = self.handle_datasets_mutate(payload)
                else:
                    status, body = self.handle_store_lookup(payload)
            except Exception as exc:  # noqa: BLE001 — the daemon must answer
                log.exception("unhandled error handling %s", path)
                status, body = 500, {
                    "error": f"internal error: {exc}",
                    "error_kind": "internal_error",
                }
            return self._json_response(status, body, endpoint=path)
        return self._json_response(
            405,
            {"error": f"method {request.method} not allowed"},
            endpoint="other",
        )
