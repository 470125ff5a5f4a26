"""The grading worker pool: long-lived processes with warm engine sessions.

Counterexample search is CPU-bound Python, so threads alone cannot scale a
grading daemon past one core.  The pool runs ``workers`` *processes*, each
embedding a full :class:`~repro.api.service.GradingService` (its own dataset
registry, warm engine sessions, memoised plans and results).  Requests are
routed deterministically by ``(dataset spec, seed)`` — CRC32, stable across
processes and runs — so all traffic for one dataset lands on the worker
whose caches are already hot for it, instead of every worker slowly warming
every dataset.

The parent communicates over multiprocessing queues: one task queue per
worker (routing is a queue choice), one shared result queue drained by a
collector thread that resolves per-request futures.  Workers never die on a
bad request — every exception becomes a grade envelope with an
``error_kind`` — and a crashed worker (OOM, signal) is respawned on the next
submission, with its in-flight requests failed as ``internal_error`` rather
than hung.

Backpressure is the parent's job: :meth:`WorkerPool.submit` refuses work
(:class:`QueueFullError`, surfaced as HTTP 429) once ``max_queue`` requests
are in flight, unless the caller opts into blocking (the batch endpoint,
which owns a whole workload and would rather wait than fail item-by-item).
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import signal
import threading
import zlib
from pathlib import Path
from concurrent.futures import Future
from dataclasses import dataclass
from multiprocessing.connection import wait
from time import monotonic, perf_counter
from typing import Any, Mapping

from repro.api.serialization import SCHEMA_VERSION, outcome_to_dict
from repro.errors import ReproError

log = logging.getLogger(__name__)

#: Sentinel asking a worker to exit its loop after finishing queued work.
_SHUTDOWN = None


class QueueFullError(ReproError):
    """The pool's bounded in-flight queue is full (surfaced as HTTP 429)."""


@dataclass(frozen=True)
class WorkerConfig:
    """Everything a worker process needs to build its grading service.

    Must stay picklable (plain data only) so the pool works under both the
    ``fork`` and ``spawn`` multiprocessing start methods.
    """

    backend: str = "python"
    default_dataset: str = "toy-university"
    default_seed: int = 0
    #: Dataset specs resolved (instance built + session created) at worker
    #: startup, before any traffic — the per-spec warm-session guarantee.
    warm_datasets: tuple[str, ...] = ()
    #: Reference queries evaluated through the warm sessions at startup via
    #: :meth:`~repro.engine.session.EngineSession.warmup` (best-effort).
    warm_queries: tuple[str, ...] = ()


def grade_envelope(graded: "Any") -> dict[str, Any]:
    """The deterministic wire form of a graded submission.

    Identical whether the grade was computed cold, served by another worker,
    or read back from the persistent store — timings are deliberately
    excluded (they ride alongside, never inside, this envelope).
    """
    return {
        "schema_version": SCHEMA_VERSION,
        "id": graded.id,
        "dataset": graded.dataset,
        "seed": graded.seed,
        "correct": graded.correct,
        "outcome": outcome_to_dict(graded.outcome, include_timings=False),
    }


def error_envelope(message: str, kind: str, payload: Mapping[str, Any] | None = None) -> dict[str, Any]:
    """An envelope for requests that never reached (or crashed) grading."""
    request = payload if isinstance(payload, Mapping) else {}
    return {
        "schema_version": SCHEMA_VERSION,
        "id": request.get("id"),
        "dataset": request.get("dataset"),
        "seed": request.get("seed", 0),
        "correct": False,
        "outcome": {
            "schema_version": SCHEMA_VERSION,
            "correct": False,
            "report": None,
            "error": message,
            "error_kind": kind,
        },
    }


def _exit_with_parent() -> None:
    """End this worker as soon as the daemon that started it is gone.

    The worker ignores SIGTERM and blocks on its task queue, so a daemon that
    dies without sending the shutdown sentinel (SIGKILL, OOM) would leave it
    orphaned forever.  A watcher thread blocks on the parent's sentinel, off
    the grading path, and exits the process when it fires.
    """
    parent = multiprocessing.parent_process()
    if parent is None:
        return

    def watch() -> None:
        wait([parent.sentinel])
        os._exit(0)

    threading.Thread(target=watch, name="repro-worker-parent-watch", daemon=True).start()


def _worker_main(worker_id: int, config: WorkerConfig, tasks: Any, results: Any) -> None:
    """Worker process entry point: grade until the shutdown sentinel."""
    # The parent coordinates shutdown through the task queue; stray terminal
    # signals (Ctrl-C fans out to the process group) must not kill workers
    # mid-grade.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    _exit_with_parent()

    from repro.api.service import GradingService, classify_error
    from repro.obs.trace import SpanContext, Tracer, operator_trace

    tracer = Tracer(f"worker-{worker_id}")
    service = GradingService(
        default_dataset=config.default_dataset,
        default_seed=config.default_seed,
        backend=config.backend,
    )
    for spec in dict.fromkeys((config.default_dataset, *config.warm_datasets)):
        try:
            handle = service.handle_for(spec)
        except ReproError:
            continue
        if config.warm_queries:
            handle.session.warmup(config.warm_queries)

    while True:
        item = tasks.get()
        if item is _SHUTDOWN:
            break
        request_id, kind, payload, trace_ctx = item
        try:
            if kind == "stats":
                reply: dict[str, Any] = {
                    "worker": worker_id,
                    "registry": service.registry.cache_info(),
                    "sessions": service.registry.session_stats(),
                }
            elif kind == "mutate":
                # Dataset edits broadcast to every worker (each process owns
                # its own registry and instances), so all copies of a dataset
                # mutate identically and warm sessions stay delta-maintained.
                try:
                    reply = {"worker": worker_id, **service.mutate(payload)}
                except ReproError as exc:
                    reply = {"worker": worker_id, "error": str(exc)}
            elif trace_ctx is not None:
                # Traced grade: continue the parent's trace across the process
                # boundary, collect every span (worker, grade phases, engine
                # operators) and ship them back alongside the envelope.
                parent = SpanContext.parse(trace_ctx.get("traceparent"))
                started = perf_counter()
                with tracer.capture() as spans, operator_trace(True), tracer.span(
                    "worker.grade", parent=parent, attributes={"worker": worker_id}
                ):
                    graded = service.submit(payload)
                reply = grade_envelope(graded)
                reply["grade_time"] = perf_counter() - started
                reply["trace_spans"] = spans
                report = graded.outcome.report
                if report is not None and report.result.timings:
                    reply["explain_timings"] = dict(report.result.timings)
            else:
                started = perf_counter()
                graded = service.submit(payload)
                reply = grade_envelope(graded)
                reply["grade_time"] = perf_counter() - started
                # The counterexample pipeline's phase split rides alongside
                # the envelope, like grade_time: timings are non-deterministic
                # and must never enter the stored/deduplicated grade itself.
                report = graded.outcome.report
                if report is not None and report.result.timings:
                    reply["explain_timings"] = dict(report.result.timings)
        except BaseException as exc:  # noqa: BLE001 — workers must not die
            kind_label = classify_error(exc)
            reply = error_envelope(str(exc) or repr(exc), kind_label, payload)
            reply["grade_time"] = 0.0
        results.put((request_id, reply))


class WorkerPool:
    """Routes grading requests to long-lived worker processes."""

    def __init__(
        self,
        config: WorkerConfig | None = None,
        *,
        workers: int = 2,
        max_queue: int = 64,
        mp_context: str = "spawn",
    ) -> None:
        if workers < 1:
            raise ReproError("worker pool needs at least one worker process")
        self.config = config if config is not None else WorkerConfig()
        self.workers = workers
        self.max_queue = max_queue
        # Every worker warms these specs at startup, so requests for them can
        # go to whichever worker is least loaded; other specs stay pinned.
        self._spread_specs = frozenset(
            {self.config.default_dataset, *self.config.warm_datasets}
        )
        # ``spawn`` (the default) re-imports :mod:`repro` in each worker — it
        # is fork-safe under the threaded HTTP frontend, and cheap because
        # the import totals ≈0.1s.
        self._needs_pythonpath = mp_context in ("spawn", "forkserver")
        self._ctx = multiprocessing.get_context(mp_context)
        self._results = self._ctx.Queue()
        self._tasks = [self._ctx.Queue() for _ in range(workers)]
        self._procs: list[Any] = [None] * workers
        self._lock = threading.Lock()
        self._slot_freed = threading.Condition(self._lock)
        self._pending: dict[int, tuple[Future, int]] = {}  # id -> (future, worker)
        # Stats probes ride the same queues but are tracked separately so a
        # /metrics scrape never eats grading slots (spurious 429s) nor
        # inflates the reported queue depth.
        self._pending_stats: dict[int, tuple[Future, int]] = {}
        self._next_id = 0
        self._closed = False
        self._stop = threading.Event()
        self.restarts = 0
        #: Sweeps of the liveness watchdog that raised (and were survived).
        #: Exposed as the ``repro_server_watchdog_errors`` gauge — a nonzero
        #: value means liveness checking is degraded, not merely that a
        #: worker died (that is ``restarts``).
        self.watchdog_errors = 0
        for index in range(workers):
            self._spawn(index)
        self._collector = threading.Thread(
            target=self._collect, name="repro-pool-collector", daemon=True
        )
        self._collector.start()
        # Without the watchdog, a worker dying mid-grade (OOM kill, stray
        # signal) would leave its requests hanging until the HTTP timeout;
        # with it they fail fast as internal errors and the worker respawns.
        self._watchdog = threading.Thread(
            target=self._watch, name="repro-pool-watchdog", daemon=True
        )
        self._watchdog.start()

    # -- lifecycle -----------------------------------------------------------

    #: Serializes the scoped PYTHONPATH edit across pools/threads.
    _spawn_env_lock = threading.Lock()

    def _spawn(self, index: int) -> None:
        process = self._ctx.Process(
            target=_worker_main,
            args=(index, self.config, self._tasks[index], self._results),
            name=f"repro-worker-{index}",
            daemon=True,
        )
        if self._needs_pythonpath:
            # Spawned children resolve :mod:`repro` via PYTHONPATH (the
            # parent may have gotten it from sys.path manipulation instead).
            # The child snapshots the environment during start(), so the
            # edit is scoped to the call and restored — the host process's
            # environment is not permanently mutated.
            package_root = str(Path(__file__).resolve().parents[2])
            with self._spawn_env_lock:
                before = os.environ.get("PYTHONPATH")
                entries = (before or "").split(os.pathsep) if before else []
                try:
                    if package_root not in entries:
                        os.environ["PYTHONPATH"] = os.pathsep.join(
                            [package_root, *entries]
                        )
                    process.start()
                finally:
                    if before is None:
                        os.environ.pop("PYTHONPATH", None)
                    else:
                        os.environ["PYTHONPATH"] = before
        else:
            process.start()
        self._procs[index] = process

    def _ensure_alive(self, index: int) -> None:
        """Respawn a dead worker; fail whatever was routed to it (caller holds lock)."""
        process = self._procs[index]
        if process.is_alive():
            return
        process.join(timeout=0.1)
        self.restarts += 1
        message = (
            f"worker {index} died (exit code {process.exitcode}) and was restarted"
        )
        dead = [rid for rid, (_, worker) in self._pending.items() if worker == index]
        for rid in dead:
            future, _ = self._pending.pop(rid)
            future.set_result(error_envelope(message, "internal_error"))
        for rid in [
            rid for rid, (_, worker) in self._pending_stats.items() if worker == index
        ]:
            future, _ = self._pending_stats.pop(rid)
            future.set_result({"worker": index, "error": message})
        if dead:
            self._slot_freed.notify_all()
        self._spawn(index)

    def _watch(self, interval: float = 0.5) -> None:
        # One bad sweep must not kill the thread: an unguarded exception here
        # (e.g. a respawn failing under fd pressure) would silently end all
        # liveness checking, leaving future worker deaths to hang requests
        # until the HTTP timeout.  Count and log, never die.
        while not self._stop.wait(interval):
            try:
                with self._lock:
                    if self._closed:
                        return
                    for index in range(self.workers):
                        self._ensure_alive(index)
            except Exception:  # noqa: BLE001
                self.watchdog_errors += 1
                log.exception(
                    "worker watchdog sweep failed (%d so far); continuing",
                    self.watchdog_errors,
                )

    def _collect(self) -> None:
        while True:
            item = self._results.get()
            if item is _SHUTDOWN:
                break
            request_id, reply = item
            with self._lock:
                entry = self._pending.pop(request_id, None)
                if entry is None:
                    entry = self._pending_stats.pop(request_id, None)
                self._slot_freed.notify_all()
            if entry is not None:
                entry[0].set_result(reply)

    def close(self, timeout: float = 10.0) -> None:
        """Drain-and-stop: workers finish queued grades, then exit."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._stop.set()
        for queue in self._tasks:
            queue.put(_SHUTDOWN)
        deadline = monotonic() + timeout
        for process in self._procs:
            process.join(timeout=max(0.1, deadline - monotonic()))
            if process.is_alive():
                process.terminate()
                process.join(timeout=1.0)
        self._results.put(_SHUTDOWN)
        self._collector.join(timeout=5.0)
        with self._lock:
            leftover = list(self._pending.values())
            self._pending.clear()
            self._pending_stats.clear()
        for future, _ in leftover:
            future.set_result(
                error_envelope("server shut down before the grade finished", "unavailable")
            )

    # -- submission ----------------------------------------------------------

    def route(self, dataset: str, seed: int) -> int:
        """Deterministic worker index for a dataset — cache locality."""
        return zlib.crc32(f"{dataset}#{seed}".encode("utf-8")) % self.workers

    def _choose_worker(self, dataset: str, seed: int) -> int:
        """Routing with a parallelism fallback (caller holds the lock).

        Specs every worker warmed at startup (the default dataset and
        ``warm_datasets``) are warm *everywhere*, so pinning them to one
        CRC32 slot would leave the other workers idle in the common
        one-class deployment; those go to the least-loaded worker instead.
        Everything else keeps strict pinning — only its CRC32 worker has
        (or will build) that dataset's warm session.
        """
        if dataset in self._spread_specs and seed == self.config.default_seed:
            counts = [0] * self.workers
            for _, worker in self._pending.values():
                counts[worker] += 1
            return min(range(self.workers), key=lambda index: (counts[index], index))
        return self.route(dataset, seed)

    def submit(
        self,
        payload: Mapping[str, Any],
        *,
        dataset: str,
        seed: int,
        wait: bool = False,
        wait_timeout: float = 60.0,
        trace: Mapping[str, Any] | None = None,
    ) -> Future:
        """Enqueue one grading request; the future resolves to its envelope.

        ``wait=False`` (the ``/v1/grade`` path) raises :class:`QueueFullError`
        when ``max_queue`` requests are already in flight; ``wait=True`` (the
        batch path) blocks until a slot frees, up to ``wait_timeout``.

        ``trace`` (a dict with a ``"traceparent"`` key, or ``None``) asks the
        worker to trace the grade and return its spans in the reply under
        ``"trace_spans"``.
        """
        future: Future = Future()
        with self._lock:
            if self._closed:
                raise ReproError("worker pool is shut down")
            if len(self._pending) >= self.max_queue:
                if not wait:
                    raise QueueFullError(
                        f"grading queue is full ({self.max_queue} requests in flight)"
                    )
                deadline = monotonic() + wait_timeout
                while len(self._pending) >= self.max_queue:
                    remaining = deadline - monotonic()
                    if remaining <= 0 or self._closed:
                        raise QueueFullError(
                            f"grading queue stayed full for {wait_timeout:.0f}s"
                        )
                    self._slot_freed.wait(timeout=remaining)
            worker = self._choose_worker(dataset, seed)
            self._ensure_alive(worker)
            request_id = self._next_id
            self._next_id += 1
            self._pending[request_id] = (future, worker)
        self._tasks[worker].put(
            (request_id, "grade", dict(payload), None if trace is None else dict(trace))
        )
        return future

    def queue_depth(self) -> int:
        with self._lock:
            return len(self._pending)

    def drain(self, timeout: float = 30.0) -> bool:
        """Wait for every in-flight request to finish; ``True`` on success."""
        deadline = monotonic() + timeout
        with self._lock:
            while self._pending:
                remaining = deadline - monotonic()
                if remaining <= 0:
                    return False
                self._slot_freed.wait(timeout=remaining)
        return True

    # -- introspection -------------------------------------------------------

    def mutate(self, payload: Mapping[str, Any], timeout: float = 30.0) -> list[dict[str, Any]]:
        """Broadcast one dataset edit stream to every worker; collect replies.

        Rides the per-worker task queues *behind* any queued grades, so each
        worker applies the edits at a deterministic point in its own request
        order.  Unlike :meth:`stats`, replies are awaited strictly (a worker
        that cannot confirm within ``timeout`` yields an ``error`` entry
        instead of being skipped): callers must know whether every worker's
        copy of the dataset mutated before trusting subsequent grades.
        """
        futures: list[tuple[int, int, Future]] = []
        with self._lock:
            if self._closed:
                raise ReproError("worker pool is shut down")
            for index in range(self.workers):
                self._ensure_alive(index)
                request_id = self._next_id
                self._next_id += 1
                future: Future = Future()
                self._pending_stats[request_id] = (future, index)
                futures.append((request_id, index, future))
        for (request_id, index, _future) in futures:
            self._tasks[index].put((request_id, "mutate", dict(payload), None))
        deadline = monotonic() + timeout
        replies: list[dict[str, Any]] = []
        for request_id, index, future in futures:
            try:
                replies.append(future.result(timeout=max(0.0, deadline - monotonic())))
            except Exception as exc:  # noqa: BLE001 — report, don't hang
                with self._lock:
                    self._pending_stats.pop(request_id, None)
                replies.append(
                    {"worker": index, "error": f"mutation not confirmed: {exc}"}
                )
        return replies

    def stats(self, timeout: float = 2.0) -> list[dict[str, Any]]:
        """Cache statistics from every live worker (best-effort, bounded).

        Stat probes ride the normal task queues, so they also measure that a
        worker is responsive; a worker busy past ``timeout`` just reports
        nothing this scrape.
        """
        futures: list[tuple[int, Future]] = []
        with self._lock:
            if self._closed:
                return []
            for index in range(self.workers):
                self._ensure_alive(index)
                request_id = self._next_id
                self._next_id += 1
                future: Future = Future()
                self._pending_stats[request_id] = (future, index)
                futures.append((request_id, future))
        for (request_id, _), queue in zip(futures, self._tasks):
            queue.put((request_id, "stats", None, None))
        deadline = monotonic() + timeout
        collected = []
        for request_id, future in futures:
            try:
                reply = future.result(timeout=max(0.0, deadline - monotonic()))
            except Exception:
                # Best-effort by design (a busy worker just skips a scrape),
                # but leave a trace instead of swallowing silently.
                log.debug("stats probe %d timed out or failed", request_id, exc_info=True)
                with self._lock:
                    self._pending_stats.pop(request_id, None)
                continue
            if "registry" in reply:
                collected.append(reply)
        return collected

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
