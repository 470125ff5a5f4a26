"""The grading worker pool: long-lived processes with warm engine sessions.

Counterexample search is CPU-bound Python, so threads alone cannot scale a
grading daemon past one core.  The pool runs ``workers`` *processes*, each
embedding a full :class:`~repro.api.service.GradingService` (its own dataset
registry, warm engine sessions, memoised plans and results).  Requests are
routed deterministically by ``(dataset spec, seed)`` — CRC32, stable across
processes and runs — so all traffic for one dataset lands on the worker
whose caches are already hot for it, instead of every worker slowly warming
every dataset.

Each worker is spawned with its own duplex pipe; the parent keeps only its
end, so a dead worker reads as EOF, not a hang.  Submitting threads write into
a worker's pipe under its send lock; one collector thread waits on every pipe
and process sentinel.  A worker's exit fails what it owed as
``internal_error`` at once, and it is respawned on a fresh pipe after
replaying, in order, every dataset edit the pool has broadcast (a daemon
restart still starts from the unedited datasets).  A bad request never kills
a worker: every exception becomes an envelope with an ``error_kind``.

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
from contextlib import suppress
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, field
from multiprocessing.connection import wait
from time import monotonic, perf_counter, sleep
from typing import Any, Mapping

from repro.api.serialization import SCHEMA_VERSION, outcome_to_dict
from repro.errors import ReproError

log = logging.getLogger(__name__)

_SPAWN = multiprocessing.get_context("spawn")

#: Least seconds between two starts of one worker; the collector's error pause.
_RETRY_SECONDS = 0.5


class QueueFullError(ReproError):
    """The pool's bounded in-flight queue is full (surfaced as HTTP 429)."""


@dataclass(frozen=True)
class WorkerConfig:
    """Everything a worker process needs to build its grading service.

    Must stay picklable (plain data only): it is sent to every spawned worker.
    """

    default_dataset: str = "toy-university"
    default_seed: int = 0
    #: Dataset specs resolved (instance built + session created) at worker
    #: startup, before any traffic — the per-spec warm-session guarantee.
    warm_datasets: tuple[str, ...] = ()


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

    An idle worker sees EOF on its pipe when the daemon dies; a busy one reads
    its pipe only after the grade, so a daemon SIGKILLed or OOM-killed would
    leave it grading for nobody.  A watcher thread blocks on the parent's
    sentinel, off the grading path, and exits the process when it fires.
    """
    parent = multiprocessing.parent_process()
    if parent is None:
        return

    def watch() -> None:
        wait([parent.sentinel])
        os._exit(0)

    threading.Thread(target=watch, name="repro-worker-parent-watch", daemon=True).start()


def _worker_main(worker_id: int, config: WorkerConfig, conn: Any, edits: tuple) -> None:
    """Worker process entry point: apply ``edits``, then grade until told to stop."""
    # Shutdown comes through the pipe; stray terminal signals (Ctrl-C fans
    # out to the process group) must not kill a worker mid-grade.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    _exit_with_parent()

    from repro.api.service import GradingService, classify_error
    from repro.obs.trace import SpanContext, Tracer

    tracer = Tracer(f"worker-{worker_id}")
    service = GradingService(
        default_dataset=config.default_dataset,
        default_seed=config.default_seed,
    )
    for spec in dict.fromkeys((config.default_dataset, *config.warm_datasets)):
        with suppress(ReproError):
            service.handle_for(spec)
    # Edits broadcast before this process existed; one that failed then
    # fails the same way now, and its reply went out long ago.
    for payload in edits:
        with suppress(Exception):
            service.mutate(payload)

    while True:
        try:
            item = conn.recv()
        except EOFError:
            break
        if item is None:  # the pool is closing: everything before it is done
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
                # mutate identically and each warm session drops only the
                # memo entries over the edited relations.
                try:
                    reply = {"worker": worker_id, **service.mutate(payload)}
                except ReproError as exc:
                    reply = {"worker": worker_id, "error": str(exc)}
            else:
                started = perf_counter()
                if trace_ctx is None:
                    graded = service.submit(payload)
                else:
                    # Traced grade: continue the parent's trace in this process,
                    # collect every span (worker, grade phases, engine
                    # operators) and ship them back alongside the envelope.
                    parent = SpanContext.parse(trace_ctx.get("traceparent"))
                    with tracer.capture() as spans, tracer.span(
                        "worker.grade", parent=parent, attributes={"worker": worker_id}
                    ):
                        graded = service.submit(payload)
                reply = grade_envelope(graded)
                reply["grade_time"] = perf_counter() - started
                if trace_ctx is not None:
                    reply["trace_spans"] = spans
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
        try:
            conn.send((request_id, reply))
        except OSError:  # the pool is gone
            break


@dataclass
class _Worker:
    """One worker process and the parent's end of its pipe."""

    index: int
    process: Any
    conn: Any
    #: Handler and batch threads submit concurrently; one message at a time.
    send_lock: threading.Lock = field(default_factory=threading.Lock)
    started: float = field(default_factory=monotonic)

    def send(self, message: Any) -> None:
        # A dead worker raises here; the collector fails what it owed.
        try:
            with self.send_lock:
                self.conn.send(message)
        except OSError:
            pass


class WorkerPool:
    """Routes grading requests to long-lived worker processes."""

    def __init__(
        self,
        config: WorkerConfig | None = None,
        *,
        workers: int = 2,
        max_queue: int = 64,
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
        self._lock = threading.Lock()
        self._slot_freed = threading.Condition(self._lock)
        self._pending: dict[int, tuple[Future, int]] = {}  # id -> (future, worker)
        # Stats and mutate broadcasts ride the same pipes but are tracked
        # separately so a /metrics scrape never eats grading slots (spurious
        # 429s) nor inflates the reported queue depth.
        self._pending_stats: dict[int, tuple[Future, int]] = {}
        #: Every edit payload broadcast so far, in order, for respawned workers.
        self._edits: list[dict[str, Any]] = []
        self._mutate_lock = threading.Lock()  # one edit broadcast at a time
        self._next_id = 0
        self._closed = False
        self.restarts = 0
        #: Collector failures survived, such as a respawn that raised (the
        #: ``repro_server_watchdog_errors`` gauge): nonzero means supervision
        #: is degraded, not merely that a worker died (that is ``restarts``).
        self.watchdog_errors = 0
        # Replaced only by the collector; ``None`` once reaped after close().
        self._workers: list[_Worker | None] = [self._spawn(i) for i in range(workers)]
        self._collector = threading.Thread(
            target=self._collect, name="repro-pool-collector", daemon=True
        )
        self._collector.start()

    # -- lifecycle -----------------------------------------------------------

    #: Serializes the scoped PYTHONPATH edit across pools/threads.
    _spawn_env_lock = threading.Lock()

    def _spawn(self, index: int) -> _Worker:
        """Start worker ``index`` on a fresh pipe, handing it the edits so far."""
        conn, child_conn = _SPAWN.Pipe()
        process = _SPAWN.Process(
            target=_worker_main,
            args=(index, self.config, child_conn, tuple(self._edits)),
            name=f"repro-worker-{index}",
            daemon=True,
        )
        # The child resolves :mod:`repro` via PYTHONPATH (the parent may have
        # it from sys.path edits); start() snapshots it, so the edit is scoped.
        package_root = str(Path(__file__).resolve().parents[2])
        with self._spawn_env_lock:
            before = os.environ.get("PYTHONPATH")
            if package_root not in (before or "").split(os.pathsep):
                os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, before]))
            try:
                process.start()
            finally:
                # Only the child may hold its end: its exit must read as EOF.
                child_conn.close()
                if before is None:
                    os.environ.pop("PYTHONPATH", None)
                else:
                    os.environ["PYTHONPATH"] = before
        return _Worker(index, process, conn)

    def _collect(self) -> None:
        """Resolve replies and replace dead workers until the pool is closed."""
        while True:
            try:
                live = [worker for worker in self._workers if worker is not None]
                if not live:  # closed, and every worker reaped
                    return
                owners = {w.conn: w for w in live} | {w.process.sentinel: w for w in live}
                for ready in wait(list(owners)):
                    worker = owners[ready]
                    if self._workers[worker.index] is not worker:
                        continue  # its pipe and sentinel were both ready
                    if ready is worker.conn and self._read_reply(worker):
                        continue
                    # EOF or exit: read what the worker sent before it died.
                    while worker.conn.poll() and self._read_reply(worker):
                        pass
                    self._replace(worker)
            except Exception:  # noqa: BLE001
                # The collector is the pool's only supervisor: an unguarded
                # exception would leave every later death to hang requests
                # until the HTTP timeout.  Count and log, never die.
                self.watchdog_errors += 1
                log.exception("worker pool collector failed; continuing")
                sleep(_RETRY_SECONDS)

    def _read_reply(self, worker: _Worker) -> bool:
        """Resolve the next reply in ``worker``'s pipe; ``False`` on EOF."""
        try:
            request_id, reply = worker.conn.recv()
        except (EOFError, OSError):
            return False
        with self._lock:
            entry = self._pending.pop(request_id, None)
            entry = entry or self._pending_stats.pop(request_id, None)
            self._slot_freed.notify_all()
        if entry is not None:
            entry[0].set_result(reply)
        return True

    def _replace(self, worker: _Worker) -> None:
        """Reap an exited worker, fail what it owed and start its successor.

        Starts are ``_RETRY_SECONDS`` apart, so neither a worker that dies at
        startup nor a start that raises (fd or memory pressure; counted) spins
        the collector.  A start holds the lock, so the successor's edit replay
        and any concurrent broadcast agree on which edits it has.
        """
        worker.conn.close()
        process = worker.process
        process.kill()  # no-op once it has exited; its exit code stays
        process.join()
        message = f"worker {worker.index} died (exit code {process.exitcode}) and was restarted"
        start_at = worker.started + _RETRY_SECONDS
        while True:
            with self._lock:
                if self._closed:  # close() answers what is left
                    self._workers[worker.index] = None
                    return
                self._fail_owed(message, index=worker.index)
                if monotonic() >= start_at:
                    start_at = monotonic() + _RETRY_SECONDS
                    try:
                        self._workers[worker.index] = self._spawn(worker.index)
                        self.restarts += 1
                        return
                    except Exception:  # noqa: BLE001
                        self.watchdog_errors += 1
                        log.exception("respawning worker %d failed; retrying", worker.index)
            sleep(max(0.0, start_at - monotonic()))

    def _fail_owed(self, message: str, kind: str = "internal_error", index: int | None = None) -> None:
        """Answer what worker ``index`` (``None``: all) owes with an error; lock held."""
        for pending, grade in ((self._pending, True), (self._pending_stats, False)):
            for request_id, (future, owner) in list(pending.items()):
                if index is None or owner == index:
                    del pending[request_id]
                    future.set_result(
                        error_envelope(message, kind) if grade else {"worker": owner, "error": message}
                    )
        self._slot_freed.notify_all()

    def close(self, timeout: float = 10.0) -> None:
        """Drain-and-stop: workers finish queued grades, then exit."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            workers = list(self._workers)
        for worker in workers:
            worker.send(None)
        # The collector reaps the workers as they exit, then returns.
        self._collector.join(timeout=timeout)
        if self._collector.is_alive():
            for worker in workers:
                worker.process.terminate()
            self._collector.join(timeout=5.0)
        with self._lock:
            self._fail_owed("server shut down before the grade finished", "unavailable")

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
        """Send one grading request; the future resolves to its envelope.

        ``wait=False`` (the ``/v1/grade`` path) raises :class:`QueueFullError`
        when ``max_queue`` requests are already in flight; ``wait=True`` (the
        batch path) blocks until a slot frees, up to ``wait_timeout``.
        ``trace`` (``{"traceparent": ...}``) asks the worker to trace the
        grade and return its spans in the reply under ``"trace_spans"``.
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
            index = self._choose_worker(dataset, seed)
            worker = self._workers[index]
            request_id = self._next_id
            self._next_id += 1
            self._pending[request_id] = (future, index)
        worker.send((request_id, "grade", dict(payload), None if trace is None else dict(trace)))
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

    # -- broadcasts ----------------------------------------------------------

    def _broadcast(
        self, kind: str, payload: Mapping[str, Any], timeout: float
    ) -> list[dict[str, Any]]:
        """One request to every worker; a reply each (``error`` past ``timeout``).

        An edit is journaled under the lock that picks the workers it goes
        to, so each worker applies it once: from here, or on respawn.
        """
        message = dict(payload)
        sends: list[tuple[int, int, Future, _Worker]] = []
        with self._lock:
            if self._closed:
                raise ReproError("worker pool is shut down")
            if kind == "mutate":
                self._edits.append(message)
            for index, worker in enumerate(self._workers):
                future: Future = Future()
                self._pending_stats[self._next_id] = (future, index)
                sends.append((self._next_id, index, future, worker))
                self._next_id += 1
        for request_id, _index, _future, worker in sends:
            worker.send((request_id, kind, message, None))
        deadline = monotonic() + timeout
        replies = []
        for request_id, index, future, _worker in sends:
            try:
                replies.append(future.result(timeout=max(0.0, deadline - monotonic())))
            except FutureTimeoutError:
                log.debug("%s request to worker %d timed out", kind, index)
                with self._lock:
                    self._pending_stats.pop(request_id, None)
                replies.append({"worker": index, "error": f"no reply within {timeout:g}s"})
        return replies

    def mutate(self, payload: Mapping[str, Any], timeout: float = 30.0) -> list[dict[str, Any]]:
        """Broadcast one dataset edit stream to every worker; collect replies.

        Edits go out one at a time, each behind the requests already in a
        worker's pipe, so every worker and the replay list see one order.  A
        worker that cannot confirm within ``timeout`` yields an ``error``
        entry: callers must know every copy mutated before trusting grades.
        """
        with self._mutate_lock:
            return self._broadcast("mutate", payload, timeout)

    def stats(self, timeout: float = 2.0) -> list[dict[str, Any]]:
        """Cache statistics from every live worker (best-effort, bounded).

        Probes ride the normal pipes, so they also measure responsiveness: a
        worker busy past ``timeout`` just reports nothing this scrape.
        """
        try:
            replies = self._broadcast("stats", {}, timeout)
        except ReproError:  # shut down
            return []
        return [reply for reply in replies if "registry" in reply]

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
