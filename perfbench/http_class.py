"""http-class: the grading daemon driven by a simulated class over one connection.

The daemon runs as ``python -m repro.cli serve --workers 1`` with a file-backed
store in a temporary directory.  The class grades the course pool in rounds:
each round requests every pair, 17 distinct pairs per cycle, each eight
times in shuffled order, so most grades are store hits.  Every cycle ends with
a dataset edit (insert a Registration row, then delete it the next time),
which purges the store, so the next cycle's pairs go back through the worker
queue and the delta-maintained session.  Whole rounds keep the hit/miss/edit
mix the same in every run.  One caller, one connection, no thread pools:
more load generators than cores would measure the host, not the daemon.

The mix (seven of eight grades store hits, one edit every 136 grades) is an
assumption, not a measured class: nothing in the paper or the repository
gives resubmission or edit rates.  Each untraced run therefore prints the
store-hit ratio it saw and the share of CPU that hits, misses and edits took,
so a reader can weigh ``grades_per_cpu_s`` against their own traffic.
"""

from __future__ import annotations

import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter, sleep

from repro.api import DatasetRegistry, GradingService, SubmissionRequest
from repro.obs.promparse import parse_exposition
from repro.server.client import GradingClient, ServerError

import inputs
import ledger
from oracle import check_grades, repro_line
from probe import SetupTimer, SpeedProbe
from report import Report, children_of, cpu_seconds, end_to_end, peak_rss_mb

DATASET = "university:200"
DISTINCT = 17
REPEATS = 8
BOOTS = 3
#: The hidden instance is fixed; the seed orders the class and picks the edit.
DATASET_SEED = 0
#: Rounds per run at least.  A traced run alternates untraced and traced rounds.
MIN_ROUNDS = 4
EDIT_TID = "Registration:perfbench-edit"
_STAGES = ("store_lookup", "queue_wait", "grade", "store_write", "total")
#: Daemon span name → (ledger span name, layer).
_DAEMON_SPANS = {
    "server.grade": ("server.daemon", "server"),
    "worker.grade": ("server.worker", "server"),
    "grade.parse": ("parser.parse", "parser"),
    "grade.reference_eval": ("engine.eval", "engine"),
    "grade.submission_eval": ("engine.eval", "engine"),
    "grade.explain": ("core.explain", "core"),
}


class Daemon:
    """One ``repro serve`` process; stderr goes to a file so it never blocks on a pipe."""

    def __init__(self, root: Path, workdir: Path, name: str) -> None:
        self.log_path = workdir / f"{name}.log"
        self._log = open(self.log_path, "w")
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve", "--port", "0", "--workers", "1",
                "--store", str(workdir / f"{name}.sqlite3"),
                "--dataset", DATASET, "--seed", str(DATASET_SEED),
            ],
            cwd=root, stdout=subprocess.DEVNULL, stderr=self._log,
        )
        self.client: GradingClient | None = None
        try:
            self.client = GradingClient(self._wait_for_url())
            self.client.wait_until_healthy(60)
        except BaseException:
            self.stop()
            raise

    def _wait_for_url(self) -> str:
        for _ in range(6000):
            found = re.search(r"listening on (http://\S+)", self.log_path.read_text())
            if found:
                return found.group(1)
            if self.process.poll() is not None:
                break
            sleep(0.01)
        raise RuntimeError(f"daemon did not start: {self.log_path.read_text()[-2000:]}")

    def pids(self) -> list[int]:
        """The daemon and its worker (plus multiprocessing's resource tracker)."""
        return [self.process.pid, *children_of(self.process.pid)]

    def peak_rss_mb(self) -> float:
        return sum(peak_rss_mb(pid) for pid in self.pids())

    def stop(self) -> None:
        """SIGTERM (the daemon drains and stops its worker), then reap what is left."""
        if self.client is not None:
            self.client.close()
        children = children_of(self.process.pid) if self.process.poll() is None else []
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        for pid in children:
            _kill_leftover(pid)
        self._log.close()


def _kill_leftover(pid: int) -> None:
    """Stop a worker the daemon left behind and wait until it is gone."""
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as cmdline:
            if b"multiprocessing" not in cmdline.read():
                return
        os.kill(pid, signal.SIGKILL)
    except OSError:
        return
    for _ in range(500):
        if not os.path.exists(f"/proc/{pid}"):
            return
        sleep(0.01)


def boot(root: Path, workdir: Path, name: str) -> Daemon:
    """Daemon start to healthy, with the worker warm on every reference query."""
    daemon = Daemon(root, workdir, name)
    try:
        for reference in inputs.course_references():
            daemon.client.grade({"correct_query": reference, "test_query": reference})
    except BaseException:
        daemon.stop()
        raise
    return daemon


def scrape(client: GradingClient) -> dict[str, float]:
    families = parse_exposition(client.metrics_text())
    out: dict[str, float] = {}
    for family_name, key in (("repro_server_stage_seconds", "stage"), ("repro_worker_cache", "counter")):
        family = families.get(family_name)
        for sample in family.samples if family else ():
            label = sample.labels.get(key, "")
            if family_name == "repro_worker_cache":
                name = label.removeprefix("sessions_")
                if name in ledger.CACHE_COUNTERS and label.startswith("sessions_"):
                    out[name] = out.get(name, 0.0) + sample.value
            elif sample.name.endswith("_sum") and label in _STAGES:
                out[f"stage.{label}"] = sample.value
    return out


def attach_daemon_spans(recorder: ledger.Recorder, parent: int, envelope: dict) -> None:
    """Hang the daemon's ``?trace=1`` spans under the client span, parents first."""
    spans = envelope.get("trace", {}).get("spans", [])
    ids = {span["span_id"] for span in spans}
    by_parent: dict[str | None, list[dict]] = {}
    for span in spans:
        key = span.get("parent_id") if span.get("parent_id") in ids else None
        by_parent.setdefault(key, []).append(span)
    pending = [(None, parent)]
    while pending:
        span_id, index = pending.pop()
        for span in by_parent.get(span_id, ()):
            name, layer = _DAEMON_SPANS.get(span["name"], (span["name"], "server"))
            if span["name"].startswith("op."):
                name, layer = "engine.op", "engine"
            child = recorder.add_child(index, name, layer, span["duration"])
            for metric in ("decisions", "conflicts", "propagations"):
                recorder.count(f"solver.sat_{metric}", span.get("metrics", {}).get(f"sat_{metric}", 0))
            pending.append((span["span_id"], child))


def run(root: Path, seed: int, seconds: float, traced_run: bool) -> Report:
    report = Report("http-class")
    pairs = inputs.course_pairs()
    ledger.OUT_DIR.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="http-class-", dir=ledger.OUT_DIR))
    daemon = None
    try:
        setups = SetupTimer()
        for index in range(BOOTS):
            if daemon is not None:
                daemon.stop()
            with setups.measure():
                daemon = boot(root, workdir, f"boot{index}")
        client = daemon.client
        instance = DatasetRegistry().resolve(DATASET, seed=DATASET_SEED).instance
        row = inputs.edit_row(instance, seed)
        edits = (
            {"operations": [{"op": "insert", "relation": "Registration", "values": row, "tid": EDIT_TID}]},
            {"operations": [{"op": "delete", "tid": EDIT_TID}]},
        )
        recorder = ledger.Recorder()
        log: list[tuple] = []
        latencies_ms: list[float] = []
        edit_ms: list[float] = []
        wall = {False: 0.0, True: 0.0}
        grades = {False: 0, True: 0}
        hits = {False: 0, True: 0}
        purged = 0
        #: CPU seconds (client + daemon + worker) of untraced timed operations,
        #: by kind: store hits, everything else the worker grades, and edits.
        cpu_by_kind = {"hit": 0.0, "miss": 0.0, "edit": 0.0}
        delta = {"delta_maintained": 0, "delta_fallback": 0}
        edit_count = 0
        metrics_delta: dict[str, float] = {}
        #: The client, daemon and worker: the processes whose CPU a grade costs.
        pids: list[int] = []
        probe = SpeedProbe(lambda: cpu_seconds(pids), enabled=not traced_run)

        state = 0

        def one_round(index: int, traced: bool, timed: bool, cycles: int | None = None) -> None:
            nonlocal purged, edit_count, state

            def charge(kind: str) -> None:
                if timed and not traced:
                    cpu_by_kind[kind] += probe.charge()

            round_ = inputs.class_round(len(pairs), seed, index, distinct=DISTINCT, repeats=REPEATS)
            for cycle in round_[:cycles]:
                for op, pair_index in enumerate(cycle):
                    root_span = recorder.begin_op(op, "grade") if traced else None
                    started = perf_counter()
                    pair = pairs[pair_index]
                    try:
                        envelope = client.grade(
                            {"correct_query": pair.correct, "test_query": pair.test}, trace=traced
                        )
                    except (ServerError, OSError) as exc:
                        envelope = {"transport_error": str(exc)}
                    elapsed = perf_counter() - started
                    if root_span is not None:
                        attach_daemon_spans(recorder, len(recorder.spans) - 1, envelope)
                        recorder.end_op(root_span)
                    hit = envelope.get("store") == "hit"
                    charge("hit" if hit else "miss")
                    if timed:
                        grades[traced] += 1
                        hits[traced] += hit
                        if not traced:
                            latencies_ms.append(elapsed * 1000.0)
                    log.append(("grade", pair_index, envelope))
                payload = edits[state]
                root_span = recorder.begin_op(-1, "edit") if traced else None
                started = perf_counter()
                try:
                    reply = client.mutate(payload)
                except (ServerError, OSError) as exc:
                    reply = {"transport_error": str(exc)}
                elapsed = perf_counter() - started
                if root_span is not None:
                    recorder.end_op(root_span)
                charge("edit")
                if timed:
                    edit_count += traced
                    if traced:
                        purged += reply.get("purged_grades", 0)
                        for worker in reply.get("workers", ()):
                            for key in delta:
                                delta[key] += worker.get("delta", {}).get(key, 0)
                    else:
                        edit_ms.append(elapsed * 1000.0)
                log.append(("edit", payload, reply))
                state = 1 - state

        # Warm-up: misses, hits and edits, discarded.
        one_round(0, False, timed=False, cycles=2)
        rounds = 0
        while rounds < MIN_ROUNDS or wall[False] + wall[True] < seconds:
            traced = traced_run and rounds % 2 == 1
            if traced:
                trace_before = scrape(client)
                recorder.wrap("repro.server.client.GradingClient.grade", "server.client", "server")
                recorder.wrap("repro.server.client.GradingClient.mutate", "server.edit", "server")
            pids[:] = [os.getpid(), *daemon.pids()]
            probe.start()
            started = perf_counter()
            one_round(rounds + 1, traced, timed=True)
            wall[traced] += perf_counter() - started
            probe.stop()
            if traced:
                recorder.unwrap_all()
                after = scrape(client)
                for key, value in after.items():
                    metrics_delta[key] = metrics_delta.get(key, 0.0) + value - trace_before.get(key, 0.0)
            rounds += 1
        rss = daemon.peak_rss_mb()
    finally:
        if daemon is not None:
            daemon.stop()
        shutil.rmtree(workdir, ignore_errors=True)

    started = perf_counter()
    replay(log, pairs, report)
    print(
        f"# http-class: {rounds} rounds, set-up {sum(setups.raw):.1f}s, "
        f"timed {wall[False] + wall[True]:.1f}s, replay {perf_counter() - started:.1f}s"
    )
    if traced_run:
        recorder.dump(ledger.OUT_DIR / f"spans-http-class-{seed}.jsonl")
        graded = grades[True]
        layers = ledger.layer_metrics(recorder, graded, wall[True])
        layers["server.client_ms"] = recorder.inclusive_ms("server.client") / graded
        layers["server.edit_ms"] = recorder.inclusive_ms("server.edit") / max(edit_count, 1)
        layers["server.purged_grades"] = purged / max(edit_count, 1)
        for key, value in delta.items():
            layers[f"engine.{key}"] = value / max(edit_count, 1)
        layers["server.store_hit_ratio"] = hits[True] / graded
        for stage, name in (
            ("store_lookup", "server.store_lookup_ms"), ("queue_wait", "server.queue_wait_ms"),
            ("grade", "server.worker_grade_ms"), ("store_write", "server.store_write_ms"),
            ("total", "server.daemon_total_ms"),
        ):
            layers[name] = metrics_delta.get(f"stage.{stage}", 0.0) * 1000.0 / graded
        layers["server.http_other_ms"] = layers["server.client_ms"] - layers["server.daemon_total_ms"]
        ledger.add_cache_deltas(layers, metrics_delta, graded)
        ledger.report_layers(report, layers, grades, wall)
        return report

    end_to_end(
        report, setups=setups, probe=probe, grades=grades[False], wall_s=wall[False],
        latencies_ms=latencies_ms, rss_mb=rss,
    )
    report.latency("grade_p99_ms", latencies_ms, 0.99, result=False)
    report.latency("edit_p50_ms", edit_ms, 0.5, result=False)
    # The class mix is an assumption (see the module docstring); these say
    # how much of the throughput each kind of operation accounts for.
    report.metric("store_hit_ratio", hits[False] / grades[False], "ratio", grades[False], result=False)
    cpu_total = sum(cpu_by_kind.values())
    for kind, cpu in cpu_by_kind.items():
        report.metric(f"{kind}_cpu_share", cpu / cpu_total, "ratio", grades[False], result=False)
    return report


def replay(log: list[tuple], pairs: list[inputs.Pair], report: Report) -> None:
    """Regrade in process, applying the same edits in the same order, and compare.

    Envelopes are compared with ``store``, ``wall_time`` and ``trace`` aside.
    Each distinct (pair, dataset state) is graded once in process and its
    verdict and witness checked against the oracle.
    """
    service = GradingService(DatasetRegistry(), default_dataset=DATASET, default_seed=DATASET_SEED)
    instance = service.handle_for().instance
    expected: dict[tuple[int, int], dict] = {}
    state = 0
    for event in log:
        report.attempted += 1
        if event[0] == "edit":
            _, payload, reply = event
            service.mutate(payload)
            state = 1 - state
            if "transport_error" in reply or "error" in reply:
                _fail(report, f"edit {payload} failed: {reply}")
            continue
        _, pair_index, envelope = event
        pair = pairs[pair_index]
        key = (pair_index, state)
        if key not in expected:
            graded = service.submit(SubmissionRequest(pair.correct, pair.test))
            expected[key] = graded.to_dict(include_timings=False)
            for failure in check_grades(
                instance, [(pair, graded.outcome)], dataset=DATASET, seed=DATASET_SEED, explain=True
            ):
                _fail(report, f"(in-process replay, edited row present: {bool(state)}) {failure}")
        got = {k: v for k, v in envelope.items() if k not in ("store", "wall_time", "trace")}
        if got != expected[key]:
            _fail(
                report,
                f"{DATASET} seed={DATASET_SEED} {pair.label}: daemon envelope differs from in-process "
                f"grade (edited row present: {bool(state)}): {str(got)[:300]}\n  repro: "
                + repro_line(pair, DATASET, DATASET_SEED),
            )


def _fail(report: Report, message: str) -> None:
    report.failed += 1
    report.failures.append(message)
