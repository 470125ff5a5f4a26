"""Cluster load: owner-routed scale-out, event-loop concurrency, kill drill.

The cluster follow-up to ``bench_server_load.py``: the same simulated course
workload (``CLASS_SIZE`` students × 8 questions), now spread over several
``(dataset, seed)`` grading keys chosen so a 4-peer consistent-hash ring
splits them evenly, graded through real ``repro serve`` subprocesses booted
by :class:`~repro.cluster.supervisor.ClusterSupervisor` and driven by the
owner-routed :class:`~repro.cluster.client.ClusterClient`.

Four claims are checked, not just timed:

1. **Equivalence** — every grade served by the cluster (any shard count,
   before and during failure) is bit-identical (store/wall-time fields
   aside) to in-process :class:`~repro.api.GradingService` grading.
2. **Event-loop fix** — a *single* shard's warm throughput at 64 closed-loop
   clients no longer drops below its 16-client figure (the PR 4
   thread-per-connection server lost ~25% there; the ``selectors`` event
   loop must not).
3. **Scale-out** — 4 shards beat 1 shard on warm throughput.  The asserted
   floor self-calibrates to the hardware: the headline "4 shards ≥ 3× one
   shard" claim needs ≥ 6 usable cores (4 shard frontends + the load
   generators); on smaller machines the bench still rejects collapse, at a
   floor matched to the parallelism that physically exists (see
   :func:`required_scaling`).  ``REPRO_BENCH_MIN_SCALING`` overrides.
4. **Kill-one-shard drill** — SIGKILL one daemon mid-run: no request fails
   permanently, outcomes stay bit-identical, and after the heartbeat
   timeout every key has exactly one live owner agreed on by all survivors.

Run directly::

    PYTHONPATH=src python benchmarks/bench_cluster_load.py

Environment knobs: ``REPRO_BENCH_CLASS_SIZE`` (default 25 → 200 submissions),
``REPRO_BENCH_SERVER_WORKERS`` (grading workers per shard, default 2),
``REPRO_BENCH_SINGLE_CLIENTS`` (default ``16,64``),
``REPRO_BENCH_CLUSTER_SHARDS`` (default 4), ``REPRO_BENCH_CLUSTER_CLIENTS``
(default 64), ``REPRO_BENCH_CLIENT_PROCS`` (load-generator processes,
default ``min(4, cores)``), ``REPRO_BENCH_MIN_SCALING``,
``REPRO_BENCH_NO_DROP`` (default 0.85).
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from repro.api import GradingService, SubmissionRequest
from repro.cluster.client import ClusterClient
from repro.cluster.ring import HashRing, placement_key
from repro.cluster.supervisor import ClusterSupervisor
from repro.server.client import GradingClient
from repro.workload import course_questions

DATASET = "university:40"
CLASS_SIZE = int(os.environ.get("REPRO_BENCH_CLASS_SIZE", "25"))
SERVER_WORKERS = int(os.environ.get("REPRO_BENCH_SERVER_WORKERS", "2"))
SINGLE_CLIENTS = tuple(
    int(c) for c in os.environ.get("REPRO_BENCH_SINGLE_CLIENTS", "16,64").split(",")
)
CLUSTER_SHARDS = int(os.environ.get("REPRO_BENCH_CLUSTER_SHARDS", "4"))
CLUSTER_CLIENTS = int(os.environ.get("REPRO_BENCH_CLUSTER_CLIENTS", "64"))
NO_DROP = float(os.environ.get("REPRO_BENCH_NO_DROP", "0.85"))
MAX_QUEUE = 256


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


CLIENT_PROCS = int(
    os.environ.get("REPRO_BENCH_CLIENT_PROCS", str(min(4, usable_cores())))
)


def required_scaling(cores: int) -> float:
    """The asserted 4-vs-1-shard warm floor for this machine.

    Shards are separate processes, so warm serving parallelises across
    cores — but only across cores that exist.  4 shard frontends plus the
    closed-loop load generators need ~6 cores before the headline 3× is
    physically reachable; below that the bench's job is to reject
    *collapse* (sharding overhead eating the throughput), not to demand
    parallelism the hardware cannot provide.
    """
    if cores >= 6:
        return 3.0
    if cores >= 4:
        return 1.6
    if cores >= 2:
        return 0.9
    # One core: 4 shards = pure process oversubscription.  Anything above
    # a collapse (scheduler thrash costing ~4x) is acceptable here.
    return 0.25


def balanced_seeds(shard_names: list[str], per_shard: int, start: int = 2018) -> list[int]:
    """Seeds whose ``(DATASET, seed)`` keys split exactly evenly over the ring.

    Placement is SHA-256-deterministic, so the owner of every candidate key
    is known before any daemon boots — the bench simply scans seeds until
    each shard owns ``per_shard`` of them.
    """
    ring = HashRing(shard_names, virtual_nodes=64)
    want = {name: per_shard for name in shard_names}
    seeds: list[int] = []
    seed = start
    while any(count > 0 for count in want.values()):
        owner = ring.owner(placement_key(DATASET, seed))
        assert owner is not None
        if want[owner] > 0:
            want[owner] -= 1
            seeds.append(seed)
        seed += 1
    return sorted(seeds)


def build_workload(
    class_size: int, seeds: list[int], *, rng_seed: int = 7
) -> list[SubmissionRequest]:
    """class_size students × 8 questions, students spread over the seeds."""
    rng = random.Random(rng_seed)
    requests = []
    for student in range(class_size):
        seed = seeds[student % len(seeds)]
        for question in course_questions():
            candidates = (question.correct_text, *question.wrong_texts)
            submitted = question.correct_text if rng.random() < 0.5 else rng.choice(candidates)
            requests.append(
                SubmissionRequest(
                    question.correct_text,
                    submitted,
                    dataset=DATASET,
                    seed=seed,
                    id=f"student{student}/{question.key}",
                )
            )
    return requests


def in_process_baseline(requests: list[SubmissionRequest]) -> tuple[list[dict], float]:
    service = GradingService(default_dataset=DATASET)
    start = time.perf_counter()
    graded = service.submit_batch(requests)
    elapsed = time.perf_counter() - start
    return [g.to_dict(include_timings=False) for g in graded], elapsed


def strip(envelope: dict) -> dict:
    """The deterministic part of a server grade envelope."""
    return {k: v for k, v in envelope.items() if k not in ("store", "wall_time")}


# -- load generation ----------------------------------------------------------
#
# Closed-loop clients in *separate processes*: a single Python load generator
# is GIL-bound and would cap a multi-shard cluster at roughly one core's
# worth of client work, under-measuring exactly the configurations this
# bench exists to measure.  Each child owns a slice of the workload, runs
# ``threads`` ClusterClient threads over it, and times itself from the GO
# handshake (so child startup cost never pollutes the throughput number).

_CLIENT_DRIVER = r"""
import json, sys, threading, time
from repro.cluster.client import ClusterClient

spec = json.load(open(sys.argv[1]))
urls, payloads, threads_wanted = spec["urls"], spec["payloads"], spec["threads"]
work = list(enumerate(payloads))
results = [None] * len(payloads)
lock = threading.Lock()

def run_client(client):
    with client:
        while True:
            with lock:
                if not work:
                    return
                index, payload = work.pop()
            results[index] = client.grade(payload)

# Topology fetch and socket setup happen *before* the GO handshake so the
# timed window measures steady-state grading, not connection ramp-up.
clients = [ClusterClient(urls) for _ in range(threads_wanted)]
threads = [threading.Thread(target=run_client, args=(c,)) for c in clients]
print("READY", flush=True)
assert sys.stdin.readline().strip() == "GO"
start = time.perf_counter()
for t in threads:
    t.start()
for t in threads:
    t.join()
elapsed = time.perf_counter() - start
json.dump({"elapsed": elapsed, "results": results}, open(sys.argv[2], "w"))
print("DONE", flush=True)
"""


def closed_loop(
    urls: list[str],
    payloads: list[dict],
    clients: int,
    *,
    procs: int | None = None,
    repeat: int = 1,
) -> tuple[float, list[dict]]:
    """Grade ``payloads`` (``repeat`` passes' worth, interleaved) closed-loop
    over ``clients`` threads in ``procs`` processes; returns (elapsed
    seconds, results in submission order, repeated)."""
    procs = CLIENT_PROCS if procs is None else procs
    payloads = payloads * repeat
    procs = max(1, min(procs, clients, len(payloads)))
    chunks: list[list[tuple[int, dict]]] = [[] for _ in range(procs)]
    for index, payload in enumerate(payloads):
        chunks[index % procs].append((index, payload))
    threads_per_proc = max(1, clients // procs)

    env = dict(os.environ)
    src_root = str(Path(__file__).resolve().parents[1] / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src_root if not existing else src_root + os.pathsep + existing

    with tempfile.TemporaryDirectory(prefix="repro-bench-clients") as tmp:
        children = []
        for rank, chunk in enumerate(chunks):
            spec_path = Path(tmp) / f"spec-{rank}.json"
            out_path = Path(tmp) / f"out-{rank}.json"
            spec_path.write_text(
                json.dumps(
                    {
                        "urls": urls,
                        "payloads": [payload for _, payload in chunk],
                        "threads": threads_per_proc,
                    }
                )
            )
            process = subprocess.Popen(
                [sys.executable, "-c", _CLIENT_DRIVER, str(spec_path), str(out_path)],
                env=env,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
            children.append((process, chunk, out_path))
        for process, _, _ in children:
            line = process.stdout.readline().strip()
            if line != "READY":
                process.kill()
                raise RuntimeError(
                    f"load generator failed to start: {process.stderr.read()}"
                )
        for process, _, _ in children:
            process.stdin.write("GO\n")
            process.stdin.flush()
        results: list[dict | None] = [None] * len(payloads)
        elapsed = 0.0
        for process, chunk, out_path in children:
            if process.wait(timeout=900) != 0:
                raise RuntimeError(f"load generator failed: {process.stderr.read()}")
            report = json.loads(out_path.read_text())
            elapsed = max(elapsed, report["elapsed"])
            for (index, _), envelope in zip(chunk, report["results"]):
                results[index] = envelope
    assert all(r is not None for r in results)
    return elapsed, results  # type: ignore[return-value]


def measure(
    label: str,
    urls: list[str],
    payloads: list[dict],
    expected: list[dict],
    clients: int,
    *,
    warm: bool,
) -> float:
    # Warm passes are fast and short; three interleaved repeats of the
    # workload give the measurement a window wide enough to mean something.
    repeat = 3 if warm else 1
    elapsed, results = closed_loop(urls, payloads, clients, repeat=repeat)
    assert [strip(e) for e in results] == expected * repeat, f"{label}: grades differ"
    throughput = len(results) / elapsed
    # Identical submissions in flight concurrently coalesce onto one store
    # hit; both labels mean "no grading work was done".
    hits = sum(1 for e in results if e["store"] in ("hit", "coalesced"))
    print(
        f"  {label:<34} {elapsed:>7.3f}s {throughput:>8.0f} subs/s"
        f"  store hits {hits}/{len(results)}"
    )
    if warm:
        assert hits >= 0.98 * len(results), (
            f"{label}: warm pass must be served from the stores, got {hits} hits"
        )
    return throughput


def cluster_metrics(urls: list[str]) -> None:
    """Print the per-shard repro_cluster_* routing counters."""
    for url in urls:
        with GradingClient(url) as client:
            lines = [
                line
                for line in client.metrics_text().splitlines()
                if line.startswith("repro_cluster_")
                and ("_total" in line or line.startswith("repro_cluster_ring_size"))
                and not line.startswith("#")
            ]
        print(f"  {url}: " + "; ".join(lines))


# -- the kill-one-shard drill -------------------------------------------------


def kill_drill(
    payloads: list[dict],
    expected: list[dict],
    *,
    shards: int = 3,
    clients: int = 8,
    convergence_timeout: float = 20.0,
) -> None:
    """SIGKILL the busiest shard mid-run; assert zero permanent failures,
    bit-identical outcomes, and post-timeout live-owner agreement."""
    keys = sorted({(p["dataset"], p["seed"]) for p in payloads})
    shard_names = [f"shard-{i}" for i in range(shards)]
    ring = HashRing(shard_names, virtual_nodes=64)
    owned: dict[str, int] = {name: 0 for name in shard_names}
    for dataset, seed in keys:
        owned[ring.owner(placement_key(dataset, seed))] += 1
    victim = max(owned, key=lambda name: owned[name])
    print(
        f"  {len(keys)} keys over {shards} shards {dict(sorted(owned.items()))}; "
        f"victim: {victim}"
    )
    assert owned[victim] > 0, "the drill must kill a shard that owns keys"

    with ClusterSupervisor(
        shards, workers=SERVER_WORKERS, max_queue=MAX_QUEUE, restart=False
    ) as supervisor:
        supervisor.start(wait_healthy=True)
        urls = supervisor.urls
        survivors = [
            spec.url for spec in supervisor.specs if spec.name != victim
        ]
        results: list[dict | None] = [None] * len(payloads)
        work = list(enumerate(payloads))
        lock = threading.Lock()
        progress = {"done": 0}
        kill_when = max(1, len(payloads) // 4)
        kill_now = threading.Event()

        def run_client() -> None:
            with ClusterClient(urls) as client:
                while True:
                    with lock:
                        if not work:
                            return
                        index, payload = work.pop()
                    results[index] = client.grade(payload)
                    with lock:
                        progress["done"] += 1
                        if progress["done"] >= kill_when:
                            kill_now.set()

        threads = [threading.Thread(target=run_client) for _ in range(clients)]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        assert kill_now.wait(timeout=300), "drill stalled before the kill point"
        pid = supervisor.kill_shard(victim)
        print(f"  SIGKILLed {victim} (pid {pid}) after {progress['done']} grades")
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - start
        assert all(r is not None for r in results), "a request failed permanently"
        assert [strip(e) for e in results] == expected, (  # type: ignore[arg-type]
            "grades during the drill differ from in-process grading"
        )
        print(
            f"  drill: {len(payloads)} grades in {elapsed:.3f}s "
            f"({len(payloads) / elapsed:.0f} subs/s), zero failures, bit-identical"
        )

        # After the heartbeat timeout every survivor must agree the victim is
        # out of the live ring and every key must have exactly one live owner
        # (the same one on every survivor — placement is deterministic).
        deadline = time.monotonic() + convergence_timeout
        views: dict[str, dict] = {}
        for url in survivors:
            with GradingClient(url) as client:
                while True:
                    health = client.cluster_health()
                    if victim not in health["live"]:
                        views[url] = health
                        break
                    if time.monotonic() > deadline:
                        raise AssertionError(
                            f"{url} still lists {victim} live after "
                            f"{convergence_timeout}s"
                        )
                    time.sleep(0.2)
        owners_seen: dict[tuple[str, int], set[str]] = {key: set() for key in keys}
        for url, health in views.items():
            live_ring = HashRing(
                health["live"], virtual_nodes=int(health["virtual_nodes"])
            )
            for dataset, seed in keys:
                owner = live_ring.owner(placement_key(dataset, seed))
                assert owner is not None and owner in health["live"], (
                    f"{url}: key {(dataset, seed)} has no live owner"
                )
                owners_seen[(dataset, seed)].add(owner)
        assert all(len(owners) == 1 for owners in owners_seen.values()), (
            f"survivors disagree on ownership: {owners_seen}"
        )
        print(
            f"  post-kill: every key regained exactly one live owner, "
            f"survivors agree ({sorted(views[survivors[0]]['live'])})"
        )


# -- stages -------------------------------------------------------------------


def run_benchmark() -> dict:
    cores = usable_cores()
    min_scaling_env = os.environ.get("REPRO_BENCH_MIN_SCALING")
    min_scaling = (
        float(min_scaling_env) if min_scaling_env else required_scaling(cores)
    )
    shard_names = [f"shard-{i}" for i in range(CLUSTER_SHARDS)]
    seeds = balanced_seeds(shard_names, per_shard=2)
    requests = build_workload(CLASS_SIZE, seeds)
    payloads = [request.to_dict() for request in requests]
    print(
        f"course workload: {len(requests)} submissions ({CLASS_SIZE} students x "
        f"{len(course_questions())} questions) over {len(seeds)} (dataset, seed) "
        f"keys on {DATASET}\n"
        f"machine: {cores} usable core(s), {CLIENT_PROCS} load-gen process(es), "
        f"{SERVER_WORKERS} grading workers/shard; asserted 4-vs-1 scaling floor "
        f"{min_scaling:.2f}x"
        + ("" if cores >= 6 else " (the headline 3x claim needs >=6 cores)")
    )

    expected, in_process_time = in_process_baseline(requests)
    print(
        f"in-process submit_batch: {in_process_time:.3f}s "
        f"({len(requests) / in_process_time:.0f} subs/s)"
    )

    # -- stage 1: one shard, the event-loop concurrency claim ----------------
    print("\n[1] single shard (event-loop frontend)")
    single_warm: dict[int, float] = {}
    with ClusterSupervisor(
        1, workers=SERVER_WORKERS, max_queue=MAX_QUEUE
    ) as supervisor:
        supervisor.start(wait_healthy=True)
        urls = supervisor.urls
        measure("cold, 16 clients", urls, payloads, expected, 16, warm=False)
        for clients in SINGLE_CLIENTS:
            single_warm[clients] = measure(
                f"warm, {clients} clients", urls, payloads, expected, clients, warm=True
            )
    low, high = min(SINGLE_CLIENTS), max(SINGLE_CLIENTS)
    assert single_warm[high] >= NO_DROP * single_warm[low], (
        f"single-shard warm throughput dropped at {high} clients: "
        f"{single_warm[high]:.0f} vs {single_warm[low]:.0f} subs/s at {low} "
        f"(floor {NO_DROP:.2f}x) — the event loop must hold concurrency"
    )
    best_single = max(single_warm.values())

    # -- stage 2: N shards, the scale-out claim ------------------------------
    print(f"\n[2] {CLUSTER_SHARDS} shards (owner-routed clients)")
    with ClusterSupervisor(
        CLUSTER_SHARDS, workers=SERVER_WORKERS, max_queue=MAX_QUEUE
    ) as supervisor:
        supervisor.start(wait_healthy=True)
        urls = supervisor.urls
        measure(
            f"cold, {CLUSTER_CLIENTS} clients",
            urls, payloads, expected, CLUSTER_CLIENTS, warm=False,
        )
        cluster_warm = measure(
            f"warm, {CLUSTER_CLIENTS} clients",
            urls, payloads, expected, CLUSTER_CLIENTS, warm=True,
        )
        cluster_metrics(urls)
    scaling = cluster_warm / best_single
    print(
        f"  scale-out: {CLUSTER_SHARDS} shards {cluster_warm:.0f} subs/s vs "
        f"1 shard {best_single:.0f} subs/s = {scaling:.2f}x "
        f"(floor {min_scaling:.2f}x on {cores} core(s))"
    )
    assert scaling >= min_scaling, (
        f"{CLUSTER_SHARDS}-shard warm throughput must be >= {min_scaling:.2f}x "
        f"one shard on this machine, got {scaling:.2f}x"
    )

    # -- stage 3: the kill-one-shard drill -----------------------------------
    print("\n[3] kill-one-shard drill (3 shards, cold, SIGKILL mid-run)")
    kill_drill(payloads, expected)

    return {
        "single_warm": single_warm,
        "cluster_warm": cluster_warm,
        "scaling": scaling,
        "min_scaling": min_scaling,
        "cores": cores,
    }


def test_cluster_load_smoke():
    """Pytest entry point: a 2-shard cold+warm equivalence pass, kept tiny.

    Throughput asserts are deliberately absent — this smoke runs wherever the
    test suite runs, including single-core CI containers where they would
    measure the scheduler, not the cluster.
    """
    seeds = balanced_seeds(["shard-0", "shard-1"], per_shard=2)
    requests = build_workload(3, seeds)
    payloads = [request.to_dict() for request in requests]
    expected, _ = in_process_baseline(requests)
    with ClusterSupervisor(2, workers=1, max_queue=MAX_QUEUE) as supervisor:
        supervisor.start(wait_healthy=True)
        urls = supervisor.urls
        _, cold = closed_loop(urls, payloads, clients=4, procs=1)
        assert [strip(e) for e in cold] == expected
        _, warm = closed_loop(urls, payloads, clients=4, procs=1)
        assert [strip(e) for e in warm] == expected
        hits = sum(1 for e in warm if e["store"] == "hit")
        assert hits >= 0.98 * len(payloads)


if __name__ == "__main__":
    _result = run_benchmark()
    from _summary import write_summary

    print(f"wrote {write_summary('cluster_load', _result)}")
