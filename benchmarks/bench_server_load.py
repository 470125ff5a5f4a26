"""Grading-daemon load: HTTP equivalence, persistent-store speedup, throughput.

The first end-to-end *traffic* number in the repo: the full course workload
(a simulated class of ``CLASS_SIZE`` students × 8 questions, mistakes
repeating across students as in §7.1) graded through the network path —
client → HTTP frontend → worker pool → engine → SQLite result store — under
closed-loop load at 1/4/16/64 concurrent clients.

Three claims are checked, not just timed:

1. **Equivalence** — every grade served over HTTP is bit-identical (timings
   aside) to in-process :class:`~repro.api.GradingService` grading of the
   same workload.
2. **Warm-store speedup** — re-submitting the identical 200-submission batch
   against a warm persistent store is ≥ 5× faster than the cold server run
   that computed it (in practice orders of magnitude).
3. **Restart durability** — the warm numbers come from the *store*, not
   process memory: each concurrency level's warm pass runs against a server
   whose workers never graded those submissions.

Run directly::

    PYTHONPATH=src python benchmarks/bench_server_load.py

Environment knobs: ``REPRO_BENCH_CLASS_SIZE`` (default 25 → 200 submissions),
``REPRO_BENCH_CONCURRENCY`` (comma list, default ``1,4,16,64``),
``REPRO_BENCH_SERVER_WORKERS`` (default 2).
"""

from __future__ import annotations

import os
import random
import tempfile
import threading
import time
from pathlib import Path

from repro.api import GradingService, SubmissionRequest
from repro.server import GradingClient, GradingServer, ServerConfig
from repro.workload import course_questions

DATASET = "university:40"
SEED = 2018
CLASS_SIZE = int(os.environ.get("REPRO_BENCH_CLASS_SIZE", "25"))
CONCURRENCY = tuple(
    int(c) for c in os.environ.get("REPRO_BENCH_CONCURRENCY", "1,4,16,64").split(",")
)
SERVER_WORKERS = int(os.environ.get("REPRO_BENCH_SERVER_WORKERS", "2"))


def workload(seed: int = 7) -> list[SubmissionRequest]:
    """CLASS_SIZE students × 8 questions; mistakes repeat across students."""
    rng = random.Random(seed)
    requests = []
    for student in range(CLASS_SIZE):
        for question in course_questions():
            candidates = (question.correct_text, *question.wrong_texts)
            submitted = question.correct_text if rng.random() < 0.5 else rng.choice(candidates)
            requests.append(
                SubmissionRequest(
                    question.correct_text,
                    submitted,
                    id=f"student{student}/{question.key}",
                )
            )
    return requests


def boot(store_path: Path) -> tuple[GradingServer, str]:
    server = GradingServer(
        ServerConfig(
            workers=SERVER_WORKERS,
            default_dataset=DATASET,
            default_seed=SEED,
            store_path=store_path,
            warm_datasets=(DATASET,),
            max_queue=256,
        )
    ).start()
    url = f"http://127.0.0.1:{server.port}"
    GradingClient(url).wait_until_healthy(60.0)
    return server, url


def strip(envelope: dict) -> dict:
    """The deterministic part of a server grade envelope."""
    return {k: v for k, v in envelope.items() if k not in ("store", "wall_time")}


def closed_loop(url: str, requests: list[SubmissionRequest], clients: int) -> tuple[float, list[dict]]:
    """Each client thread pulls from a shared queue and grades one-by-one."""
    work = list(enumerate(requests))
    results: list[dict | None] = [None] * len(requests)
    lock = threading.Lock()

    def run_client() -> None:
        with GradingClient(url) as client:
            while True:
                with lock:
                    if not work:
                        return
                    index, request = work.pop()
                results[index] = client.grade(request)

    threads = [threading.Thread(target=run_client) for _ in range(clients)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    assert all(r is not None for r in results)
    return elapsed, results  # type: ignore[return-value]


def run_benchmark() -> dict:
    requests = workload()
    print(
        f"course workload: {len(requests)} submissions "
        f"({CLASS_SIZE} students x {len(course_questions())} questions) "
        f"on {DATASET}, server workers={SERVER_WORKERS}"
    )

    # In-process baseline: the batch API the server wraps.
    service = GradingService(default_dataset=DATASET, default_seed=SEED)
    start = time.perf_counter()
    baseline = service.submit_batch(requests)
    in_process_time = time.perf_counter() - start
    expected = [graded.to_dict(include_timings=False) for graded in baseline]
    print(
        f"in-process submit_batch: {in_process_time:.3f}s "
        f"({len(requests) / in_process_time:.0f} subs/s)"
    )

    rows = []
    equivalence_checked = False
    with tempfile.TemporaryDirectory(prefix="repro-bench-server") as tmp:
        # -- batch endpoint: cold vs warm store (fresh store, fresh server) --
        server, url = boot(Path(tmp) / "batch-store.sqlite3")
        try:
            with GradingClient(url) as client:
                start = time.perf_counter()
                cold = client.grade_batch(requests)
                cold_time = time.perf_counter() - start
                assert [strip(e) for e in cold] == expected, (
                    "HTTP grades differ from in-process grading"
                )
                equivalence_checked = True

                start = time.perf_counter()
                warm = client.grade_batch(requests)
                warm_time = time.perf_counter() - start
                assert [strip(e) for e in warm] == expected
                hits = sum(1 for e in warm if e["store"] == "hit")
        finally:
            server.shutdown()
        speedup = cold_time / warm_time
        print(
            f"grade_batch over HTTP: cold {cold_time:.3f}s "
            f"({len(requests) / cold_time:.0f} subs/s), "
            f"warm {warm_time:.3f}s ({len(requests) / warm_time:.0f} subs/s), "
            f"speedup {speedup:.1f}x, warm store hits {hits}/{len(requests)}"
        )
        assert hits == len(requests), "warm batch should be served fully from the store"
        assert speedup >= 5.0, (
            f"warm store must be >=5x faster than a cold server, got {speedup:.1f}x"
        )

        # -- closed-loop /v1/grade at increasing client concurrency ----------
        print(f"\n{'clients':>8} {'cold s':>8} {'cold sub/s':>11} {'warm s':>8} {'warm sub/s':>11} {'hits':>6}")
        for clients in CONCURRENCY:
            store = Path(tmp) / f"loop-store-{clients}.sqlite3"
            server, url = boot(store)
            try:
                cold_elapsed, cold_results = closed_loop(url, requests, clients)
                assert [strip(e) for e in cold_results] == expected
            finally:
                server.shutdown()
            # Restart on the same store: the warm pass measures durability,
            # not worker memory.
            server, url = boot(store)
            try:
                warm_elapsed, warm_results = closed_loop(url, requests, clients)
                assert [strip(e) for e in warm_results] == expected
                warm_hits = sum(1 for e in warm_results if e["store"] == "hit")
            finally:
                server.shutdown()
            assert warm_hits >= 0.9 * len(requests), (
                f"expected >=90% store hits after restart, got {warm_hits}"
            )
            rows.append(
                {
                    "clients": clients,
                    "cold_time": cold_elapsed,
                    "cold_throughput": len(requests) / cold_elapsed,
                    "warm_time": warm_elapsed,
                    "warm_throughput": len(requests) / warm_elapsed,
                    "warm_hits": warm_hits,
                }
            )
            print(
                f"{clients:>8} {cold_elapsed:>8.3f} {len(requests) / cold_elapsed:>11.0f} "
                f"{warm_elapsed:>8.3f} {len(requests) / warm_elapsed:>11.0f} "
                f"{warm_hits:>6}"
            )

    assert equivalence_checked
    return {"batch_speedup": speedup, "rows": rows}


def test_server_load_smoke():
    """Pytest entry point (kept tiny: one concurrency level)."""
    global CLASS_SIZE, CONCURRENCY
    original = CLASS_SIZE, CONCURRENCY
    CLASS_SIZE, CONCURRENCY = 6, (4,)
    try:
        results = run_benchmark()
        assert results["batch_speedup"] >= 5.0
    finally:
        CLASS_SIZE, CONCURRENCY = original


if __name__ == "__main__":
    _result = run_benchmark()
    from _summary import write_summary

    print(f"wrote {write_summary('server_load', _result)}")
