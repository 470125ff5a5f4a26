"""Worker pool drills: a dead worker must never wedge the pool.

Each worker owns a pipe created with its process, and the pool's collector
waits on every pipe and process sentinel at once.  A SIGKILLed worker is
therefore seen at once: whatever it owed fails as ``internal_error``, it is
respawned on a fresh pipe, and it replays the dataset edits it missed before
its first grade.  Many threads write into the same pipes concurrently, so a
stress test checks that no request or reply is lost or garbled.
"""

from __future__ import annotations

import os
import signal
import sys
import threading
import time
from multiprocessing.connection import wait

import pytest

from repro.server.workers import WorkerConfig, WorkerPool

pytestmark = pytest.mark.skipif(not hasattr(signal, "SIGKILL"), reason="needs SIGKILL")

MATCHING = {"correct": "Student", "test": "Student"}
# Equivalent on toy-university as shipped (both are {Mary, John}); the edit
# below gives Jesse an ECON registration, which only the first query sees.
ECON = {
    "correct": "\\project_{name} \\select_{dept = 'ECON'} Registration",
    "test": "\\project_{name} \\select_{course = '208D'} Registration",
}
EDIT = {
    "dataset": "toy-university",
    "operations": [
        {"op": "insert", "relation": "Registration", "values": ["Jesse", "101", "ECON", 70]}
    ],
}


@pytest.fixture
def pool():
    pool = WorkerPool(WorkerConfig(), workers=1)
    yield pool
    pool.close()


def _grade(pool: WorkerPool, payload: dict, timeout: float = 60.0) -> dict:
    return pool.submit(payload, dataset="toy-university", seed=0).result(timeout=timeout)


def _kill_worker(pool: WorkerPool) -> None:
    process = pool._workers[0].process
    os.kill(process.pid, signal.SIGKILL)
    wait([process.sentinel], timeout=5.0)  # the pool's collector reaps it


def _wait_for(condition, timeout: float, what: str) -> None:
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, what
        time.sleep(0.01)


def test_sigkilled_idle_worker_answers_the_next_grade(pool):
    assert _grade(pool, MATCHING)["correct"] is True
    _kill_worker(pool)
    # A grade racing the death itself may fail as internal_error; the drill
    # is the grade after the respawn, which used to hang on the dead
    # worker's queue lock.
    _wait_for(lambda: pool.restarts == 1, 10.0, "the worker was never respawned")
    started = time.monotonic()
    reply = _grade(pool, MATCHING, timeout=10.0)
    assert reply["correct"] is True, reply
    assert time.monotonic() - started < 10.0
    assert pool.restarts == 1
    assert pool.watchdog_errors == 0


def test_sigkilled_busy_worker_fails_its_grade_and_recovers(pool):
    assert _grade(pool, MATCHING)["correct"] is True  # the worker is up
    # A cold university:20000 dataset takes the worker about a second to
    # build and grade, so it is mid-grade when the signal lands.
    slow = pool.submit(
        {**ECON, "dataset": "university:20000"}, dataset="university:20000", seed=0
    )
    time.sleep(0.3)
    _kill_worker(pool)
    reply = slow.result(timeout=5.0)
    assert reply["outcome"]["error_kind"] == "internal_error", reply
    assert "died" in reply["outcome"]["error"]
    assert pool.queue_depth() == 0
    _wait_for(lambda: pool.restarts == 1, 10.0, "the worker was never respawned")
    assert _grade(pool, MATCHING)["correct"] is True


def test_collector_survives_a_respawn_that_raises(pool):
    spawn = pool._spawn
    failures = {"left": 1}

    def flaky(index: int):
        if failures["left"]:
            failures["left"] -= 1
            raise OSError("synthetic respawn failure")
        return spawn(index)

    pool._spawn = flaky
    _kill_worker(pool)
    _wait_for(lambda: pool.watchdog_errors == 1, 10.0, "the failed respawn was not counted")
    _wait_for(lambda: pool.restarts == 1, 10.0, "the worker was never respawned")
    assert pool._collector.is_alive()
    assert _grade(pool, MATCHING)["correct"] is True
    assert pool.watchdog_errors == 1


def test_respawned_worker_replays_missed_edits():
    with WorkerPool(WorkerConfig(), workers=1) as crashed:
        before = _grade(crashed, ECON)
        assert before["correct"] is True
        assert "error" not in crashed.mutate(EDIT)[0]
        _kill_worker(crashed)
        _wait_for(lambda: crashed.restarts == 1, 10.0, "the worker was never respawned")
        after_crash = _grade(crashed, ECON)
    with WorkerPool(WorkerConfig(), workers=1) as steady:
        assert "error" not in steady.mutate(EDIT)[0]
        reference = _grade(steady, ECON)
    assert reference["correct"] is False
    for envelope in (after_crash, reference):
        envelope.pop("grade_time")
        envelope.pop("explain_timings", None)
    assert after_crash == reference


def test_concurrent_submitters_share_the_pipes():
    pairs = [
        {"correct": "Student", "test": "Student"},
        {"correct": "Student", "test": "\\project_{name, major} Student"},
        ECON,
        {**ECON, "test": "\\project_{name} Registration"},
    ]
    expected = []
    with WorkerPool(WorkerConfig(), workers=1) as serial:
        for pair in pairs:
            expected.append(_grade(serial, pair)["outcome"])
    results: dict[tuple[int, int], dict] = {}
    probes: list[int] = []
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        # More workers than cores, and more submitting threads than workers.
        with WorkerPool(WorkerConfig(), workers=3, max_queue=8) as pool:

            def submit(thread: int) -> None:
                for index in range(20):
                    pair = pairs[(thread + index) % len(pairs)]
                    future = pool.submit(
                        {**pair, "id": f"{thread}/{index}"},
                        dataset="toy-university",
                        seed=0,
                        wait=True,
                    )
                    results[(thread, index)] = future.result(timeout=60.0)
                    if index % 7 == 0:  # broadcasts interleave with grades
                        probes.append(len(pool.stats(timeout=30.0)))

            threads = [threading.Thread(target=submit, args=(t,)) for t in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)
                assert not thread.is_alive()
            assert pool.queue_depth() == 0
            assert pool.restarts == 0
    finally:
        sys.setswitchinterval(switch)
    assert len(results) == 6 * 20
    assert probes == [3] * (6 * 3)
    for (thread, index), reply in results.items():
        assert reply["id"] == f"{thread}/{index}"
        assert reply["outcome"] == expected[(thread + index) % len(pairs)]
