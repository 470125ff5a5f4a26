"""A grading worker must not outlive a daemon that was SIGKILLed.

Workers ignore SIGTERM and block on their task queue, so before they watched
their parent a ``kill -9`` of ``repro serve`` left the worker (and with it
the multiprocessing resource tracker) running forever.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

pytestmark = pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="reads the process table from /proc"
)

SRC = Path(__file__).resolve().parents[1] / "src"


def _stat(pid: int) -> tuple[str, int] | None:
    """(state, parent pid) of a live process, None once it is gone."""
    try:
        text = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    fields = text.rsplit(")", 1)[1].split()
    return fields[0], int(fields[1])


def _alive(pid: int) -> bool:
    stat = _stat(pid)
    return stat is not None and stat[0] != "Z"


def _children(pid: int) -> list[int]:
    children = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            stat = _stat(int(entry.name))
            if stat is not None and stat[1] == pid:
                children.append(int(entry.name))
    return children


def _worker_pid(daemon: int) -> int | None:
    for child in _children(daemon):
        try:
            command = Path(f"/proc/{child}/cmdline").read_bytes()
        except OSError:
            continue
        if b"spawn_main" in command:
            return child
    return None


def test_worker_exits_when_daemon_is_sigkilled(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    daemon = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--port", "0", "--workers", "1", "--store", str(tmp_path / "store.sqlite3"),
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
    )
    children: list[int] = []
    try:
        assert "listening on" in daemon.stderr.readline()
        deadline = time.monotonic() + 30.0
        worker = _worker_pid(daemon.pid)
        while worker is None:
            assert time.monotonic() < deadline, "the daemon never started its worker"
            time.sleep(0.05)
            worker = _worker_pid(daemon.pid)
        children = _children(daemon.pid)

        daemon.send_signal(signal.SIGKILL)
        daemon.wait(timeout=10)
        deadline = time.monotonic() + 5.0
        while _alive(worker):
            assert time.monotonic() < deadline, f"worker {worker} outlived its daemon"
            time.sleep(0.05)
        # The resource tracker holds a pipe only its two clients write to, so
        # it follows the worker out.
        while any(_alive(child) for child in children):
            assert time.monotonic() < deadline, "a child process outlived the daemon"
            time.sleep(0.05)
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait()
        for child in children:
            if _alive(child):
                os.kill(child, signal.SIGKILL)
        daemon.stderr.close()
