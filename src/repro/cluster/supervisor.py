"""Boot and supervise an N-shard grading cluster on one host.

``repro cluster`` uses :class:`ClusterSupervisor` to spawn one ``repro serve``
subprocess per shard, all sharing the same ``name=url`` peer map, and then
watches them the way the in-daemon worker pool watches its worker processes:
a shard that dies is logged and (optionally) respawned on the same name and
port, so placement is untouched by the restart.

The supervisor is also the harness for failure drills: :meth:`kill_shard`
SIGKILLs one daemon mid-run — no drain, no goodbye — which is exactly the
failure the membership layer's suspect/down machinery and the forwarders'
local fallback exist for.  Benchmarks and the CI cluster-smoke job both
drive drills through this class rather than shelling out ad hoc.
"""

from __future__ import annotations

import logging
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

from repro.errors import ReproError

log = logging.getLogger(__name__)


def free_port(host: str = "127.0.0.1") -> int:
    """Ask the kernel for a free TCP port (raceable, fine for tests/benches)."""
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind((host, 0))
        return sock.getsockname()[1]


@dataclass
class ShardSpec:
    """One shard of the cluster: a logical name bound to a host:port."""

    name: str
    host: str
    port: int

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def peer_spec(self) -> str:
        return f"{self.name}={self.url}"


@dataclass
class _Shard:
    spec: ShardSpec
    process: subprocess.Popen | None = None
    restarts: int = 0
    killed: bool = field(default=False)  # deliberately killed; don't respawn


class ClusterSupervisor:
    """Spawns, monitors and tears down a set of grading-daemon subprocesses."""

    def __init__(
        self,
        shards: int = 3,
        *,
        host: str = "127.0.0.1",
        ports: Sequence[int] | None = None,
        workers: int = 2,
        store_dir: str | Path | None = None,
        warm_datasets: Sequence[str] = (),
        max_queue: int = 64,
        restart: bool = True,
        extra_args: Sequence[str] = (),
        verbose: bool = False,
    ) -> None:
        if shards < 1:
            raise ReproError("a cluster needs at least one shard")
        if ports is not None and len(ports) != shards:
            raise ReproError(f"need exactly {shards} ports, got {len(ports)}")
        port_list = list(ports) if ports is not None else [
            free_port(host) for _ in range(shards)
        ]
        self.specs = [
            ShardSpec(name=f"shard-{index}", host=host, port=port)
            for index, port in enumerate(port_list)
        ]
        self.workers = workers
        self.store_dir = Path(store_dir) if store_dir is not None else None
        self.warm_datasets = list(warm_datasets)
        self.max_queue = max_queue
        self.restart = restart
        self.extra_args = list(extra_args)
        self.verbose = verbose
        self._shards = {spec.name: _Shard(spec) for spec in self.specs}
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._watch_thread: threading.Thread | None = None

    # -- composition ---------------------------------------------------------

    @property
    def urls(self) -> list[str]:
        return [spec.url for spec in self.specs]

    @property
    def peer_specs(self) -> list[str]:
        return [spec.peer_spec for spec in self.specs]

    def _command(self, spec: ShardSpec) -> list[str]:
        argv = [
            sys.executable,
            "-m",
            "repro.cli",
            "serve",
            "--host",
            spec.host,
            "--port",
            str(spec.port),
            "--workers",
            str(self.workers),
            "--max-queue",
            str(self.max_queue),
            "--cluster-self",
            spec.name,
        ]
        for peer in self.peer_specs:
            argv += ["--peer", peer]
        if self.store_dir is not None:
            argv += ["--store", str(self.store_dir / f"{spec.name}.sqlite3")]
        else:
            argv += ["--store", ":memory:"]  # shards must never share one file
        for dataset in self.warm_datasets:
            argv += ["--warm", dataset]
        if self.verbose:
            argv.append("--verbose")
        argv += self.extra_args
        return argv

    def _spawn(self, shard: _Shard) -> None:
        env = dict(os.environ)
        src_root = str(Path(__file__).resolve().parents[2])
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            src_root if not existing else src_root + os.pathsep + existing
        )
        if self.store_dir is not None:
            self.store_dir.mkdir(parents=True, exist_ok=True)
        shard.process = subprocess.Popen(
            self._command(shard.spec),
            env=env,
            stdout=None if self.verbose else subprocess.DEVNULL,
            stderr=None if self.verbose else subprocess.DEVNULL,
        )
        log.info(
            "spawned %s (pid %d) on %s",
            shard.spec.name,
            shard.process.pid,
            shard.spec.url,
        )

    # -- lifecycle -----------------------------------------------------------

    def start(self, *, wait_healthy: bool = True, timeout: float = 60.0) -> "ClusterSupervisor":
        for shard in self._shards.values():
            self._spawn(shard)
        if wait_healthy:
            self.wait_healthy(timeout=timeout)
        if self.restart:
            self._watch_thread = threading.Thread(
                target=self._watch, name="repro-cluster-watch", daemon=True
            )
            self._watch_thread.start()
        return self

    def wait_healthy(self, *, timeout: float = 60.0) -> None:
        """Block until every shard answers ``/healthz`` (or raise)."""
        from repro.server.client import GradingClient, ServerError

        deadline = time.monotonic() + timeout
        for spec in self.specs:
            client = GradingClient(spec.url, timeout=5.0, retries=0)
            try:
                while True:
                    shard = self._shards[spec.name]
                    if shard.process is not None and shard.process.poll() is not None:
                        raise ReproError(
                            f"shard {spec.name} exited with code "
                            f"{shard.process.returncode} during startup"
                        )
                    try:
                        client.health()
                        break
                    except ServerError:
                        if time.monotonic() > deadline:
                            raise ReproError(
                                f"shard {spec.name} ({spec.url}) not healthy "
                                f"after {timeout:.0f}s"
                            ) from None
                        time.sleep(0.1)
            finally:
                client.close()

    def _watch(self) -> None:
        while not self._stop.wait(0.5):
            try:
                with self._lock:
                    dead = [
                        shard
                        for shard in self._shards.values()
                        if not shard.killed
                        and shard.process is not None
                        and shard.process.poll() is not None
                    ]
                for shard in dead:
                    log.warning(
                        "shard %s exited with code %s; respawning",
                        shard.spec.name,
                        shard.process.returncode if shard.process else None,
                    )
                    shard.restarts += 1
                    self._spawn(shard)
            except Exception:  # noqa: BLE001 — the watchdog must survive
                log.exception("cluster watchdog sweep failed; continuing")

    def kill_shard(self, name: str, *, respawn: bool = False) -> int:
        """SIGKILL one shard (failure drill).  Returns the killed pid."""
        with self._lock:
            shard = self._shards.get(name)
            if shard is None or shard.process is None:
                raise ReproError(f"unknown or unstarted shard {name!r}")
            shard.killed = not respawn
            pid = shard.process.pid
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        shard.process.wait(timeout=10.0)
        log.info("killed shard %s (pid %d)", name, pid)
        return pid

    def poll(self) -> dict[str, Any]:
        """Liveness snapshot of every shard process."""
        with self._lock:
            return {
                name: {
                    "pid": shard.process.pid if shard.process else None,
                    "running": (
                        shard.process is not None and shard.process.poll() is None
                    ),
                    "restarts": shard.restarts,
                    "url": shard.spec.url,
                }
                for name, shard in self._shards.items()
            }

    def stop(self, *, timeout: float = 15.0) -> None:
        """SIGTERM every shard and wait; SIGKILL stragglers."""
        self._stop.set()
        if self._watch_thread is not None:
            self._watch_thread.join(timeout=2.0)
        with self._lock:
            processes = [
                shard.process
                for shard in self._shards.values()
                if shard.process is not None and shard.process.poll() is None
            ]
        for process in processes:
            try:
                process.terminate()
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + timeout
        for process in processes:
            remaining = max(0.1, deadline - time.monotonic())
            try:
                process.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=5.0)

    def __enter__(self) -> "ClusterSupervisor":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.stop()


__all__ = ["ClusterSupervisor", "ShardSpec", "free_port"]
