"""Peer liveness for the grading cluster: heartbeats, states, the live ring.

Inside one daemon, the :mod:`repro.server.workers` collector sees a worker
process die the moment its pipe or sentinel fires, and respawns it; across
daemons there is no such signal, so :class:`ClusterMembership` polls peers
over HTTP (``GET /v1/cluster/health``) and routes around the dead.

Membership is deliberately static-plus-liveness, not gossip: the peer *set*
is configuration (every daemon is booted with the same ``name=url`` list),
and only each peer's *state* is dynamic:

``alive``  → probes answer; the peer owns its ring slice.
``suspect``→ ``suspect_after`` consecutive probe (or forward) failures; the
             peer keeps its slice — requests still try it first — but one
             more failure cascade will take it out.
``down``   → ``down_after`` consecutive failures; the peer is removed from
             the *live ring*, so every key it owned immediately regains a
             live owner (its ring successor) without moving anybody else's
             keys.  A single successful probe brings it straight back.

Two rings are maintained: the **static ring** over the configured peer set
(stable placement, used by the store tier to know where a key's rows
*should* live) and the **live ring** over non-down peers (used for request
routing).  Forward failures feed back into the same failure counters as
heartbeat probes, so a dead peer is usually suspected by the first request
that trips over it, well before the next heartbeat tick.
"""

from __future__ import annotations

import logging
import threading
from dataclasses import dataclass
from time import monotonic
from typing import Any, Callable, Mapping

from repro.cluster.ring import HashRing, placement_key
from repro.errors import ReproError

log = logging.getLogger(__name__)

ALIVE = "alive"
SUSPECT = "suspect"
DOWN = "down"

#: Numeric codes for the ``repro_cluster_peer_state`` gauge.
STATE_CODES = {ALIVE: 0, SUSPECT: 1, DOWN: 2}


def parse_peer_specs(specs: tuple[str, ...] | list[str]) -> dict[str, str]:
    """Parse ``name=http://host:port`` peer specs into a name→URL map."""
    peers: dict[str, str] = {}
    for spec in specs:
        name, sep, url = spec.partition("=")
        name = name.strip()
        url = url.strip()
        if not sep or not name or not url:
            raise ReproError(
                f"peer spec {spec!r} must look like 'shard-0=http://127.0.0.1:9000'"
            )
        if name in peers:
            raise ReproError(f"duplicate peer name {name!r}")
        peers[name] = url
    return peers


@dataclass
class _Peer:
    name: str
    url: str
    state: str = ALIVE
    failures: int = 0
    last_ok: float | None = None


class ClusterMembership:
    """Tracks peer states and exposes the static and live hash rings."""

    def __init__(
        self,
        self_name: str,
        peers: Mapping[str, str],
        *,
        virtual_nodes: int = 64,
        heartbeat_interval: float = 0.5,
        suspect_after: int = 1,
        down_after: int = 3,
        probe_timeout: float = 1.0,
        probe: Callable[[str], Any] | None = None,
    ) -> None:
        if self_name not in peers:
            raise ReproError(
                f"this daemon's name {self_name!r} is not in the peer map "
                f"{sorted(peers)!r}"
            )
        if suspect_after < 1 or down_after < suspect_after:
            raise ReproError("need 1 <= suspect_after <= down_after")
        self.self_name = self_name
        self.virtual_nodes = virtual_nodes
        self.heartbeat_interval = heartbeat_interval
        self.suspect_after = suspect_after
        self.down_after = down_after
        self.probe_timeout = probe_timeout
        self._probe = probe if probe is not None else self._http_probe
        self._lock = threading.Lock()
        self._peers = {name: _Peer(name, url) for name, url in peers.items()}
        self._peers[self_name].last_ok = monotonic()
        self.static_ring = HashRing(peers, virtual_nodes=virtual_nodes)
        self._live_ring = HashRing(peers, virtual_nodes=virtual_nodes)
        self._probe_clients: dict[str, Any] = {}  # heartbeat thread only
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "ClusterMembership":
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._heartbeat_loop, name="repro-heartbeat", daemon=True
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=self.probe_timeout + 2.0)
        for client in self._probe_clients.values():
            try:
                client.close()
            except Exception:  # noqa: BLE001 — best-effort cleanup
                pass

    def _heartbeat_loop(self) -> None:
        # Same contract as the worker pool's collector: the sweep must
        # survive any single failure, or liveness detection silently stops.
        while not self._stop.wait(self.heartbeat_interval):
            try:
                self.probe_once()
            except Exception:  # noqa: BLE001
                log.exception("cluster heartbeat sweep failed; continuing")

    def _http_probe(self, url: str) -> None:
        from repro.server.client import GradingClient

        client = self._probe_clients.get(url)
        if client is None:
            client = self._probe_clients[url] = GradingClient(
                url, timeout=self.probe_timeout, retries=0
            )
        client.cluster_health()  # raises ServerError when unreachable

    def probe_once(self) -> None:
        """One heartbeat sweep over every remote peer."""
        for name, url in self.peer_urls().items():
            if name == self.self_name or self._stop.is_set():
                continue
            try:
                self._probe(url)
            except Exception:  # noqa: BLE001 — any probe failure counts
                self.report_failure(name)
            else:
                self.report_alive(name)

    # -- state transitions ---------------------------------------------------

    def report_alive(self, name: str) -> None:
        with self._lock:
            peer = self._peers.get(name)
            if peer is None:
                return
            was_down = peer.state == DOWN
            peer.state = ALIVE
            peer.failures = 0
            peer.last_ok = monotonic()
            if was_down:
                self._live_ring.add(name)
                log.info("cluster peer %s recovered", name)

    def report_failure(self, name: str) -> None:
        """A probe or forward to ``name`` failed; advance its state machine."""
        if name == self.self_name:
            return
        with self._lock:
            peer = self._peers.get(name)
            if peer is None:
                return
            peer.failures += 1
            if peer.failures >= self.down_after:
                if peer.state != DOWN:
                    peer.state = DOWN
                    self._live_ring.remove(name)
                    log.warning(
                        "cluster peer %s marked down after %d failures; "
                        "its keys fail over to ring successors",
                        name,
                        peer.failures,
                    )
            elif peer.failures >= self.suspect_after:
                peer.state = SUSPECT

    # -- views ---------------------------------------------------------------

    def peer_urls(self) -> dict[str, str]:
        with self._lock:
            return {name: peer.url for name, peer in self._peers.items()}

    def url(self, name: str) -> str:
        with self._lock:
            peer = self._peers.get(name)
        if peer is None:
            raise ReproError(f"unknown cluster peer {name!r}")
        return peer.url

    def states(self) -> dict[str, str]:
        with self._lock:
            return {name: peer.state for name, peer in self._peers.items()}

    def is_self(self, name: str) -> bool:
        return name == self.self_name

    def is_down(self, name: str) -> bool:
        with self._lock:
            peer = self._peers.get(name)
            return peer is None or peer.state == DOWN

    def live_peers(self) -> list[str]:
        with self._lock:
            return sorted(self._live_ring.peers)

    # -- placement -----------------------------------------------------------

    def owner(self, dataset: str, seed: int) -> str:
        """The live-ring owner of a key (always defined: self never leaves)."""
        with self._lock:
            owner = self._live_ring.owner_for(dataset, seed)
        return owner if owner is not None else self.self_name

    def static_owner(self, dataset: str, seed: int) -> str:
        owner = self.static_ring.owner_for(dataset, seed)
        assert owner is not None  # the static ring is never empty
        return owner

    def store_probe_candidates(self, dataset: str, seed: int, count: int) -> list[str]:
        """Peers worth asking for a stored grade of this key, best first.

        The static preference list covers both directions of an outage: the
        static owner has the rows when *we* are grading as a fallback, and
        the owner's successors have the rows graded while the owner was down.
        Down peers are skipped — probing them wastes a connect timeout.
        """
        candidates = self.static_ring.preference(placement_key(dataset, seed))
        with self._lock:
            return [
                name
                for name in candidates
                if name != self.self_name and self._peers[name].state != DOWN
            ][:count]

    # -- wire form -----------------------------------------------------------

    def describe(self) -> dict[str, Any]:
        """The ``/v1/cluster/health`` payload body (minus server-level fields)."""
        now = monotonic()
        with self._lock:
            peers = {
                name: {
                    "url": peer.url,
                    "state": peer.state,
                    "failures": peer.failures,
                    "seconds_since_ok": (
                        None if peer.last_ok is None else now - peer.last_ok
                    ),
                    "self": name == self.self_name,
                }
                for name, peer in self._peers.items()
            }
            live = sorted(self._live_ring.peers)
        return {
            "name": self.self_name,
            "virtual_nodes": self.virtual_nodes,
            "peers": peers,
            "live": live,
        }


__all__ = [
    "ALIVE",
    "DOWN",
    "STATE_CODES",
    "SUSPECT",
    "ClusterMembership",
    "parse_peer_specs",
]
