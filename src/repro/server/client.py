"""Stdlib HTTP client for the grading daemon (the ``--server`` CLI mode).

:class:`GradingClient` speaks the server's JSON protocol over a persistent
``http.client`` connection (keep-alive matters in the closed-loop load
benchmark).  One client instance is **not** thread-safe — a load generator
gives each client thread its own instance, which also mirrors how real
traffic arrives.

Overload is part of the protocol: a 429 answer (bounded-queue backpressure)
is retried with exponential backoff up to ``retries`` times before
:class:`ServerError` escapes, so closed-loop callers degrade into waiting
instead of failing.
"""

from __future__ import annotations

import http.client
import itertools
import json
import random
import socket
import time
from typing import Any, Iterable, Mapping
from urllib.parse import urlsplit

from repro.api.service import SubmissionRequest
from repro.errors import ReproError
from repro.obs.trace import TRACEPARENT_HEADER, current_traceparent

RequestLike = SubmissionRequest | Mapping[str, Any]

#: Never trust a server-suggested Retry-After beyond this many seconds — a
#: busy daemon estimating its queue drain must not park clients for minutes.
MAX_HONORED_RETRY_AFTER = 5.0

_client_counter = itertools.count()


class ServerError(ReproError):
    """The server answered with a non-success status (or was unreachable)."""

    def __init__(self, message: str, *, status: int | None = None, payload: Any = None) -> None:
        super().__init__(message)
        self.status = status
        self.payload = payload


class GradingClient:
    """Client for one ``repro serve`` endpoint, e.g. ``http://127.0.0.1:8080``."""

    def __init__(
        self,
        base_url: str,
        *,
        timeout: float = 300.0,
        retries: int = 8,
        backoff: float = 0.05,
        jitter_seed: int | None = None,
    ) -> None:
        parts = urlsplit(base_url if "//" in base_url else f"http://{base_url}")
        if parts.scheme not in ("http", ""):
            raise ReproError(f"only http:// servers are supported, got {base_url!r}")
        if parts.hostname is None:
            raise ReproError(f"cannot parse server URL {base_url!r}")
        self.host = parts.hostname
        self.port = parts.port if parts.port is not None else 80
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        # Jittered backoff needs *different* sequences per client or every
        # retrying client re-stampedes in lockstep; mixing in a process-wide
        # counter guarantees that even same-endpoint clients diverge, while
        # an explicit jitter_seed keeps tests reproducible.
        if jitter_seed is None:
            jitter_seed = hash((self.host, self.port, next(_client_counter)))
        self._jitter = random.Random(jitter_seed)
        self._conn: http.client.HTTPConnection | None = None

    # -- transport -----------------------------------------------------------

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            conn = http.client.HTTPConnection(self.host, self.port, timeout=self.timeout)
            conn.connect()
            # Small JSON request/response pairs are latency-bound: without
            # TCP_NODELAY, Nagle + delayed ACK costs ~40ms per call.
            conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._conn = conn
        return self._conn

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def _once(
        self,
        method: str,
        path: str,
        body: bytes | None,
        extra_headers: Mapping[str, str] | None = None,
    ) -> tuple[int, Any, str, float | None]:
        headers = {"Content-Type": "application/json"} if body is not None else {}
        if extra_headers:
            headers.update(extra_headers)
        conn = self._connection()
        try:
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            raw = response.read()
        except (http.client.HTTPException, OSError):
            # Stale keep-alive (server restarted, idle timeout): reconnect
            # once per attempt rather than failing the call.
            self.close()
            conn = self._connection()
            try:
                conn.request(method, path, body=body, headers=headers)
                response = conn.getresponse()
                raw = response.read()
            except BaseException:
                self.close()  # never leave a half-sent connection behind
                raise
        text = raw.decode("utf-8", errors="replace")
        content_type = response.headers.get("Content-Type", "")
        payload = json.loads(text) if "json" in content_type and text else None
        retry_after: float | None = None
        header = response.headers.get("Retry-After")
        if header is not None:
            try:
                retry_after = float(header)
            except ValueError:
                retry_after = None
        return response.status, payload, text, retry_after

    def _retry_delay(self, attempt: int, retry_after: float | None) -> float:
        """Backoff for one 429: max(exponential, server hint), jittered.

        Full multiplicative jitter in [0.5, 1.0) keeps retrying clients from
        re-arriving in the same instant (a retry stampede turns one overload
        burst into many) while never more than halving the nominal delay.
        """
        delay = self.backoff * (2**attempt)
        if retry_after is not None and retry_after > 0:
            delay = max(delay, min(retry_after, MAX_HONORED_RETRY_AFTER))
        return delay * (0.5 + 0.5 * self._jitter.random())

    def _request(
        self,
        method: str,
        path: str,
        payload: Mapping[str, Any] | None = None,
        headers: Mapping[str, str] | None = None,
    ) -> Any:
        body = None if payload is None else json.dumps(payload).encode("utf-8")
        # Propagate the ambient trace context: a request issued inside a span
        # (e.g. the forwarder's cluster.forward span) carries its traceparent,
        # so the receiving daemon continues the same trace.
        traceparent = current_traceparent()
        if traceparent is not None:
            merged = dict(headers) if headers else {}
            merged.setdefault(TRACEPARENT_HEADER, traceparent)
            headers = merged
        last: tuple[int, Any, str] | None = None
        for attempt in range(self.retries + 1):
            try:
                status, parsed, text, retry_after = self._once(method, path, body, headers)
            except (OSError, http.client.HTTPException) as exc:
                raise ServerError(
                    f"cannot reach server at {self.host}:{self.port}: {exc}"
                ) from exc
            if status == 429 and attempt < self.retries:
                time.sleep(self._retry_delay(attempt, retry_after))
                continue
            last = (status, parsed, text)
            break
        assert last is not None
        status, parsed, text = last
        if status >= 400:
            message = parsed.get("error") if isinstance(parsed, Mapping) else text[:200]
            raise ServerError(
                f"server answered {status} for {method} {path}: {message}",
                status=status,
                payload=parsed,
            )
        return parsed if parsed is not None else text

    # -- endpoints -----------------------------------------------------------

    def health(self) -> dict[str, Any]:
        return self._request("GET", "/healthz")

    def datasets(self) -> dict[str, Any]:
        return self._request("GET", "/v1/datasets")

    def metrics_text(self) -> str:
        return self._request("GET", "/metrics")

    def cluster_health(self) -> dict[str, Any]:
        """The daemon's cluster view: peer states, live ring, ring params."""
        return self._request("GET", "/v1/cluster/health")

    def store_lookup(self, key_payload: Mapping[str, Any]) -> dict[str, Any]:
        """Ask the daemon's local result store for one key (cluster store tier)."""
        return self._request("POST", "/v1/store/lookup", dict(key_payload))

    def mutate(self, payload: Mapping[str, Any]) -> dict[str, Any]:
        """Apply an edit stream to a dataset on every worker.

        ``payload`` is ``{"dataset": spec?, "operations": [...]}`` in the
        format of :meth:`repro.api.service.GradingService.mutate`.  Stored
        grades for the dataset are purged server-side; the reply carries each
        worker's ``delta_maintained``/``delta_dropped`` memo counter
        increments.
        """
        return self._request("POST", "/v1/datasets/mutate", dict(payload))

    def grade(
        self,
        request: RequestLike,
        *,
        headers: Mapping[str, str] | None = None,
        trace: bool = False,
    ) -> dict[str, Any]:
        """Grade one submission; returns the server's grade envelope.

        ``trace=True`` asks the server for a per-request trace (entry daemon,
        forward hop, worker, per-operator engine spans) attached to the
        envelope under ``"trace"``.
        """
        path = "/v1/grade?trace=1" if trace else "/v1/grade"
        return self._request("POST", path, self._payload(request), headers=headers)

    def debug_traces(
        self, trace_id: str | None = None, limit: int | None = None
    ) -> dict[str, Any]:
        """Recent traces (or one trace by id) from ``/v1/debug/traces``."""
        params = []
        if trace_id is not None:
            params.append(f"trace_id={trace_id}")
        if limit is not None:
            params.append(f"limit={limit}")
        query = "?" + "&".join(params) if params else ""
        return self._request("GET", f"/v1/debug/traces{query}")

    def grade_batch(self, requests: Iterable[RequestLike], *, chunk_size: int = 500) -> list[dict[str, Any]]:
        """Grade many submissions, preserving order, chunked over the wire."""
        payloads = [self._payload(request) for request in requests]
        results: list[dict[str, Any]] = []
        for start in range(0, len(payloads), chunk_size):
            chunk = payloads[start : start + chunk_size]
            reply = self._request("POST", "/v1/grade_batch", {"requests": chunk})
            results.extend(reply["results"])
        return results

    def wait_until_healthy(self, timeout: float = 15.0, interval: float = 0.05) -> dict[str, Any]:
        """Poll ``/healthz`` until the server answers (for just-booted daemons)."""
        deadline = time.monotonic() + timeout
        while True:
            try:
                return self.health()
            except ServerError:
                if time.monotonic() >= deadline:
                    raise
                time.sleep(interval)

    @staticmethod
    def _payload(request: RequestLike) -> dict[str, Any]:
        if isinstance(request, SubmissionRequest):
            return request.to_dict()
        return dict(request)

    def __enter__(self) -> "GradingClient":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


__all__ = ["GradingClient", "ServerError"]
