"""``repro.server``: the long-lived, multi-process grading daemon.

The library layers below this package grade submissions *in process*: every
caller embeds a :class:`~repro.api.service.GradingService`, and all warm
state (instances, engine sessions, memoised results) dies with the caller.
This package is the serving layer on top — the shape a production deployment
of the paper's auto-grader actually takes:

* :class:`~repro.server.app.GradingServer` — a stdlib-only JSON-over-HTTP
  daemon (``repro serve``) exposing ``/v1/grade``, ``/v1/grade_batch``,
  ``/v1/datasets``, ``/healthz`` and Prometheus-text ``/metrics``, with
  bounded-queue backpressure (429) and graceful drain on SIGTERM;
* :class:`~repro.server.workers.WorkerPool` — long-lived worker *processes*,
  each holding warm engine sessions per dataset spec; requests are routed by
  (dataset, seed) so a given dataset's cache locality is preserved;
* :class:`~repro.server.store.ResultStore` — a persistent SQLite (WAL)
  result store keyed by ``(schema_version, dataset, seed, reference-query
  hash, submission-query hash, options hash)``, so identical
  submissions are served from disk across restarts and across workers,
  bit-identical to a cold grade;
* :class:`~repro.server.client.GradingClient` — the matching stdlib HTTP
  client (``repro batch --server URL`` is the CLI client mode).

Wire payloads reuse :mod:`repro.api.serialization` — the versioned JSON
result schema — unchanged; the server adds only a routing envelope.
"""

from repro.server.app import GradingServer, ServerConfig, compute_retry_after
from repro.server.client import GradingClient, ServerError
from repro.server.store import ResultStore, StoreKey
from repro.server.workers import WorkerConfig, WorkerPool

__all__ = [
    "GradingClient",
    "GradingServer",
    "ResultStore",
    "ServerConfig",
    "ServerError",
    "StoreKey",
    "WorkerConfig",
    "WorkerPool",
    "compute_retry_after",
]
