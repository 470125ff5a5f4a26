"""The persistent result store: grades that survive restarts and workers.

Grading is deterministic: for a fixed result-schema version, dataset spec,
seed, reference query, submission query and grading options, the outcome
is always byte-identical (the serialization layer is canonical).  That
makes a graded submission a perfect cache entry — and in a real class most
submissions *are* repeats (re-submissions, the same classic mistake across
students, a course re-run next semester).

:class:`ResultStore` is that cache, durably: one SQLite database in WAL
mode, shared by every worker of one server and by every restart of it.  The
key is the full grading identity (:class:`StoreKey`); the value is the
*deterministic* grade envelope (no wall-clock timings), so a store hit is
bit-identical to a cold grade.

Concurrency contract: many threads and many processes may ``put`` the same
key simultaneously.  Writes use ``INSERT OR IGNORE`` under WAL with a busy
timeout, so exactly one row per key ever exists and racing writers all
succeed — the satellite test grades one (reference, submission) pair from
two processes at once and asserts one stored row and identical outcomes.
"""

from __future__ import annotations

import hashlib
import json
import sqlite3
import threading
import time
from dataclasses import astuple, dataclass
from pathlib import Path
from typing import Any, Mapping

from repro.api.serialization import SCHEMA_VERSION
from repro.errors import ReproError

#: ``created_at_unix`` is a *wall-clock* Unix timestamp (``time.time()``) on
#: purpose, unlike the ``perf_counter`` timings used for latency measurement
#: everywhere else: stored rows outlive the writing process and are read
#: across daemons, so the timestamp must be meaningful after restarts and
#: comparable between machines — which a process-relative monotonic clock is
#: not.  It is a *row age* marker (store-age gauge, debugging), never a
#: latency source.
_CREATE = """
CREATE TABLE IF NOT EXISTS results (
    schema_version  INTEGER NOT NULL,
    dataset         TEXT    NOT NULL,
    seed            INTEGER NOT NULL,
    backend         TEXT    NOT NULL,
    ref_hash        TEXT    NOT NULL,
    sub_hash        TEXT    NOT NULL,
    options_hash    TEXT    NOT NULL,
    payload         TEXT    NOT NULL,
    created_at_unix REAL    NOT NULL,
    PRIMARY KEY (schema_version, dataset, seed, backend, ref_hash, sub_hash, options_hash)
)
"""

#: The only value the ``backend`` key column takes.  Grades have one
#: execution path, so the column carries no information; it stays so store
#: files and wire keys written by earlier versions, which hold ``"python"``
#: there, keep matching.
_BACKEND = "python"

_KEY_COLUMNS = "schema_version, dataset, seed, backend, ref_hash, sub_hash, options_hash"
_KEY_PREDICATE = (
    "schema_version = ? AND dataset = ? AND seed = ? AND backend = ? "
    "AND ref_hash = ? AND sub_hash = ? AND options_hash = ?"
)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class StoreKey:
    """The full identity of one deterministic grading result.

    ``ref_hash``/``sub_hash`` are SHA-256 over the *verbatim* query texts
    (the DSL text is part of the grade: reports echo it back).
    ``options_hash`` folds in everything else that can change the outcome —
    algorithm, params, explain mode and algorithm options — so two requests
    share a row only when a cold grade would be identical.  ``backend`` is
    always ``"python"``; it is kept for the on-disk and wire format.
    """

    schema_version: int
    dataset: str
    seed: int
    backend: str
    ref_hash: str
    sub_hash: str
    options_hash: str

    @classmethod
    def for_request(
        cls,
        *,
        dataset: str,
        seed: int,
        correct_query: str,
        test_query: str,
        algorithm: str = "auto",
        params: Mapping[str, Any] | None = None,
        explain: bool = True,
        options: Mapping[str, Any] | None = None,
    ) -> "StoreKey":
        fingerprint = json.dumps(
            {
                "algorithm": algorithm,
                "params": None if params is None else {k: params[k] for k in sorted(params)},
                "explain": bool(explain),
                "options": {} if not options else {k: options[k] for k in sorted(options)},
            },
            sort_keys=True,
            default=repr,
        )
        return cls(
            schema_version=SCHEMA_VERSION,
            dataset=dataset,
            seed=seed,
            backend=_BACKEND,
            ref_hash=_sha256(correct_query),
            sub_hash=_sha256(test_query),
            options_hash=_sha256(fingerprint),
        )

    # -- wire form (the cluster store tier ships keys between daemons) -------

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema_version": self.schema_version,
            "dataset": self.dataset,
            "seed": self.seed,
            "backend": self.backend,
            "ref_hash": self.ref_hash,
            "sub_hash": self.sub_hash,
            "options_hash": self.options_hash,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "StoreKey":
        """Parse a wire-form key, validating shape (peers may disagree on versions)."""
        try:
            return cls(
                schema_version=int(payload["schema_version"]),
                dataset=str(payload["dataset"]),
                seed=int(payload["seed"]),
                backend=str(payload["backend"]),
                ref_hash=str(payload["ref_hash"]),
                sub_hash=str(payload["sub_hash"]),
                options_hash=str(payload["options_hash"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ReproError(f"malformed store key: {exc}") from exc


class ResultStore:
    """SQLite-backed (or in-memory) persistent map from :class:`StoreKey` to grade.

    One connection guarded by a lock serves all threads of a process; other
    *processes* open their own store on the same path — WAL mode makes the
    readers-and-writers mix safe.  ``":memory:"`` gives a store with the same
    interface but no durability (used by tests and the default in-process
    server when no path is configured).
    """

    def __init__(self, path: str | Path = ":memory:") -> None:
        self.path = str(path)
        self._lock = threading.Lock()
        self._conn = sqlite3.connect(self.path, check_same_thread=False, timeout=30.0)
        self._conn.execute("PRAGMA busy_timeout = 30000")
        if self.path != ":memory:":
            self._conn.execute("PRAGMA journal_mode = WAL")
            self._conn.execute("PRAGMA synchronous = NORMAL")
        self._migrate()
        self._conn.execute(_CREATE)
        self._conn.commit()
        self.stats = {"hits": 0, "misses": 0, "writes": 0, "races": 0}

    def _migrate(self) -> None:
        """Rename the legacy ``created_at`` column to ``created_at_unix``.

        Stores written by earlier releases keep their rows; the rename only
        makes the wall-clock semantics explicit in the schema.
        """
        columns = {row[1] for row in self._conn.execute("PRAGMA table_info(results)")}
        if "created_at" in columns and "created_at_unix" not in columns:
            self._conn.execute(
                "ALTER TABLE results RENAME COLUMN created_at TO created_at_unix"
            )

    # -- mapping operations --------------------------------------------------

    def get(self, key: StoreKey) -> dict[str, Any] | None:
        """The stored grade envelope for ``key``, or ``None``."""
        with self._lock:
            row = self._conn.execute(
                f"SELECT payload FROM results WHERE {_KEY_PREDICATE}", astuple(key)
            ).fetchone()
            if row is None:
                self.stats["misses"] += 1
                return None
            self.stats["hits"] += 1
        return json.loads(row[0])

    def put(self, key: StoreKey, payload: Mapping[str, Any]) -> bool:
        """Store ``payload`` under ``key``; first writer wins.

        Returns ``True`` when this call inserted the row, ``False`` when a
        concurrent (or earlier) writer already had — the existing row is kept
        untouched, so every reader of the key sees one immutable grade.
        """
        text = json.dumps(payload, sort_keys=True)
        with self._lock:
            # Wall clock, not perf_counter: see the _CREATE docstring — the
            # stamp must survive restarts and compare across processes.
            cursor = self._conn.execute(
                f"INSERT OR IGNORE INTO results ({_KEY_COLUMNS}, payload, created_at_unix) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (*astuple(key), text, time.time()),
            )
            self._conn.commit()
            inserted = cursor.rowcount == 1
            self.stats["writes" if inserted else "races"] += 1
        return inserted

    def __len__(self) -> int:
        with self._lock:
            (count,) = self._conn.execute("SELECT COUNT(*) FROM results").fetchone()
        return count

    def clear(self) -> None:
        with self._lock:
            self._conn.execute("DELETE FROM results")
            self._conn.commit()

    def purge_dataset(self, dataset: str) -> int:
        """Drop every stored grade for ``dataset``; returns rows removed.

        The store's keys carry no data version — grades are deduplicated on
        (schema, dataset, seed, query hashes) alone — so after a
        dataset mutation every stored grade for it is potentially stale and
        must go.  Grades for other datasets are untouched.
        """
        with self._lock:
            cursor = self._conn.execute(
                "DELETE FROM results WHERE dataset = ?", (dataset,)
            )
            self._conn.commit()
            return cursor.rowcount

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    # -- introspection -------------------------------------------------------

    def info(self) -> dict[str, Any]:
        """Store statistics for ``/healthz`` and ``/metrics``."""
        return {"path": self.path, "rows": len(self), **self.stats}

    def age_bounds(self) -> tuple[float, float] | None:
        """Seconds since the newest and oldest stored row, or ``None`` if empty.

        Backs the ``repro_store_age_seconds`` gauge: the newest age tells how
        recently the store absorbed a grade, the oldest how far back its
        history reaches.  Clock skew between writer and reader can make the
        raw difference slightly negative, so both are clamped at zero.
        """
        with self._lock:
            row = self._conn.execute(
                "SELECT MAX(created_at_unix), MIN(created_at_unix) FROM results"
            ).fetchone()
        if row is None or row[0] is None:
            return None
        now = time.time()
        return (max(0.0, now - row[0]), max(0.0, now - row[1]))

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
