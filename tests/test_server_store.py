"""The persistent result store: keying, durability, and write races."""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import sqlite3
import threading
import time

import pytest

from repro.api import GradingService, SubmissionRequest
from repro.api.serialization import SCHEMA_VERSION
from repro.server.store import ResultStore, StoreKey
from repro.server.workers import grade_envelope

REFERENCE = "\\project_{name} \\select_{dept = 'ECON'} Registration"
SUBMISSION = "\\project_{name} Registration"


def make_key(**overrides) -> StoreKey:
    fields = dict(
        dataset="toy-university",
        seed=0,
        correct_query=REFERENCE,
        test_query=SUBMISSION,
    )
    fields.update(overrides)
    return StoreKey.for_request(**fields)


class TestStoreKey:
    def test_identical_requests_share_a_key(self):
        assert make_key() == make_key()

    @pytest.mark.parametrize(
        "overrides",
        [
            {"dataset": "university:50"},
            {"seed": 7},
            {"correct_query": SUBMISSION},
            {"test_query": REFERENCE},
            {"algorithm": "basic"},
            {"params": {"d": "ECON"}},
            {"explain": False},
            {"options": {"max_size": 3}},
        ],
    )
    def test_every_grading_dimension_changes_the_key(self, overrides):
        assert make_key(**overrides) != make_key()

    def test_param_order_is_canonical(self):
        a = make_key(params={"a": 1, "b": 2})
        b = make_key(params={"b": 2, "a": 1})
        assert a == b


def _parent_key_fields() -> dict:
    """``make_key()`` as earlier versions wrote it: hashed by hand, ``backend='python'``."""

    def sha256(text: str) -> str:
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    options = {"algorithm": "auto", "params": None, "explain": True, "options": {}}
    return {
        "schema_version": SCHEMA_VERSION,
        "dataset": "toy-university",
        "seed": 0,
        "backend": "python",
        "ref_hash": sha256(REFERENCE),
        "sub_hash": sha256(SUBMISSION),
        "options_hash": sha256(json.dumps(options, sort_keys=True, default=repr)),
    }


class TestEarlierVersionCompatibility:
    """Store files and wire keys that still carry the ``backend`` column."""

    def test_row_written_with_the_earlier_ddl_is_a_hit(self, tmp_path):
        path = str(tmp_path / "earlier.sqlite3")
        earlier = sqlite3.connect(path)
        earlier.execute(
            """
            CREATE TABLE results (
                schema_version  INTEGER NOT NULL,
                dataset         TEXT    NOT NULL,
                seed            INTEGER NOT NULL,
                backend         TEXT    NOT NULL,
                ref_hash        TEXT    NOT NULL,
                sub_hash        TEXT    NOT NULL,
                options_hash    TEXT    NOT NULL,
                payload         TEXT    NOT NULL,
                created_at_unix REAL    NOT NULL,
                PRIMARY KEY (schema_version, dataset, seed, backend,
                             ref_hash, sub_hash, options_hash)
            )
            """
        )
        fields = _parent_key_fields()
        earlier.execute(
            "INSERT INTO results VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (*fields.values(), json.dumps({"correct": False}), time.time()),
        )
        earlier.commit()
        earlier.close()
        with ResultStore(path) as store:
            assert store.get(make_key()) == {"correct": False}

    def test_earlier_wire_key_equals_the_new_key(self):
        key = StoreKey.from_dict(_parent_key_fields())
        assert key == make_key()
        assert make_key().to_dict() == _parent_key_fields()


class TestResultStore:
    def test_round_trip(self, tmp_path):
        with ResultStore(tmp_path / "store.sqlite3") as store:
            key = make_key()
            assert store.get(key) is None
            payload = {"correct": False, "outcome": {"error": None}}
            assert store.put(key, payload) is True
            assert store.get(key) == payload
            assert len(store) == 1
            info = store.info()
            assert info["hits"] == 1 and info["misses"] == 1 and info["writes"] == 1

    def test_first_writer_wins(self, tmp_path):
        with ResultStore(tmp_path / "store.sqlite3") as store:
            key = make_key()
            assert store.put(key, {"v": 1}) is True
            assert store.put(key, {"v": 2}) is False
            assert store.get(key) == {"v": 1}
            assert len(store) == 1
            assert store.stats["races"] == 1

    def test_survives_reopen(self, tmp_path):
        path = tmp_path / "store.sqlite3"
        with ResultStore(path) as store:
            store.put(make_key(), {"correct": True})
        with ResultStore(path) as store:
            assert store.get(make_key()) == {"correct": True}

    def test_memory_store_works_without_a_file(self):
        with ResultStore() as store:
            store.put(make_key(), {"correct": True})
            assert store.get(make_key()) == {"correct": True}

    def test_threaded_writers_one_row(self, tmp_path):
        with ResultStore(tmp_path / "store.sqlite3") as store:
            key = make_key()
            barrier = threading.Barrier(8)
            inserted = []

            def write(value: int) -> None:
                barrier.wait()
                inserted.append(store.put(key, {"writer": 0}))

            threads = [threading.Thread(target=write, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert sum(inserted) == 1
            assert len(store) == 1


def _race_worker(path: str, barrier, results) -> None:
    """Grade the same (reference, submission) pair and race on the store."""
    service = GradingService()
    graded = service.submit(
        SubmissionRequest(REFERENCE, SUBMISSION, dataset="toy-university")
    )
    envelope = {**grade_envelope(graded), "id": None}
    store = ResultStore(path)
    key = StoreKey.for_request(
        dataset="toy-university",
        seed=0,
        correct_query=REFERENCE,
        test_query=SUBMISSION,
    )
    barrier.wait()  # both workers hit the store at the same instant
    store.put(key, envelope)
    stored = store.get(key)
    store.close()
    results.put(json.dumps(stored, sort_keys=True))


class TestConcurrentWorkers:
    def test_two_processes_grade_same_pair_one_row(self, tmp_path):
        """The satellite scenario: two workers race on one (ref, sub) pair.

        Both grade independently, both write, exactly one row is stored, and
        both read back bit-identical outcomes.
        """
        path = str(tmp_path / "store.sqlite3")
        ctx = multiprocessing.get_context("spawn")
        barrier = ctx.Barrier(2)
        results = ctx.Queue()
        procs = [
            ctx.Process(target=_race_worker, args=(path, barrier, results))
            for _ in range(2)
        ]
        for proc in procs:
            proc.start()
        payloads = [results.get(timeout=120) for _ in procs]
        for proc in procs:
            proc.join(timeout=30)
            assert proc.exitcode == 0
        assert payloads[0] == payloads[1]
        outcome = json.loads(payloads[0])
        assert outcome["correct"] is False
        assert outcome["outcome"]["report"] is not None
        with ResultStore(path) as store:
            assert len(store) == 1


class TestAgeAndMigration:
    def test_age_bounds_empty_store_is_none(self):
        with ResultStore() as store:
            assert store.age_bounds() is None

    def test_age_bounds_track_newest_and_oldest(self):
        with ResultStore() as store:
            store.put(make_key(seed=1), {"correct": True})
            store.put(make_key(seed=2), {"correct": True})
            newest, oldest = store.age_bounds()
            assert 0.0 <= newest <= oldest
            assert oldest < 60.0  # both rows were written just now

    def test_legacy_created_at_column_is_migrated(self, tmp_path):
        path = str(tmp_path / "legacy.sqlite3")
        legacy = sqlite3.connect(path)
        legacy.execute(
            """
            CREATE TABLE results (
                schema_version  INTEGER NOT NULL,
                dataset         TEXT    NOT NULL,
                seed            INTEGER NOT NULL,
                backend         TEXT    NOT NULL,
                ref_hash        TEXT    NOT NULL,
                sub_hash        TEXT    NOT NULL,
                options_hash    TEXT    NOT NULL,
                payload         TEXT    NOT NULL,
                created_at      REAL    NOT NULL,
                PRIMARY KEY (schema_version, dataset, seed, backend,
                             ref_hash, sub_hash, options_hash)
            )
            """
        )
        key = make_key()
        from dataclasses import astuple

        legacy.execute(
            "INSERT INTO results VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (*astuple(key), json.dumps({"correct": True}), time.time() - 5.0),
        )
        legacy.commit()
        legacy.close()

        with ResultStore(path) as store:
            columns = {
                row[1]
                for row in store._conn.execute("PRAGMA table_info(results)")
            }
            assert "created_at_unix" in columns
            assert "created_at" not in columns
            assert store.get(key) == {"correct": True}  # rows survive
            newest, oldest = store.age_bounds()
            assert newest >= 4.0  # the legacy timestamp still means wall-clock
