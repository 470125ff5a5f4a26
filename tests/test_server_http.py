"""End-to-end tests of the grading daemon over real HTTP.

One module-scoped daemon (1 worker, in-memory store) serves most tests;
scenarios that need their own store/queue configuration boot private
servers.  Every request travels the full stack: client → HTTP frontend →
store → worker process → engine.
"""

from __future__ import annotations

import json
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import pytest

import repro
from repro.api import GradingService
from repro.api.serialization import SCHEMA_VERSION
from repro.server import GradingClient, GradingServer, ServerConfig, ServerError

REFERENCE = "\\project_{name} \\select_{dept = 'ECON'} Registration"
WRONG = "\\project_{name} Registration"


@pytest.fixture(scope="module")
def server():
    instance = GradingServer(ServerConfig(workers=1)).start()
    yield instance
    instance.shutdown()


@pytest.fixture(scope="module")
def client(server):
    with GradingClient(f"http://127.0.0.1:{server.port}") as c:
        c.wait_until_healthy()
        yield c


def request_payload(test_query: str = WRONG, **extra) -> dict:
    return {"id": "alice/q1", "correct": REFERENCE, "test": test_query, **extra}


class TestOperationalEndpoints:
    def test_healthz_reports_version_and_store(self, client):
        health = client.health()
        assert health["status"] == "ok"
        assert health["version"] == repro.__version__
        assert health["schema_version"] == SCHEMA_VERSION
        assert health["workers"] == 1
        assert "rows" in health["store"]

    def test_datasets_lists_builtin_registry(self, client):
        payload = client.datasets()
        assert "toy-university" in payload["datasets"]
        assert payload["default_dataset"] == "toy-university"

    def test_metrics_exposition_format(self, client):
        client.grade(request_payload())  # ensure at least one grade happened
        text = client.metrics_text()
        assert "# TYPE repro_server_requests_total counter" in text
        assert "# TYPE repro_server_stage_seconds histogram" in text
        assert 'repro_server_grades_total{store="' in text
        assert "repro_server_queue_depth" in text
        assert 'version="' + repro.__version__ + '"' in text
        # Worker engine-cache counters are scraped over the task queues.
        assert 'repro_worker_cache{counter="sessions_plan_hits",worker="0"}' in text
        # A fresh wrong submission (store misses skip no stage) graded with
        # explain=True populates the counterexample pipeline's own breakdown.
        client.grade(request_payload("\\project_{name} \\select_{grade > 80} Registration"))
        text = client.metrics_text()
        assert "# TYPE repro_server_explain_stage_seconds histogram" in text
        assert 'repro_server_explain_stage_seconds_bucket{stage="solver"' in text
        assert 'repro_server_explain_stage_seconds_bucket{stage="provenance"' in text
        assert 'repro_server_explain_stage_seconds_count{stage="total"}' in text

    def test_explanation_quality_is_exported(self, client):
        # Registration counts per department on university:20; a witness must
        # keep exactly the largest count, far beyond what the aggregate
        # solver's check budget can prove minimal.
        instance = GradingService().registry.resolve("university:20", seed=0).instance
        counts = Counter(row["dept"] for row in instance.relation("Registration").to_dicts())
        largest = max(counts.values())
        aggregate = "\\aggr_{group: dept ; count(*) -> n} Registration"
        client.grade(
            {
                "id": "bob/q7",
                "dataset": "university:20",
                "seed": 0,
                "algorithm": "agg-basic",
                "correct": f"\\select_{{n >= {largest}}} {aggregate}",
                "test": f"\\select_{{n > {largest}}} {aggregate}",
            }
        )
        client.grade(request_payload("\\project_{name} \\select_{grade > 70} Registration"))
        text = client.metrics_text()
        assert "# TYPE repro_server_explanations_total counter" in text
        assert 'repro_server_explanations_total{algorithm="agg-basic",optimal="false"} 1' in text
        assert 'optimal="true"} ' in text

    def test_unknown_path_is_404(self, client):
        with pytest.raises(ServerError) as err:
            client._request("GET", "/nope")
        assert err.value.status == 404


class TestGrading:
    def test_correct_submission(self, client):
        envelope = client.grade(request_payload(REFERENCE))
        assert envelope["correct"] is True
        assert envelope["outcome"]["error"] is None

    def test_wrong_submission_gets_counterexample(self, client):
        envelope = client.grade(request_payload())
        assert envelope["correct"] is False
        assert envelope["outcome"]["report"]["result"]["counterexample"]

    def test_http_grade_bit_identical_to_in_process(self, client):
        payload = request_payload()
        envelope = client.grade(payload)
        local = GradingService().submit(payload).to_dict(include_timings=False)
        served = {k: v for k, v in envelope.items() if k not in ("store", "wall_time")}
        assert served == local

    def test_parse_error_is_a_grade_not_a_failure(self, client):
        envelope = client.grade(request_payload("\\select_{oops"))
        assert envelope["correct"] is False
        assert envelope["outcome"]["error_kind"] == "parse_error"

    def test_store_hit_serves_identical_outcome_with_callers_id(self, client):
        first = client.grade(request_payload(id="student-1"))
        second = client.grade(request_payload(id="student-2"))
        assert second["store"] in ("hit", "coalesced")
        assert second["id"] == "student-2"
        assert second["outcome"] == first["outcome"]

    def test_unknown_dataset_is_an_invalid_request_grade(self, client):
        envelope = client.grade(request_payload(dataset="not-a-dataset"))
        assert envelope["correct"] is False
        assert envelope["outcome"]["error_kind"] == "invalid_request"


class TestBatch:
    def test_batch_preserves_order_and_dedupes(self, client):
        requests = [
            request_payload(id="a"),
            request_payload(REFERENCE, id="b"),
            request_payload(id="c"),  # duplicate of "a" → store/coalesced
        ]
        results = client.grade_batch(requests)
        assert [r["id"] for r in results] == ["a", "b", "c"]
        assert [r["correct"] for r in results] == [False, True, False]
        assert results[2]["store"] in ("hit", "coalesced")
        assert results[2]["outcome"] == results[0]["outcome"]

    def test_batch_reports_per_item_invalid_requests(self, client):
        results = client.grade_batch([request_payload(id="ok"), {"id": "broken"}])
        assert results[0]["correct"] in (True, False)
        assert results[1]["outcome"]["error_kind"] == "invalid_request"

    def test_batch_body_must_be_an_object(self, client):
        with pytest.raises(ServerError) as err:
            client._request("POST", "/v1/grade_batch", {"nope": []})
        assert err.value.status == 400


class TestValidation:
    def test_not_json_is_400(self, server):
        import http.client

        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
        conn.request("POST", "/v1/grade", body=b"junk{", headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        payload = json.loads(response.read())
        conn.close()
        assert response.status == 400
        assert payload["error_kind"] == "invalid_request"

    @pytest.mark.parametrize(
        "payload",
        [
            {},  # missing queries
            {"correct": REFERENCE},  # missing test
            {"correct": REFERENCE, "test": WRONG, "seed": "zero"},  # bad type
            {"correct": REFERENCE, "test": WRONG, "params": [1, 2]},  # bad type
            [1, 2, 3],  # not an object
        ],
    )
    def test_malformed_request_is_400(self, client, payload):
        with pytest.raises(ServerError) as err:
            client._request("POST", "/v1/grade", payload)
        assert err.value.status == 400
        assert err.value.payload["error_kind"] == "invalid_request"


class TestBackpressureAndDrain:
    def test_zero_queue_answers_429(self):
        server = GradingServer(ServerConfig(workers=1, max_queue=0)).start()
        try:
            with GradingClient(f"http://127.0.0.1:{server.port}", retries=1) as client:
                client.wait_until_healthy()
                with pytest.raises(ServerError) as err:
                    client.grade(request_payload())
                assert err.value.status == 429
                assert err.value.payload["error_kind"] == "overloaded"
        finally:
            server.shutdown()

    def test_shutdown_drains_and_refuses_new_work(self):
        server = GradingServer(ServerConfig(workers=1)).start()
        with GradingClient(f"http://127.0.0.1:{server.port}") as client:
            client.wait_until_healthy()
            assert client.grade(request_payload())["correct"] is False
        server.shutdown()
        server.shutdown()  # idempotent
        with GradingClient(f"http://127.0.0.1:{server.port}", retries=0) as client:
            with pytest.raises(ServerError):
                client.health()


class TestPersistence:
    def test_grades_survive_restart(self, tmp_path):
        store = tmp_path / "grades.sqlite3"
        first = GradingServer(ServerConfig(workers=1, store_path=store)).start()
        with GradingClient(f"http://127.0.0.1:{first.port}") as client:
            client.wait_until_healthy()
            cold = client.grade(request_payload())
            assert cold["store"] == "miss"
        first.shutdown()

        second = GradingServer(ServerConfig(workers=1, store_path=store)).start()
        try:
            with GradingClient(f"http://127.0.0.1:{second.port}") as client:
                client.wait_until_healthy()
                warm = client.grade(request_payload(id="someone-else"))
                assert warm["store"] == "hit"
                assert warm["id"] == "someone-else"
                assert warm["outcome"] == cold["outcome"]
        finally:
            second.shutdown()

    def test_two_servers_share_one_store(self, tmp_path):
        """Two daemons (four worker processes total) race on one store."""
        store = tmp_path / "grades.sqlite3"
        servers = [
            GradingServer(ServerConfig(workers=1, store_path=store)).start()
            for _ in range(2)
        ]
        try:
            clients = [GradingClient(f"http://127.0.0.1:{s.port}") for s in servers]
            for client in clients:
                client.wait_until_healthy()
            with ThreadPoolExecutor(max_workers=2) as pool:
                envelopes = list(
                    pool.map(lambda c: c.grade(request_payload()), clients)
                )
            assert envelopes[0]["outcome"] == envelopes[1]["outcome"]
            total_rows = servers[0].store.info()["rows"]
            assert total_rows == 1
            for client in clients:
                client.close()
        finally:
            for server in servers:
                server.shutdown()


class TestReviewRegressions:
    def test_batch_items_are_always_full_envelopes_under_overload(self):
        """Frontend-level failures inside a batch must still be grade envelopes."""
        server = GradingServer(
            ServerConfig(workers=1, max_queue=0, request_timeout=0.5)
        ).start()
        try:
            with GradingClient(f"http://127.0.0.1:{server.port}") as client:
                client.wait_until_healthy()
                results = client.grade_batch([request_payload(id="x")])
            assert results[0]["correct"] is False
            assert results[0]["id"] == "x"
            assert results[0]["outcome"]["error_kind"] in ("overloaded", "unavailable")
        finally:
            server.shutdown()

    def test_warm_default_dataset_spreads_over_workers(self):
        """A single-dataset class must use every worker, not one CRC32 slot."""
        from concurrent.futures import Future

        from repro.server.workers import WorkerConfig, WorkerPool

        pool = WorkerPool(WorkerConfig(), workers=2, max_queue=8)
        try:
            with pool._lock:
                first = pool._choose_worker("toy-university", 0)
                pool._pending[999] = (Future(), first)
                second = pool._choose_worker("toy-university", 0)
                del pool._pending[999]
            assert {first, second} == {0, 1}
            # Specs not warmed everywhere keep strict cache-locality pinning.
            with pool._lock:
                assert pool._choose_worker("university:77", 3) == pool.route(
                    "university:77", 3
                )
        finally:
            pool.close()

    def test_metrics_scrape_does_not_consume_grading_slots(self):
        """Stats probes ride the queues but must not trigger 429s."""
        server = GradingServer(ServerConfig(workers=1, max_queue=1)).start()
        try:
            with GradingClient(f"http://127.0.0.1:{server.port}", retries=2) as client:
                client.wait_until_healthy()
                assert server.pool.stats(timeout=5.0)  # probe in flight history
                envelope = client.grade(request_payload(id="after-scrape"))
                assert envelope["correct"] is False
        finally:
            server.shutdown()

    def test_pool_does_not_leak_pythonpath_into_parent_env(self):
        import os

        from repro.server.workers import WorkerConfig, WorkerPool

        before = os.environ.get("PYTHONPATH")
        pool = WorkerPool(WorkerConfig(), workers=1, max_queue=2)
        try:
            assert os.environ.get("PYTHONPATH") == before
        finally:
            pool.close()
