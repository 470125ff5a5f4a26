"""End-to-end tracing through the grading daemon, over real HTTP.

``?trace=1`` must return one coherent trace — entry-daemon span, worker
span, grading-phase spans and per-operator engine spans — without ever
contaminating the deterministic grade envelope that coalesced followers and
the persistent store see.  The forwarded-hop scenario boots a 2-shard
cluster and asserts the trace stays whole across daemons.
"""

from __future__ import annotations

import time

import pytest

from repro.cluster import HashRing
from repro.cluster.supervisor import free_port
from repro.server import GradingClient, GradingServer, ServerConfig

REFERENCE = "\\project_{name} \\select_{dept = 'ECON'} Registration"
WRONG = "\\project_{name} Registration"


@pytest.fixture(scope="module")
def server():
    config = ServerConfig(workers=1, slow_request_seconds=0.0)
    instance = GradingServer(config).start()
    yield instance
    instance.shutdown()


@pytest.fixture(scope="module")
def client(server):
    with GradingClient(f"http://127.0.0.1:{server.port}") as c:
        c.wait_until_healthy()
        yield c


def payload(seed: int = 0, **extra) -> dict:
    return {"id": f"s/{seed}", "correct": REFERENCE, "test": WRONG, "seed": seed, **extra}


class TestTracedGrade:
    def test_trace_block_covers_server_worker_and_operators(self, client):
        envelope = client.grade(payload(seed=101), trace=True)
        trace = envelope["trace"]
        spans = trace["spans"]
        names = [span["name"] for span in spans]
        assert "server.grade" in names
        assert "worker.grade" in names
        assert "grade.reference_eval" in names
        assert "grade.explain" in names
        assert any(name.startswith("op.") for name in names)
        assert {span["trace_id"] for span in spans} == {trace["trace_id"]}
        # The worker's spans really came from the worker process.
        services = {span["service"] for span in spans}
        assert any(service.startswith("worker-") for service in services)

    def test_operator_spans_carry_rows_cache_and_estimates(self, client):
        envelope = client.grade(payload(seed=107), trace=True)
        ops = [s for s in envelope["trace"]["spans"] if s["name"].startswith("op.")]
        assert ops
        for span in ops:
            attributes = span["attributes"]
            assert {"rows", "cached", "columnar", "est_rows", "q_error"} <= set(attributes)
            assert attributes["q_error"] >= 1.0

    def test_untraced_grade_has_no_trace_block(self, client):
        envelope = client.grade(payload(seed=102))
        assert "trace" not in envelope

    def test_store_hit_is_still_traced(self, client):
        client.grade(payload(seed=103))
        envelope = client.grade(payload(seed=103), trace=True)
        assert envelope["store"] == "hit"
        trace = envelope["trace"]
        assert [span["name"] for span in trace["spans"]] == ["server.grade"]
        assert trace["spans"][0]["attributes"]["store"] == "hit"

    def test_trace_never_enters_the_persistent_store(self, client, server):
        client.grade(payload(seed=104), trace=True)  # cold grade, traced
        key = server._store_key(
            __import__("repro.api.service", fromlist=["SubmissionRequest"])
            .SubmissionRequest.from_dict(payload(seed=104)),
            "toy-university",
            104,
        )
        stored = server.store.get(key)
        assert stored is not None
        assert "trace" not in stored
        # A later untraced request must see the clean envelope too.
        envelope = client.grade(payload(seed=104))
        assert envelope["store"] == "hit"
        assert "trace" not in envelope

    def test_client_supplied_traceparent_continues_the_trace(self, client):
        trace_id = "f" * 32
        header = f"00-{trace_id}-{'1' * 16}-01"
        envelope = client.grade(
            payload(seed=105), headers={"traceparent": header}, trace=True
        )
        assert envelope["trace"]["trace_id"] == trace_id

    def test_sat_counters_ride_on_the_explain_span(self, client):
        envelope = client.grade(payload(seed=106), trace=True)
        explain_spans = [
            span
            for span in envelope["trace"]["spans"]
            if span["name"] == "grade.explain"
        ]
        assert explain_spans
        # The counterexample search may or may not reach the SAT solver for
        # this query class; when it does, the counters must land here.
        metrics = explain_spans[0].get("metrics", {})
        if "sat_solve_calls" in metrics:
            assert metrics["sat_solve_calls"] >= 1


class TestDebugEndpoint:
    def test_trace_lookup_by_id(self, client):
        envelope = client.grade(payload(seed=110), trace=True)
        trace_id = envelope["trace"]["trace_id"]
        reply = client.debug_traces(trace_id=trace_id)
        (entry,) = reply["traces"]
        assert entry["trace_id"] == trace_id
        assert len(entry["spans"]) >= len(envelope["trace"]["spans"])

    def test_snapshot_lists_recent_traces_and_slow_requests(self, client):
        client.grade(payload(seed=111), trace=True)
        reply = client.debug_traces(limit=5)
        assert reply["traces"]
        assert len(reply["traces"]) <= 5
        # slow_request_seconds=0.0 puts every root span in the slow log.
        assert reply["slow"]

    def test_bad_limit_is_a_client_error(self, client):
        from repro.server import ServerError

        with pytest.raises(ServerError) as err:
            client.debug_traces(limit="bogus")
        assert err.value.status == 400

    def test_unknown_trace_id_is_empty_not_an_error(self, client):
        reply = client.debug_traces(trace_id="e" * 32)
        assert reply["traces"] == []


class TestForwardedTrace:
    DATASET = "university:12"
    NAMES = ("shard-0", "shard-1")

    def _boot(self):
        ports = {name: free_port() for name in self.NAMES}
        peers = tuple(
            f"{name}=http://127.0.0.1:{ports[name]}" for name in self.NAMES
        )
        servers = {}
        for name in self.NAMES:
            config = ServerConfig(
                port=ports[name],
                workers=1,
                cluster_self=name,
                cluster_peers=peers,
                cluster_heartbeat_interval=0.1,
            )
            servers[name] = GradingServer(config).start()
        deadline = time.monotonic() + 20.0
        while True:
            if all(
                all(state == "alive" for state in server.membership.states().values())
                for server in servers.values()
            ):
                return servers
            assert time.monotonic() < deadline, "cluster never stabilised"
            time.sleep(0.05)

    def test_trace_survives_the_forward_hop(self):
        servers = self._boot()
        try:
            ring = HashRing(self.NAMES)
            seed = next(
                s for s in range(2000) if ring.owner_for(self.DATASET, s) == "shard-1"
            )
            entry = servers["shard-0"]
            with GradingClient(f"http://127.0.0.1:{entry.port}") as client:
                client.wait_until_healthy()
                envelope = client.grade(
                    payload(seed=seed, dataset=self.DATASET), trace=True
                )
                assert envelope["store"] == "forwarded"
                trace = envelope["trace"]
                names = [span["name"] for span in trace["spans"]]
                assert "cluster.forward" in names
                assert names.count("server.grade") == 2  # entry + owner
                assert "worker.grade" in names
                assert {span["trace_id"] for span in trace["spans"]} == {
                    trace["trace_id"]
                }
                services = {span["service"] for span in trace["spans"]}
                assert {"shard-0", "shard-1"} <= services
                # Both daemons hold the trace in their debug stores.
                for server in servers.values():
                    with GradingClient(f"http://127.0.0.1:{server.port}") as peer:
                        reply = peer.debug_traces(trace_id=trace["trace_id"])
                        assert reply["traces"], server.config.cluster_self
        finally:
            for server in servers.values():
                server.shutdown()
