"""Exposition-format edge cases for the stdlib metrics registry.

Covers the corners a scraper actually trips on: label-value escaping, the
``+Inf`` histogram bucket, callback-backed gauges merging with directly-set
series, and a raising callback (which must cost one series, not the scrape).
A golden round-trip pushes a fully-populated registry through the bundled
exposition parser (:mod:`repro.obs.promparse`) — the same parser the CI
smoke job uses to validate a live ``/metrics`` endpoint.
"""

from __future__ import annotations

import math

import pytest

from repro.obs.promparse import parse_exposition
from repro.server.metrics import (
    CALLBACK_ERRORS_METRIC,
    MetricsRegistry,
    label_key,
)


class TestEscaping:
    def test_label_values_escape_backslash_quote_and_newline(self):
        registry = MetricsRegistry()
        registry.counter("odd_total", "Counter with hostile label values.")
        registry.inc("odd_total", {"path": 'C:\\dir\n"quoted"'})
        text = registry.render()
        assert 'odd_total{path="C:\\\\dir\\n\\"quoted\\""} 1' in text

    def test_escaped_values_round_trip_through_the_parser(self):
        registry = MetricsRegistry()
        registry.counter("odd_total", "Counter with hostile label values.")
        hostile = 'back\\slash and "quote" and\nnewline'
        registry.inc("odd_total", {"v": hostile})
        families = parse_exposition(registry.render())
        (sample,) = families["odd_total"].samples
        assert sample.labels == {"v": hostile}
        assert sample.value == 1.0


class TestHistogramExposition:
    def test_infinity_bucket_is_rendered_and_cumulative(self):
        registry = MetricsRegistry()
        registry.histogram("lat_seconds", "Latency.", buckets=(0.1, 1.0))
        registry.observe("lat_seconds", 0.05)
        registry.observe("lat_seconds", 0.5)
        registry.observe("lat_seconds", 100.0)  # beyond the last bound
        text = registry.render()
        assert 'lat_seconds_bucket{le="0.1"} 1' in text
        assert 'lat_seconds_bucket{le="1"} 2' in text
        assert 'lat_seconds_bucket{le="+Inf"} 3' in text
        assert "lat_seconds_count 3" in text

    def test_parser_checks_histogram_invariants(self):
        registry = MetricsRegistry()
        registry.histogram("lat_seconds", "Latency.", buckets=(0.1, 1.0))
        registry.observe("lat_seconds", 0.5, {"stage": "grade"})
        families = parse_exposition(registry.render())
        family = families["lat_seconds"]
        assert family.kind == "histogram"
        inf_samples = [
            s
            for s in family.samples
            if s.name == "lat_seconds_bucket" and s.labels.get("le") == "+Inf"
        ]
        assert [s.value for s in inf_samples] == [1.0]
        assert math.isinf(float("inf"))  # sanity: +Inf parsed as float works

    def test_parser_rejects_non_cumulative_buckets(self):
        bad = "\n".join(
            [
                "# TYPE lat_seconds histogram",
                'lat_seconds_bucket{le="0.1"} 5',
                'lat_seconds_bucket{le="1"} 3',  # decreasing: invalid
                'lat_seconds_bucket{le="+Inf"} 5',
                "lat_seconds_sum 1",
                "lat_seconds_count 5",
                "",
            ]
        )
        with pytest.raises(ValueError, match="cumulative|decreas"):
            parse_exposition(bad)


class TestCallbackGauges:
    def test_bare_float_callback(self):
        registry = MetricsRegistry()
        registry.gauge("depth", "Queue depth.", callback=lambda: 7)
        families = parse_exposition(registry.render())
        (sample,) = families["depth"].samples
        assert sample.value == 7.0

    def test_labelled_callback_merges_with_set_series(self):
        registry = MetricsRegistry()
        registry.gauge(
            "states",
            "Peer states.",
            callback=lambda: {label_key({"peer": "a"}): 1.0},
        )
        registry.set("states", 2.0, {"peer": "b"})
        families = parse_exposition(registry.render())
        by_peer = {s.labels["peer"]: s.value for s in families["states"].samples}
        assert by_peer == {"a": 1.0, "b": 2.0}

    def test_raising_callback_skips_series_and_counts_the_error(self):
        registry = MetricsRegistry()
        registry.gauge("healthy", "Always works.", callback=lambda: 1.0)

        def explode():
            raise RuntimeError("scrape-time failure")

        registry.gauge("broken", "Always raises.", callback=explode)
        first = registry.render()  # must not raise
        assert "healthy 1" in first
        assert "\nbroken " not in first  # the series is absent, not zeroed
        # The error counter was snapshotted before callbacks ran, so the
        # increment lands on the *next* scrape.
        second = registry.render()
        assert f'{CALLBACK_ERRORS_METRIC}{{metric="broken"}} 1' in second
        assert registry.counter_value(
            CALLBACK_ERRORS_METRIC, {"metric": "broken"}
        ) == 2.0  # two scrapes, two failures

    def test_callback_returning_junk_counts_as_error(self):
        registry = MetricsRegistry()
        registry.gauge("junky", "Returns a string.", callback=lambda: "nope")
        registry.render()
        assert (
            registry.counter_value(CALLBACK_ERRORS_METRIC, {"metric": "junky"})
            == 1.0
        )


class TestCallbackCounters:
    """Counter families can be callback-backed, mirroring gauges.

    The memo-reconciliation counters (``repro_engine_delta_*_total``,
    ``repro_solver_clause_reuse_total``) are rendered this way: each worker
    owns its cumulative totals and the scrape-time callback replaces the
    stored series with the latest per-worker snapshot.
    """

    def test_mapping_callback_replaces_stored_series(self):
        registry = MetricsRegistry()
        totals = {label_key({"worker": "0"}): 3.0}
        registry.counter("dropped_total", "Dropped memos.", callback=lambda: totals)
        families = parse_exposition(registry.render())
        (sample,) = families["dropped_total"].samples
        assert families["dropped_total"].kind == "counter"
        assert sample.labels == {"worker": "0"}
        assert sample.value == 3.0
        # The callback owns the cumulative total: a later snapshot wins.
        totals[label_key({"worker": "0"})] = 5.0
        totals[label_key({"worker": "1"})] = 1.0
        by_worker = {
            s.labels["worker"]: s.value
            for s in parse_exposition(registry.render())["dropped_total"].samples
        }
        assert by_worker == {"0": 5.0, "1": 1.0}

    def test_bare_number_callback(self):
        registry = MetricsRegistry()
        registry.counter("reuse_total", "Clause reuse.", callback=lambda: 4)
        families = parse_exposition(registry.render())
        (sample,) = families["reuse_total"].samples
        assert sample.value == 4.0

    def test_raising_counter_callback_skips_series_and_counts_the_error(self):
        registry = MetricsRegistry()
        registry.counter("fine_total", "Always works.", callback=lambda: 1.0)

        def explode():
            raise RuntimeError("scrape-time failure")

        registry.counter("broken_total", "Always raises.", callback=explode)
        first = registry.render()  # must not raise
        assert "fine_total 1" in first
        assert "\nbroken_total " not in first  # absent, never zeroed backwards
        second = registry.render()
        assert f'{CALLBACK_ERRORS_METRIC}{{metric="broken_total"}} 1' in second

    def test_delta_counter_families_render_through_promparse(self):
        """Golden scrape: the three delta/solver families, labelled per worker."""
        families_declared = (
            "repro_engine_delta_maintained_total",
            "repro_engine_delta_dropped_total",
            "repro_solver_clause_reuse_total",
        )
        registry = MetricsRegistry()
        for index, name in enumerate(families_declared):
            registry.counter(
                name,
                f"Family #{index}.",
                callback=lambda index=index: {
                    label_key({"worker": "0"}): float(index),
                    label_key({"worker": "1"}): float(index * 10),
                },
            )
        families = parse_exposition(registry.render())
        for index, name in enumerate(families_declared):
            assert families[name].kind == "counter"
            by_worker = {s.labels["worker"]: s.value for s in families[name].samples}
            assert by_worker == {"0": float(index), "1": float(index * 10)}


class TestGoldenRoundTrip:
    def test_fully_populated_registry_parses_cleanly(self):
        registry = MetricsRegistry()
        registry.counter("req_total", "Requests.")
        registry.inc("req_total", {"endpoint": "/v1/grade", "status": "200"}, 3)
        registry.inc("req_total", {"endpoint": "/metrics", "status": "200"})
        registry.gauge("up", "Uptime flag.")
        registry.set("up", 1.0)
        registry.gauge("info", "Build info.", callback=lambda: {label_key({"version": "1.0"}): 1.0})
        registry.histogram("lat_seconds", "Latency.", buckets=(0.01, 0.1, 1.0))
        for value in (0.005, 0.05, 0.5, 5.0):
            registry.observe("lat_seconds", value, {"stage": "grade"})
        families = parse_exposition(registry.render())
        assert families["req_total"].kind == "counter"
        assert len(families["req_total"].samples) == 2
        assert families["up"].samples[0].value == 1.0
        assert families["info"].samples[0].labels == {"version": "1.0"}
        grade_count = [
            s
            for s in families["lat_seconds"].samples
            if s.name == "lat_seconds_count"
        ]
        assert [s.value for s in grade_count] == [4.0]

    def test_parser_reports_the_offending_line(self):
        text = "# TYPE ok_metric counter\nok_metric 1\nok_metric{ 2\n"
        with pytest.raises(ValueError, match="line 3"):
            parse_exposition(text)
