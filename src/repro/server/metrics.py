"""Minimal Prometheus-text metrics for the grading daemon (stdlib only).

Implements just the slice of the Prometheus exposition format the server
needs: labelled counters, gauges (direct or callback-backed) and fixed-bucket
histograms, rendered as ``text/plain; version=0.0.4``.  Everything is
thread-safe; ``/metrics`` scrapes call :meth:`MetricsRegistry.render`.
"""

from __future__ import annotations

import logging
import math
import threading
from typing import Any, Callable, Iterable, Mapping

log = logging.getLogger(__name__)

Labels = Mapping[str, str] | None

#: Counter of gauge callbacks that raised (or returned junk) during a scrape;
#: declared automatically by every registry so scrape health is observable.
CALLBACK_ERRORS_METRIC = "repro_metrics_callback_errors_total"

#: Default latency buckets (seconds): sub-millisecond store lookups up to
#: multi-second counterexample searches.
LATENCY_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)


def label_key(labels: Labels) -> tuple[tuple[str, str], ...]:
    """The series key of a label set (gauge callbacks return these)."""
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _render_labels(pairs: Iterable[tuple[str, str]]) -> str:
    items = list(pairs)
    if not items:
        return ""
    body = ",".join(f'{name}="{_escape(value)}"' for name, value in items)
    return "{" + body + "}"


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


class _Histogram:
    __slots__ = ("buckets", "counts", "total", "count")

    def __init__(self, buckets: tuple[float, ...]) -> None:
        self.buckets = buckets
        self.counts = [0] * (len(buckets) + 1)  # +1 for +Inf
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[index] += 1
                break
        else:
            self.counts[-1] += 1
        self.total += value
        self.count += 1


class MetricsRegistry:
    """Declared-upfront metric families with thread-safe updates."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._help: dict[str, tuple[str, str]] = {}  # name -> (type, help)
        self._order: list[str] = []
        self._counters: dict[str, dict[tuple, float]] = {}
        self._counter_callbacks: dict[str, Callable[[], Mapping[tuple, float] | float]] = {}
        self._gauges: dict[str, dict[tuple, float]] = {}
        self._gauge_callbacks: dict[str, Callable[[], Mapping[tuple, float] | float]] = {}
        self._histograms: dict[str, dict[tuple, _Histogram]] = {}
        self._buckets: dict[str, tuple[float, ...]] = {}
        self.counter(
            CALLBACK_ERRORS_METRIC,
            "Gauge callbacks that raised during a /metrics scrape (by metric).",
        )

    # -- declaration ---------------------------------------------------------

    def _declare(self, name: str, kind: str, help_text: str) -> None:
        if name in self._help:
            raise ValueError(f"metric {name!r} already declared")
        self._help[name] = (kind, help_text)
        self._order.append(name)

    def counter(
        self,
        name: str,
        help_text: str,
        callback: Callable[[], Mapping[tuple, float] | float] | None = None,
    ) -> None:
        """A counter; with ``callback`` the series is read at scrape time.

        Callback counters mirror callback gauges: the callback returns either
        a bare number or a mapping from label-key tuples to numbers, and the
        returned values *replace* the stored series — the callback owns the
        cumulative total (e.g. a counter maintained by another process).  A
        raising callback is skipped for that scrape, which can make the
        series briefly disappear, never decrease.
        """
        self._declare(name, "counter", help_text)
        self._counters[name] = {}
        if callback is not None:
            self._counter_callbacks[name] = callback

    def gauge(
        self,
        name: str,
        help_text: str,
        callback: Callable[[], Mapping[tuple, float] | float] | None = None,
    ) -> None:
        """A gauge; with ``callback`` the value is computed at scrape time.

        Callbacks return either a bare number or a mapping from label-key
        tuples (as produced by label dicts) to numbers.
        """
        self._declare(name, "gauge", help_text)
        self._gauges[name] = {}
        if callback is not None:
            self._gauge_callbacks[name] = callback

    def histogram(
        self, name: str, help_text: str, buckets: tuple[float, ...] = LATENCY_BUCKETS
    ) -> None:
        self._declare(name, "histogram", help_text)
        self._histograms[name] = {}
        self._buckets[name] = buckets

    # -- updates -------------------------------------------------------------

    def inc(self, name: str, labels: Labels = None, value: float = 1.0) -> None:
        key = label_key(labels)
        with self._lock:
            series = self._counters[name]
            series[key] = series.get(key, 0.0) + value

    def set(self, name: str, value: float, labels: Labels = None) -> None:
        with self._lock:
            self._gauges[name][label_key(labels)] = value

    def observe(self, name: str, value: float, labels: Labels = None) -> None:
        key = label_key(labels)
        with self._lock:
            series = self._histograms[name]
            histogram = series.get(key)
            if histogram is None:
                histogram = series[key] = _Histogram(self._buckets[name])
            histogram.observe(value)

    def counter_value(self, name: str, labels: Labels = None) -> float:
        with self._lock:
            return self._counters[name].get(label_key(labels), 0.0)

    # -- rendering -----------------------------------------------------------

    def render(self) -> str:
        """The full registry in Prometheus text exposition format.

        State is snapshotted under the lock, but gauge *callbacks* run
        outside it — a callback may be slow (the worker-cache one does a
        cross-process round trip), and it must never stall the hot-path
        ``inc``/``observe`` calls for the duration of a scrape.
        """
        with self._lock:
            order = list(self._order)
            help_texts = dict(self._help)
            counters = {name: dict(series) for name, series in self._counters.items()}
            counter_callbacks = dict(self._counter_callbacks)
            gauges = {name: dict(series) for name, series in self._gauges.items()}
            callbacks = dict(self._gauge_callbacks)
            histograms = {
                name: {
                    key: (histogram.buckets, list(histogram.counts), histogram.total, histogram.count)
                    for key, histogram in series.items()
                }
                for name, series in self._histograms.items()
            }
        for name, callback in counter_callbacks.items():
            # Same failure contract as gauge callbacks below: skip the series
            # this scrape and count the error.
            try:
                produced = callback()
                if isinstance(produced, Mapping):
                    counters[name].update(produced)
                else:
                    counters[name][()] = float(produced)
            except Exception:
                log.warning("metrics counter callback %s failed", name, exc_info=True)
                self.inc(CALLBACK_ERRORS_METRIC, {"metric": name})
        for name, callback in callbacks.items():
            # A raising callback (e.g. the cross-process worker-cache scrape
            # during a worker crash) must not kill the whole exposition: skip
            # just that series and count the failure.  The error counter was
            # snapshotted before callbacks ran, so the increment becomes
            # visible on the *next* scrape — acceptable for a monotonically
            # increasing counter.
            try:
                produced = callback()
                if isinstance(produced, Mapping):
                    gauges[name].update(produced)
                else:
                    gauges[name][()] = float(produced)
            except Exception:
                log.warning("metrics gauge callback %s failed", name, exc_info=True)
                self.inc(CALLBACK_ERRORS_METRIC, {"metric": name})
        lines: list[str] = []
        for name in order:
            kind, help_text = help_texts[name]
            lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {kind}")
            if kind == "counter":
                series = counters[name]
                for key in sorted(series):
                    lines.append(f"{name}{_render_labels(key)} {_format(series[key])}")
            elif kind == "gauge":
                series = gauges[name]
                for key in sorted(series):
                    lines.append(f"{name}{_render_labels(key)} {_format(series[key])}")
            else:
                lines.extend(self._render_histogram(name, histograms[name]))
        return "\n".join(lines) + "\n"

    @staticmethod
    def _render_histogram(name: str, series: dict[tuple, tuple]) -> list[str]:
        lines = []
        for key in sorted(series):
            buckets, counts, total, count = series[key]
            cumulative = 0
            for bound, bucket_count in zip((*buckets, math.inf), counts):
                cumulative += bucket_count
                labels = (*key, ("le", _format(bound)))
                lines.append(f"{name}_bucket{_render_labels(labels)} {cumulative}")
            lines.append(f"{name}_sum{_render_labels(key)} {_format(total)}")
            lines.append(f"{name}_count{_render_labels(key)} {count}")
        return lines


__all__ = ["LATENCY_BUCKETS", "MetricsRegistry", "label_key"]
