"""Percentiles, host facts and the result line."""

from __future__ import annotations

import json
import math
import os
import platform
from statistics import median
from typing import Any

from probe import SetupTimer, SpeedProbe


def percentile(values: list[float], q: float) -> tuple[float, int] | None:
    """Nearest-rank ``q`` percentile and the count of samples beyond it.

    ``None`` when fewer than ten samples lie beyond it: such a percentile is
    one or two samples' worth of noise.
    """
    if not values:
        return None
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    beyond = len(ordered) - rank
    if q > 0.5 and beyond < 10:
        return None
    return ordered[rank - 1], beyond


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set size (VmHWM) of a process, in MB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def _stat_fields(pid: int | str) -> list[str]:
    """Fields of ``/proc/<pid>/stat`` after the command name (state is field 0)."""
    with open(f"/proc/{pid}/stat") as stat:
        return stat.read().rsplit(")", 1)[1].split()


def cpu_seconds(pids: list[int]) -> float:
    """CPU time of the live threads of processes, in seconds (nanosecond resolution).

    Read from ``/proc/<pid>/task/<tid>/schedstat``, so one operation of a
    millisecond is measured, not rounded to a clock tick.
    """
    nanoseconds = 0
    for pid in pids:
        for tid in os.listdir(f"/proc/{pid}/task"):
            try:
                with open(f"/proc/{pid}/task/{tid}/schedstat") as stat:
                    nanoseconds += int(stat.read().split()[0])
            except OSError:  # the thread ended between listing and reading
                continue
    return nanoseconds / 1e9


def children_of(pid: int) -> list[int]:
    """Direct children of ``pid`` (the daemon's worker processes)."""
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            parent = int(_stat_fields(entry)[1])
        except OSError:
            continue
        if parent == pid:
            children.append(int(entry))
    return children


def host_facts() -> dict[str, Any]:
    return {
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
    }


class Report:
    """Collects metrics and failures; prints a readable table, then the result line."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.metrics: dict[str, dict[str, Any]] = {}
        self.extra: dict[str, dict[str, Any]] = {}
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0

    def metric(
        self, name: str, value: float, unit: str, samples: int, *, result: bool = True, beyond: int | None = None
    ) -> None:
        """Record a metric; ``result=False`` prints it without putting it in the result line."""
        entry: dict[str, Any] = {"value": float(value), "unit": unit, "samples": samples}
        if beyond is not None:
            entry["beyond"] = beyond
        (self.metrics if result else self.extra)[name] = entry

    def latency(self, name: str, values_ms: list[float], q: float, *, result: bool) -> None:
        found = percentile(values_ms, q)
        if found is None:
            print(f"# {self.workload} {name}: not reported, fewer than 10 of {len(values_ms)} samples beyond it")
            return
        value, beyond = found
        self.metric(name, value, "ms", len(values_ms), result=result, beyond=beyond)

    def emit(self, host: dict[str, Any]) -> None:
        print(f"# {self.workload} host: {json.dumps(host, sort_keys=True)}")
        for name, entry in {**self.metrics, **self.extra}.items():
            note = f" ({entry['beyond']} beyond)" if "beyond" in entry else ""
            print(f"# {self.workload} {name} = {entry['value']:.6g} {entry['unit']} (n={entry['samples']}){note}")
        for failure in self.failures:
            print(f"# FAILED {failure}")
        result = {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": entry["value"], "unit": entry["unit"]}
                for name, entry in self.metrics.items()
            },
        }
        print(json.dumps(result), flush=True)


def end_to_end(
    report: Report, *, setups: SetupTimer, probe: SpeedProbe, grades: int, wall_s: float,
    latencies_ms: list[float], rss_mb: float,
) -> None:
    """The end-to-end metrics every workload reports; the bounded ones go in the result line."""
    report.metric("setup_s", median(setups.scaled), "s", len(setups.scaled))
    report.metric("grades_per_cpu_s", grades / probe.scaled_s, "1/s", grades)
    report.metric("setup_raw_s", median(setups.raw), "s", len(setups.raw), result=False)
    report.metric("grades_per_raw_cpu_s", grades / probe.raw_s, "1/s", grades, result=False)
    report.metric("probe_ms", median(probe.reads) * 1000.0, "ms", len(probe.reads), result=False)
    report.metric("peak_rss_mb", rss_mb, "MB", 1)
    report.metric("grades_per_s", grades / wall_s, "1/s", grades, result=False)
    report.latency("grade_p50_ms", latencies_ms, 0.5, result=False)
    report.latency("grade_p90_ms", latencies_ms, 0.9, result=False)
    report.metric("error_rate", report.failed / report.attempted, "ratio", report.attempted, result=False)
