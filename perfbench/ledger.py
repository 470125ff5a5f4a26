"""Spans recorded from outside the program, and the per-layer ledger built from them.

The traced run wraps public functions at the names their callers look them
up (``repro.core.optsigma.foreign_key_clauses``, not ``repro.core.fk``), so
no file under ``src/`` changes.  Spans stay in memory until the run ends.
A layer's self time is its spans' durations minus the time their child spans
cover; the benchmark's own per-operation spans are the roots, and whatever no
layer claims is reported as the unattributed remainder.
"""

from __future__ import annotations

import importlib
import json
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterable

#: Where runs write their spans and the daemon its temporary store (git-ignored).
OUT_DIR = Path(__file__).resolve().parent / "out"
#: Layers of the program, named after its modules under ``src/repro``.
LAYERS = ("parser", "engine", "provenance", "core", "solver", "api", "server")


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float = 0.0
    parent: int | None = None
    op: int | None = None
    children_time: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Recorder:
    """Spans (name, layer, start, end, parent, operation id) plus counters."""

    spans: list[Span] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    _stack: list[int] = field(default_factory=list)
    _op: int | None = None
    _patches: list[tuple[Any, str, Any]] = field(default_factory=list)

    # -- spans ---------------------------------------------------------------

    def open(self, name: str, layer: str) -> int:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, layer, perf_counter(), parent=parent, op=self._op)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index: int) -> None:
        span = self.spans[index]
        span.end = perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {span.name} closed out of order")
        if span.parent is not None:
            self.spans[span.parent].children_time += span.duration

    def add_child(self, parent: int, name: str, layer: str, duration: float) -> int:
        """Attach an already-measured span (e.g. one reported by the daemon)."""
        span = Span(name, layer, 0.0, duration, parent=parent, op=self._op)
        self.spans.append(span)
        self.spans[parent].children_time += duration
        return len(self.spans) - 1

    def begin_op(self, op: int, name: str) -> int:
        """Open the root span of one benchmark operation (a grade or an edit)."""
        self._op = op
        return self.open(name, "bench")

    def end_op(self, index: int) -> None:
        self.close(index)
        self._op = None

    def count(self, name: str, value: float) -> None:
        self.counters[name] += value

    # -- wrappers ------------------------------------------------------------

    def wrap(
        self,
        target: str,
        name: str,
        layer: str,
        *,
        observe: Callable[["Recorder", Any], None] | None = None,
        snapshot: Callable[[tuple], Any] | None = None,
        after: Callable[["Recorder", tuple, Any], None] | None = None,
        span: bool = True,
    ) -> None:
        """Replace ``module.attr`` or ``module.Class.attr`` with a recording wrapper.

        ``observe`` sees the result, ``snapshot``/``after`` the arguments
        before and after the call.  A target that no longer exists stops the
        run: a moved or renamed function would otherwise read as a layer that
        got faster, when it was simply no longer measured.
        """
        owner, attr = _resolve(target)
        original = getattr(owner, attr)
        recorder = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            before = snapshot(args) if snapshot is not None else None
            index = recorder.open(name, layer) if span else None
            try:
                result = original(*args, **kwargs)
            finally:
                if index is not None:
                    recorder.close(index)
                if after is not None:
                    after(recorder, args, before)
            if observe is not None:
                observe(recorder, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def unwrap_all(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- ledger --------------------------------------------------------------

    def inclusive_ms(self, name: str) -> float:
        """Total milliseconds inside spans called ``name`` (outermost calls only)."""
        total = 0.0
        for span in self.spans:
            if span.name == name and not self._has_ancestor_named(span, name):
                total += span.duration
        return total * 1000.0

    def _has_ancestor_named(self, span: Span, name: str) -> bool:
        parent = span.parent
        while parent is not None:
            if self.spans[parent].name == name:
                return True
            parent = self.spans[parent].parent
        return False

    def self_ms_by_layer(self) -> dict[str, float]:
        """Self time per layer in ms; the benchmark's root spans count as ``bench``."""
        totals = {layer: 0.0 for layer in (*LAYERS, "bench")}
        for span in self.spans:
            totals[span.layer] = totals.get(span.layer, 0.0) + span.duration - span.children_time
        return {layer: value * 1000.0 for layer, value in totals.items()}

    def dump(self, path: Path) -> None:
        """Write every span as one JSON line (daemon spans carry start 0)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps({
                    "name": span.name, "layer": span.layer, "start": span.start,
                    "end": span.end, "parent": span.parent, "op": span.op,
                }) + "\n")


def _resolve(target: str) -> tuple[Any, str]:
    """The object holding ``target``'s last name; ``LookupError`` if it is gone."""
    path, _, attr = target.rpartition(".")
    parts = path.split(".")
    for split in range(len(parts), 0, -1):
        try:
            owner: Any = importlib.import_module(".".join(parts[:split]))
        except ModuleNotFoundError:
            continue
        try:
            for part in parts[split:]:
                owner = getattr(owner, part)
            getattr(owner, attr)
        except AttributeError:
            break
        return owner, attr
    raise LookupError(f"trace target {target} no longer exists; update perfbench/ledger.py")


# -- the in-process wrapper set ------------------------------------------------


def _sat_snapshot(args: tuple) -> tuple[int, int, int]:
    stats = args[0].stats
    return (stats.decisions, stats.conflicts, stats.propagations)


def _sat_after(recorder: Recorder, args: tuple, before: Any) -> None:
    stats = args[0].stats
    recorder.count("solver.sat_decisions", stats.decisions - before[0])
    recorder.count("solver.sat_conflicts", stats.conflicts - before[1])
    recorder.count("solver.sat_propagations", stats.propagations - before[2])


def _fk_observe(recorder: Recorder, result: Any) -> None:
    recorder.count("core.fk_clause_count", len(result))


def _explain_observe(recorder: Recorder, result: Any) -> None:
    recorder.count("core.witness_tuples", result.size)


def _agg_observe(recorder: Recorder, result: Any) -> None:
    recorder.count("solver.agg_nodes", result.nodes_explored)
    recorder.count("solver.agg_budget_exhausted", 1 if result.timed_out else 0)


def install_inprocess(recorder: Recorder) -> None:
    """Wrap each layer's public entry points where the grading path calls them."""
    targets: Iterable[tuple] = (
        ("repro.api.service.GradingService.submit", "api.submit", "api", {}),
        ("repro.api.service.GradedSubmission.to_dict", "api.serialize", "api", {}),
        ("repro.api.service.parse_query", "parser.parse", "parser", {}),
        ("repro.engine.session.EngineSession.evaluate", "engine.eval", "engine", {}),
        ("repro.api.service.find_smallest_counterexample", "core.explain", "core", {"observe": _explain_observe}),
        ("repro.core.optsigma.pick_witness_target", "core.target", "core", {}),
        ("repro.core.optsigma.foreign_key_clauses", "core.fk_clauses", "core", {"observe": _fk_observe}),
        ("repro.core.aggregates.foreign_key_clauses", "core.fk_clauses", "core", {"observe": _fk_observe}),
        ("repro.core.optsigma.finalize_result", "core.finalize", "core", {}),
        ("repro.core.aggregates.finalize_result", "core.finalize", "core", {}),
        ("repro.core.optsigma.annotate_cached", "provenance.annotate", "provenance", {}),
        ("repro.core.aggregates.annotate_cached", "provenance.annotate", "provenance", {}),
        ("repro.core.aggregates.annotate_aggregate_query", "provenance.agg_annotate", "provenance", {}),
        ("repro.solver.minones.MinOnesSolver.minimize", "solver.minones", "solver", {}),
        ("repro.solver.theory.AggregateSolver.solve", "solver.agg", "solver", {"observe": _agg_observe}),
        (
            "repro.solver.sat.SATSolver.solve",
            "solver.sat",
            "solver",
            {"snapshot": _sat_snapshot, "after": _sat_after, "span": False},
        ),
    )
    for target, name, layer, options in targets:
        recorder.wrap(target, name, layer, **options)


# -- the per-layer ledger ------------------------------------------------------

#: Every per-layer metric and its unit.  Times and counts are per grade.
PER_LAYER: dict[str, str] = {
    "parser.parse_ms": "ms",
    "engine.eval_ms": "ms",
    "engine.result_hit_ratio": "ratio",
    "engine.plan_misses": "count",
    "engine.delta_maintained": "count",
    "engine.delta_fallback": "count",
    "provenance.annotate_ms": "ms",
    "provenance.agg_annotate_ms": "ms",
    "core.target_ms": "ms",
    "core.fk_clauses_ms": "ms",
    "core.fk_clause_count": "count",
    "core.finalize_ms": "ms",
    "core.explain_ms": "ms",
    "core.explain_other_ms": "ms",
    "core.witness_tuples": "count",
    "solver.minones_ms": "ms",
    "solver.sat_decisions": "count",
    "solver.sat_conflicts": "count",
    "solver.sat_propagations": "count",
    "solver.clause_reuse": "count",
    "solver.agg_ms": "ms",
    "solver.agg_nodes": "count",
    "solver.agg_budget_exhausted": "count",
    "api.submit_ms": "ms",
    "api.serialize_ms": "ms",
    "server.client_ms": "ms",
    "server.store_hit_ratio": "ratio",
    "server.store_lookup_ms": "ms",
    "server.queue_wait_ms": "ms",
    "server.worker_grade_ms": "ms",
    "server.store_write_ms": "ms",
    "server.daemon_total_ms": "ms",
    "server.http_other_ms": "ms",
    "server.edit_ms": "ms",
    "server.purged_grades": "count",
    **{f"self.{layer}_ms": "ms" for layer in LAYERS},
    "self.unattributed_ms": "ms",
    "trace.wall_ms": "ms",
    "trace.untraced_grades_per_s": "1/s",
    "trace.traced_grades_per_s": "1/s",
    "trace.overhead": "ratio",
}

#: Spans whose inclusive time is a per-layer metric (``<name>_ms``).
_TIMED_SPANS = (
    "parser.parse", "engine.eval", "provenance.annotate", "provenance.agg_annotate",
    "core.target", "core.fk_clauses", "core.finalize", "core.explain",
    "solver.minones", "solver.agg", "api.submit", "api.serialize",
)


def layer_metrics(recorder: Recorder, grades: int, wall_s: float) -> dict[str, float]:
    """Per-grade layer metrics from the traced passes; zero where a layer did no work.

    The layer self times plus ``self.unattributed_ms`` add up to
    ``trace.wall_ms``, the traced wall time per grade.
    """
    out = {name: 0.0 for name in PER_LAYER}
    for name in _TIMED_SPANS:
        out[f"{name}_ms"] = recorder.inclusive_ms(name) / grades
    for name, value in recorder.counters.items():
        out[name] = value / grades
    out["core.explain_other_ms"] = sum(
        s.duration - s.children_time for s in recorder.spans if s.name == "core.explain"
    ) * 1000.0 / grades
    self_ms = recorder.self_ms_by_layer()
    for layer in LAYERS:
        out[f"self.{layer}_ms"] = self_ms[layer] / grades
    wall_ms = wall_s * 1000.0
    out["trace.wall_ms"] = wall_ms / grades
    out["self.unattributed_ms"] = (wall_ms - sum(self_ms[layer] for layer in LAYERS)) / grades
    return out


#: ``cache_info()`` counters whose deltas over the traced passes feed the ledger.
CACHE_COUNTERS = ("result_hits", "result_misses", "plan_misses", "solver_clause_reuse")


def add_cache_deltas(out: dict[str, float], delta: dict[str, float], grades: int) -> None:
    """Engine and solver cache metrics from ``CACHE_COUNTERS`` deltas."""
    hits = delta.get("result_hits", 0)
    lookups = hits + delta.get("result_misses", 0)
    out["engine.result_hit_ratio"] = hits / lookups if lookups else 0.0
    out["engine.plan_misses"] = delta.get("plan_misses", 0) / grades
    out["solver.clause_reuse"] = delta.get("solver_clause_reuse", 0) / grades


def report_layers(report: Any, out: dict[str, float], grades: dict[bool, int], wall: dict[bool, float]) -> None:
    """Add the tracing overhead, then put every per-layer metric in the report.

    The overhead compares traced against untraced grades/s of the same run.
    """
    untraced = grades[False] / wall[False]
    traced = grades[True] / wall[True]
    out["trace.untraced_grades_per_s"] = untraced
    out["trace.traced_grades_per_s"] = traced
    out["trace.overhead"] = 1.0 - traced / untraced
    for name, value in out.items():
        report.metric(name, value, PER_LAYER[name], grades[True])
