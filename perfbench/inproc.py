"""The in-process workloads: one caller, ``GradingService.submit`` in a closed loop.

A run grades whole passes over a fixed pool until ``--seconds`` of timed
grading have elapsed (and at least the workload's ``min_passes``).  Each pass
sets up a freshly built dataset instance and warm session, so every pair is
new to the session it meets: repeats would measure the session memo, not the
layers under it.  Whole passes keep the mix of cheap and heavy pairs the same
in every run.

The hidden instance is the same in every run (``DATASET_SEED``), as a course
keeps one hidden instance; the benchmark seed orders the submissions.  Drawing
instances from the seed moved course-explain's grades/s from 13.8 to 24.0
between two seeds, because the q6 solves' cost depends on the instance, and
no run length averages that out.  The oracle checks the first pass; later
passes must grade bit-identically to it.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from time import perf_counter, process_time
from typing import Callable

from repro.api import DatasetRegistry, GradingService, SubmissionRequest

import inputs
import ledger
from inputs import Pair
from oracle import check_grades, in_child, repro_line
from probe import SetupTimer, SpeedProbe
from report import Report, end_to_end, peak_rss_mb

DATASET_SEED = 0
#: setup_s is the median of one set-up per pass plus, while set-up is cheap,
#: up to this many more.
MIN_SETUPS = 5


@dataclass(frozen=True)
class InProcessWorkload:
    name: str
    dataset: str
    warm_dataset: str
    pairs: Callable[[], list[Pair]]
    references: Callable[[], list[str]]
    explain: bool
    oracle: str
    #: Passes per run at least.
    min_passes: int = 3


WORKLOADS = {
    w.name: w
    for w in (
        InProcessWorkload(
            "course-explain", "university:500", "university:50",
            inputs.course_pairs, inputs.course_references,
            explain=True, oracle="reference",
        ),
        # Warms up on its own instance: on tpch:0.1 one aggregate search (Q21-S[1])
        # runs ~15 s, ten times its cost on tpch:1.
        InProcessWorkload(
            "tpch-agg", "tpch:1", "tpch:1",
            inputs.tpch_agg_pairs, inputs.tpch_references,
            explain=True, oracle="reference", min_passes=5,
        ),
        InProcessWorkload(
            "tpch-screen", "tpch:10", "tpch:0.1",
            inputs.tpch_screen_pairs, inputs.tpch_references,
            explain=False, oracle="sqlite",
        ),
    )
}


def set_up(workload: InProcessWorkload, spec: str, instance_seed: int):
    """Dataset build plus session warm-up: what a grader pays before its first grade."""
    registry = DatasetRegistry()
    handle = registry.resolve(spec, seed=instance_seed)
    handle.session.warmup(workload.references())
    service = GradingService(registry, default_dataset=spec, default_seed=instance_seed)
    return service, handle


def grade(service: GradingService, pair: Pair, explain: bool):
    graded = service.submit(SubmissionRequest(pair.correct, pair.test, explain=explain))
    return graded.outcome, graded.to_dict(include_timings=False)


def run(workload: InProcessWorkload, seed: int, seconds: float, traced_run: bool) -> Report:
    report = Report(workload.name)
    pairs = workload.pairs()

    # Warm-up on a small instance: imports and first-call costs, discarded.
    service, handle = set_up(workload, workload.warm_dataset, DATASET_SEED)
    for pair in pairs:
        grade(service, pair, workload.explain)
    del service, handle

    recorder = ledger.Recorder()
    latencies_ms: list[float] = []
    cpu_ms: list[float] = []
    #: Reads the speed kernel beside untraced grades; a traced run's untraced
    #: passes go without, so the tracing overhead compares like with like.
    probe = SpeedProbe(process_time, enabled=not traced_run)
    setups = SetupTimer()
    wall = {False: 0.0, True: 0.0}
    grades = {False: 0, True: 0}
    explained = nonoptimal = 0
    cache_delta: dict[str, int] = {}
    first_grades: dict[Pair, dict] = {}
    passes = 0
    checking = 0.0
    # A traced run pairs each traced pass with an untraced one on the same
    # instance, so the tracing overhead compares like with like.
    while passes < (2 if traced_run else workload.min_passes) or wall[False] + wall[True] < seconds or (
        traced_run and passes % 2 == 1
    ):
        traced = traced_run and passes % 2 == 1
        with setups.measure():
            service, handle = set_up(workload, workload.dataset, DATASET_SEED)
        gc.collect()
        cache_before = handle.session.cache_info()
        if traced:
            ledger.install_inprocess(recorder)
        graded, payloads = [], []
        probe.start()
        pass_start = perf_counter()
        for index, pair in enumerate(inputs.shuffled(pairs, seed, passes)):
            root = recorder.begin_op(index, "grade") if traced else None
            started = perf_counter()
            outcome, payload = grade(service, pair, workload.explain)
            elapsed = perf_counter() - started
            cost = probe.charge()
            if root is not None:
                recorder.end_op(root)
            graded.append((pair, outcome))
            payloads.append(payload)
            if not traced:
                latencies_ms.append(elapsed * 1000.0)
                cpu_ms.append(cost * 1000.0)
        wall[traced] += perf_counter() - pass_start
        probe.stop()
        grades[traced] += len(graded)
        if traced:
            recorder.unwrap_all()
            after = handle.session.cache_info()
            for key in ledger.CACHE_COUNTERS:
                cache_delta[key] = cache_delta.get(key, 0) + after[key] - cache_before[key]
        for _, outcome in graded:
            if outcome.report is not None:
                explained += 1
                nonoptimal += not outcome.report.result.optimal
        started = perf_counter()
        failures, unseen = [], []
        for (pair, outcome), payload in zip(graded, payloads):
            first = first_grades.setdefault(pair, payload)
            if first is payload:
                unseen.append((pair, outcome))
            elif first != payload:
                failures.append(
                    f"{workload.dataset} seed={DATASET_SEED} {pair.label}: grade differs from "
                    "the first pass on an identical instance\n  repro: "
                    + repro_line(pair, workload.dataset, DATASET_SEED, explain=workload.explain)
                )
        if unseen:
            failures += in_child(
                lambda: check_grades(
                    handle.instance, unseen, dataset=workload.dataset, seed=DATASET_SEED,
                    explain=workload.explain, oracle=workload.oracle,
                )
            )
        checking += perf_counter() - started
        report.attempted += len(graded)
        report.failed += len(failures)
        report.failures.extend(failures)
        del service, handle, graded, payloads
        passes += 1

    # Set-ups of a tenth of a second are mostly jitter: take a few more.
    while len(setups.raw) < MIN_SETUPS and sum(setups.raw) < 1.0:
        with setups.measure():
            set_up(workload, workload.dataset, DATASET_SEED)
    print(
        f"# {workload.name}: {passes} passes, set-up {sum(setups.raw):.1f}s, "
        f"timed {wall[False] + wall[True]:.1f}s, checks {checking:.1f}s"
    )
    if traced_run:
        recorder.dump(ledger.OUT_DIR / f"spans-{workload.name}-{seed}.jsonl")
        layers = ledger.layer_metrics(recorder, grades[True], wall[True])
        ledger.add_cache_deltas(layers, cache_delta, grades[True])
        ledger.report_layers(report, layers, grades, wall)
        return report

    end_to_end(
        report, setups=setups, probe=probe, grades=grades[False], wall_s=wall[False],
        latencies_ms=latencies_ms, rss_mb=peak_rss_mb(),
    )
    report.latency("grade_cpu_p50_ms", cpu_ms, 0.5, result=False)
    if workload.explain:
        report.metric("nonoptimal_frac", nonoptimal / explained, "ratio", explained, result=False)
    return report
