"""Differential fuzzing of warm sessions across edits vs. cold truth.

A warm :class:`~repro.engine.session.EngineSession` keeps every memoized
subplan result whose plan scans no edited relation, and drops the rest.
That is only sound if a warm, repeatedly-edited session is *bit-identical*
to a session built from scratch on the mutated data — which is exactly what
this suite checks, under seeded random edit streams.

Each trial: build an instance, warm one session on a pool of fuzzer-generated
queries, then loop rounds of random single-tuple edits (insert / delete /
update, schema-typed values).  After every round each pool query is evaluated
three ways — the warm session, a fresh cold session, and the pre-engine
reference interpreter — and all row sets must agree exactly.  On failure the
assertion message is a reproduction one-liner: the trial seed, the round
number, the edit log of that round, and the query's DSL text.  Edits draw
rows in tid order, so the trial seed alone fixes the edit stream, whatever
``PYTHONHASHSEED`` is.

``REPRO_FUZZ_BUDGET`` scales the trial count (default 6 trials x 5 rounds);
the suite also asserts that edits really dropped warm entries, so the test
cannot silently degrade into cold-vs-cold.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path
from typing import Any

import pytest

from repro.catalog.instance import DatabaseInstance
from repro.catalog.types import DataType
from repro.datagen import toy_beers_instance, toy_university_instance
from repro.engine.reference import ReferenceEvaluator
from repro.engine.session import EngineSession
from repro.errors import NotApplicableError
from repro.workload.fuzz import QueryFuzzer, perturb_instance

pytestmark = pytest.mark.fuzz

QUERY_POOL = 12  # queries warmed per trial
ROUNDS = 5  # mutation rounds per trial
EDITS_PER_ROUND = 4  # single-tuple edits per round


def _trials(default: int = 6) -> int:
    budget = int(os.environ.get("REPRO_FUZZ_BUDGET", default * 50))
    return max(1, budget // 50)


def _fresh_value(rng: random.Random, dtype: DataType) -> Any:
    if dtype is DataType.INT:
        return rng.randint(0, 999)
    if dtype is DataType.FLOAT:
        return round(rng.uniform(0.0, 99.0), 2)
    if dtype is DataType.BOOL:
        return rng.random() < 0.5
    return f"d{rng.randint(0, 999)}"


def _random_values(rng: random.Random, instance: DatabaseInstance, name: str) -> tuple:
    """A schema-typed row: each column drawn from live rows (in tid order)
    or freshly made."""
    relation = instance.relation(name)
    rows = [values for _, values in relation.tuples()]
    values = []
    for position, attribute in enumerate(relation.schema.attributes):
        if rows and rng.random() < 0.7:
            values.append(rng.choice(rows)[position])
        else:
            values.append(_fresh_value(rng, attribute.dtype))
    return tuple(values)


def _mutate_once(rng: random.Random, instance: DatabaseInstance, name: str) -> str:
    """Apply one random edit to ``name``; returns a human-readable log entry."""
    relation = instance.relation(name)
    tids = relation.tids()
    op = rng.choice(("insert", "delete", "update")) if tids else "insert"
    if op == "insert":
        values = _random_values(rng, instance, name)
        tid = relation.insert(values)
        return f"insert {tid} {values!r}"
    tid = rng.choice(tids)
    if op == "delete":
        values = relation.delete(tid)
        return f"delete {tid} {values!r}"
    values = _random_values(rng, instance, name)
    relation.update(tid, values)
    return f"update {tid} {values!r}"


def _run_trial(instance: DatabaseInstance, trial_seed: int) -> dict:
    """One warm-vs-cold fuzz trial; returns the warm session's stats."""
    rng = random.Random(trial_seed)
    fuzzer = QueryFuzzer(instance.schema, instance=instance)
    pool = list(fuzzer.queries(QUERY_POOL, start=trial_seed * QUERY_POOL))
    warm = EngineSession(instance)
    for fuzz_query in pool:
        warm.evaluate(fuzz_query.expression, fuzz_query.params)
    names = list(instance.relation_names)
    for round_number in range(ROUNDS):
        edits = [
            _mutate_once(rng, instance, rng.choice(names))
            for _ in range(EDITS_PER_ROUND)
        ]
        cold = EngineSession(instance)
        for fuzz_query in pool:
            patched = warm.evaluate(fuzz_query.expression, fuzz_query.params).rows
            scratch = cold.evaluate(fuzz_query.expression, fuzz_query.params).rows
            reference = frozenset(
                ReferenceEvaluator(instance, fuzz_query.params).rows(
                    fuzz_query.expression
                )
            )
            assert patched == scratch == reference, (
                f"warm session diverged — reproduce with: "
                f"trial_seed={trial_seed} round={round_number} "
                f"{fuzz_query.repro()}\n"
                f"  edits this round: {edits}\n"
                f"  warm:      {len(patched)} rows\n"
                f"  cold:      {len(scratch)} rows\n"
                f"  reference: {len(reference)} rows"
            )
    return warm.stats


@pytest.mark.parametrize("label", ["university", "beers"])
def test_differential_delta_fuzz(label):
    """Random edit streams leave warm sessions bit-identical to cold ones."""
    builders = {
        "university": (toy_university_instance, 17),
        "beers": (toy_beers_instance, 53),
    }
    builder, salt = builders[label]
    dropped = 0
    for trial in range(_trials()):
        seed = 1000 * trial + salt
        instance = perturb_instance(builder(), seed=seed)
        stats = _run_trial(instance, trial_seed=seed)
        dropped += stats["delta_dropped"]
    # The edits must actually reach warm entries; otherwise the warm session
    # never recomputes anything and the trials compare nothing an edit moved.
    assert dropped > 0



@pytest.mark.parametrize("label", ["university", "beers"])
def test_provenance_survives_edit_streams(label):
    """Warm provenance entries (kept or recomputed) match a cold session's,
    annotation for annotation, after every round of random edits."""
    builder = {"university": toy_university_instance, "beers": toy_beers_instance}[label]
    seed = 71
    instance = perturb_instance(builder(), seed=seed)
    rng = random.Random(seed)
    fuzzer = QueryFuzzer(instance.schema, instance=instance)
    warm = EngineSession(instance)
    pool = []
    for fuzz_query in fuzzer.queries(QUERY_POOL, start=seed * QUERY_POOL):
        try:
            warm.annotated_rows(fuzz_query.expression, fuzz_query.params)
        except NotApplicableError:  # aggregates have no Boolean provenance
            continue
        pool.append(fuzz_query)
    assert pool
    names = list(instance.relation_names)
    for round_number in range(ROUNDS):
        edits = [
            _mutate_once(rng, instance, rng.choice(names))
            for _ in range(EDITS_PER_ROUND)
        ]
        cold = EngineSession(instance)
        for fuzz_query in pool:
            assert warm.annotated_rows(
                fuzz_query.expression, fuzz_query.params
            ) == cold.annotated_rows(fuzz_query.expression, fuzz_query.params), (
                f"warm provenance diverged — round={round_number} "
                f"{fuzz_query.repro()}\n  edits this round: {edits}"
            )
    assert warm.stats["delta_dropped"] > 0

_EDIT_STREAM_SCRIPT = """
import random
from test_differential_delta import _mutate_once
from repro.datagen import toy_university_instance
from repro.workload.fuzz import perturb_instance
instance = perturb_instance(toy_university_instance(), seed=17)
rng = random.Random(17)
names = list(instance.relation_names)
for _ in range(20):
    print(_mutate_once(rng, instance, rng.choice(names)))
"""


def _edit_stream(hash_seed: str) -> str:
    tests = Path(__file__).resolve().parent
    env = {
        **os.environ,
        "PYTHONHASHSEED": hash_seed,
        "PYTHONPATH": os.pathsep.join([str(tests.parent / "src"), str(tests)]),
    }
    return subprocess.run(
        [sys.executable, "-c", _EDIT_STREAM_SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    ).stdout


def test_repro_one_liner_replays_a_failure_scenario():
    """The trial seed printed on failure fixes the edit stream, whatever the
    interpreter's string-hash seed."""
    first = _edit_stream("1")
    assert first.count("\n") == 20
    assert _edit_stream("3") == first
