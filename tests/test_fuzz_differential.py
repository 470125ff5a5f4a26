"""Differential fuzzing: reference interpreter vs. plan engine vs. SQLite.

Hundreds of seeded random queries (see :mod:`repro.workload.fuzz`) run on
perturbed instances through three independent evaluators:

* the pre-engine reference interpreter (``repro.engine.reference``),
* the plan-based engine (:class:`~repro.engine.session.EngineSession`),
* the SQLite oracle (:meth:`SqliteBackend.rows`), which must execute every
  query — a plan or binding it refuses fails the test,

and additionally round-trip through the DSL parser (``to_dsl`` → ``parse``).
All four row sets must be identical.  Every query without aggregation is also
annotated with Boolean how-provenance by the engine and by the reference
provenance interpreter: same rows in the same order, the same rendering of
every annotation, and the same error class when either side raises.  On
failure the assertion message is a reproduction one-liner: the seed, the
query's DSL text, and any parameter binding — paste it into
``QueryFuzzer.query(seed)`` or the CLI to replay.

``REPRO_FUZZ_BUDGET`` scales the per-instance query budget (default 300;
CI's smoke job uses a small value).  The ``slow``-marked extended run only
executes when ``REPRO_FUZZ_EXTENDED`` is set.
"""

from __future__ import annotations

import os

import pytest

from repro.catalog.instance import DatabaseInstance
from repro.catalog.schema import Attribute, DatabaseSchema, RelationSchema
from repro.catalog.types import DataType
from repro.datagen import toy_beers_instance, toy_university_instance
from repro.datagen.tpch import tpch_instance
from repro.engine.backends.sqlite import SqliteBackend
from repro.engine.reference import ReferenceEvaluator, ReferenceProvenanceEvaluator
from repro.engine.session import EngineSession
from repro.errors import ReproError
from repro.parser import parse_query
from repro.ra.ast import GroupBy
from repro.workload.fuzz import QueryFuzzer, perturb_instance

pytestmark = pytest.mark.fuzz


def _budget(default: int = 300) -> int:
    return int(os.environ.get("REPRO_FUZZ_BUDGET", default))


def _nullable_instance() -> DatabaseInstance:
    """A small schema with nullable columns: NULL semantics get exercised."""
    schema = DatabaseSchema.of(
        [
            RelationSchema.of(
                "Sensor",
                [
                    Attribute("sid", DataType.INT),
                    Attribute("room", DataType.STRING),
                    Attribute("reading", DataType.FLOAT, nullable=True),
                ],
            ),
            RelationSchema.of(
                "Room",
                [
                    Attribute("room", DataType.STRING),
                    Attribute("floor", DataType.INT),
                    Attribute("label", DataType.STRING, nullable=True),
                ],
            ),
        ]
    )
    instance = DatabaseInstance(schema)
    instance.relation("Sensor").insert_all(
        [
            (1, "r1", 20.5),
            (2, "r1", None),
            (3, "r2", 18.25),
            (4, "r3", None),
            (5, "r2", 20.5),
        ]
    )
    instance.relation("Room").insert_all(
        [("r1", 1, "lab"), ("r2", 1, None), ("r3", 2, "office"), ("r4", 2, None)]
    )
    return instance


def _instances() -> list[tuple[str, DatabaseInstance]]:
    return [
        ("university", perturb_instance(toy_university_instance(), seed=42)),
        ("beers", perturb_instance(toy_beers_instance(), seed=43)),
        ("nullable", perturb_instance(_nullable_instance(), seed=44)),
    ]


def _provenance_outcome(annotate):
    """``[(row, str(annotation)), ...]`` in row order, or the error class."""
    try:
        rows = annotate()
    except ReproError as exc:
        return type(exc)
    return [(row, str(annotation)) for row, annotation in rows.items()]


def _assert_provenance_agrees(session: EngineSession, instance, fuzz_query) -> None:
    """The engine's provenance equals the reference interpreter's, bit for bit."""
    expression, params = fuzz_query.expression, fuzz_query.params
    if any(isinstance(node, GroupBy) for node in expression.walk()):
        return  # Boolean how-provenance does not cover aggregation
    engine = _provenance_outcome(lambda: session.annotated_rows(expression, params)[1])
    reference = _provenance_outcome(
        lambda: ReferenceProvenanceEvaluator(instance, params).annotated(expression)
    )
    assert engine == reference, (
        f"provenance disagrees — reproduce with: {fuzz_query.repro()}\n"
        f"  reference: {reference if isinstance(reference, type) else len(reference)}\n"
        f"  engine:    {engine if isinstance(engine, type) else len(engine)}"
    )


def _run_differential(instance: DatabaseInstance, budget: int, *, start: int = 0) -> None:
    fuzzer = QueryFuzzer(instance.schema, instance=instance)
    python_session = EngineSession(instance)
    oracle = SqliteBackend(instance)
    for fuzz_query in fuzzer.queries(budget, start=start):
        reference = frozenset(
            ReferenceEvaluator(instance, fuzz_query.params).rows(fuzz_query.expression)
        )
        engine = python_session.evaluate(fuzz_query.expression, fuzz_query.params).rows
        sqlite = oracle.rows(fuzz_query.expression, fuzz_query.params)
        reparsed = python_session.evaluate(
            parse_query(fuzz_query.dsl), fuzz_query.params
        ).rows
        assert reference == engine == sqlite == reparsed, (
            f"evaluators disagree — reproduce with: {fuzz_query.repro()}\n"
            f"  reference: {len(reference)} rows\n"
            f"  engine:    {len(engine)} rows\n"
            f"  sqlite:    {len(sqlite)} rows\n"
            f"  reparsed:  {len(reparsed)} rows"
        )
        _assert_provenance_agrees(python_session, instance, fuzz_query)


@pytest.mark.parametrize("label,instance", _instances(), ids=lambda v: v if isinstance(v, str) else "")
def test_differential_fuzz(label, instance):
    """Seeded random queries agree bit for bit across all evaluators."""
    _run_differential(instance, _budget())


def _join_heavy_instances() -> list[tuple[str, DatabaseInstance]]:
    # Beers and TPC-H carry FK graphs deep enough for multi-hop chains;
    # perturbation leaves dangling references behind on purpose, so the
    # optimized plans must agree on dirty data too.
    return [
        ("beers", perturb_instance(toy_beers_instance(), seed=45)),
        ("tpch", perturb_instance(tpch_instance(scale=0.02), seed=46)),
    ]


@pytest.mark.parametrize(
    "label,instance", _join_heavy_instances(), ids=lambda v: v if isinstance(v, str) else ""
)
def test_differential_fuzz_join_heavy(label, instance):
    """Optimized columnar plans stay bit-identical on deep FK join trees.

    The join-heavy generator feeds the exact shapes the optimizer rewrites
    (join chains whose conjuncts sink, FK joins whose build side it picks)
    through three evaluators: the optimized Python engine, the SQLite oracle
    (pushdown-only plans, so it never sees those rewrites) and the reference
    interpreter — plus a DSL re-parse and the provenance comparison against
    the reference provenance interpreter.
    """
    budget = _budget()
    fuzzer = QueryFuzzer(
        instance.schema, instance=instance, max_depth=5, join_heavy=True
    )
    optimized = EngineSession(instance)
    oracle = SqliteBackend(instance)
    for fuzz_query in fuzzer.queries(budget):
        reference = frozenset(
            ReferenceEvaluator(instance, fuzz_query.params).rows(fuzz_query.expression)
        )
        fast = optimized.evaluate(fuzz_query.expression, fuzz_query.params).rows
        via_sqlite = oracle.rows(fuzz_query.expression, fuzz_query.params)
        reparsed = optimized.evaluate(
            parse_query(fuzz_query.dsl), fuzz_query.params
        ).rows
        assert reference == fast == via_sqlite == reparsed, (
            f"optimized plans diverge — reproduce with: {fuzz_query.repro()}\n"
            f"  reference: {len(reference)} rows\n"
            f"  optimized: {len(fast)} rows\n"
            f"  sqlite:    {len(via_sqlite)} rows\n"
            f"  reparsed:  {len(reparsed)} rows"
        )
        _assert_provenance_agrees(optimized, instance, fuzz_query)


def test_join_heavy_mode_reaches_deep_fk_joins():
    """Join-heavy generation actually produces multi-join FK trees."""
    from repro.ra.ast import Join

    instance = perturb_instance(toy_beers_instance(), seed=45)
    fuzzer = QueryFuzzer(
        instance.schema, instance=instance, max_depth=5, join_heavy=True
    )
    max_joins = 0
    for fuzz_query in fuzzer.queries(100):
        joins = sum(
            1 for node in fuzz_query.expression.walk() if isinstance(node, Join)
        )
        max_joins = max(max_joins, joins)
    assert max_joins >= 3


def test_fuzzer_is_deterministic():
    instance = perturb_instance(toy_university_instance(), seed=42)
    first = QueryFuzzer(instance.schema, instance=instance)
    second = QueryFuzzer(instance.schema, instance=instance)
    for seed in range(40):
        a, b = first.query(seed), second.query(seed)
        assert a.dsl == b.dsl
        assert a.params == b.params


def test_fuzzer_covers_every_operator():
    """The generator reaches all SPJUDA operators within a modest budget."""
    from repro.ra.ast import (
        Difference,
        GroupBy,
        Intersection,
        Join,
        NaturalJoin,
        Projection,
        Rename,
        Selection,
        Union,
    )

    instance = perturb_instance(toy_university_instance(), seed=42)
    fuzzer = QueryFuzzer(instance.schema, instance=instance)
    seen: set[type] = set()
    for fuzz_query in fuzzer.queries(300):
        seen.update(type(node) for node in fuzz_query.expression.walk())
    expected = {
        Selection,
        Projection,
        Rename,
        Join,
        NaturalJoin,
        Union,
        Difference,
        Intersection,
        GroupBy,
    }
    assert expected <= seen


def test_perturbation_changes_data_and_respects_schema():
    base = toy_university_instance()
    mutated = perturb_instance(base, seed=1)
    assert mutated.schema is base.schema
    assert {name: mutated.relation(name).value_set() for name in mutated.relation_names} != {
        name: base.relation(name).value_set() for name in base.relation_names
    }
    other = perturb_instance(base, seed=1)
    for name in base.relation_names:
        assert mutated.relation(name).value_set() == other.relation(name).value_set()


@pytest.mark.slow
@pytest.mark.skipif(
    "REPRO_FUZZ_EXTENDED" not in os.environ,
    reason="extended fuzz run only with REPRO_FUZZ_EXTENDED set",
)
@pytest.mark.parametrize("label,instance", _instances(), ids=lambda v: v if isinstance(v, str) else "")
def test_differential_fuzz_extended(label, instance):
    """A deeper sweep (fresh seed range) for nightly/extended runs."""
    budget = max(1000, 2 * _budget())
    _run_differential(instance, budget, start=10_000)
