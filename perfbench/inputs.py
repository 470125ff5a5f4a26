"""Workload inputs, generated from the benchmark seed.

Every pool has a fixed composition; the seed picks the order in which pairs
arrive (and the row ``http-class`` edits).  Pools whose content varied with
the seed would move throughput by which heavy pairs happened to be drawn, not
by what the program did with them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.datagen.tpch import tpch_schema
from repro.ra.ast import Join, RAExpression
from repro.ra.evaluator import split_equijoin_conjuncts
from repro.workload import course_questions, course_submission_pool, generate_mutants, to_dsl
from repro.workload import tpch_queries

#: Large enough that every usable mutant of every question is kept, so the
#: pool's content does not depend on the seed (85 wrong queries).
_ALL_MUTANTS = 10**6


@dataclass(frozen=True)
class Pair:
    """One (reference, submission) pair, with a label for repro lines."""

    label: str
    correct: str
    test: str


def derive(seed: int, *salt: object) -> int:
    """A sub-seed that depends only on ``seed`` and ``salt``, never on hashing."""
    return random.Random(f"perfbench-{seed}-" + "-".join(map(str, salt))).randrange(2**31)


def shuffled(pairs: list[Pair], seed: int, *salt: object) -> list[Pair]:
    out = list(pairs)
    random.Random(derive(seed, "order", *salt)).shuffle(out)
    return out


def course_pairs() -> list[Pair]:
    """Every wrong submission of the course pool: handwritten plus mutants."""
    pool = course_submission_pool(seed=0, mutants_per_question=_ALL_MUTANTS)
    pairs = []
    for question in course_questions():
        for description, query in zip(
            pool.descriptions[question.key], pool.wrong_queries[question.key]
        ):
            pairs.append(
                Pair(f"{question.key}: {description}", question.correct_text, to_dsl(query))
            )
    return pairs


def course_references() -> list[str]:
    return [question.correct_text for question in course_questions()]


def tpch_agg_pairs() -> list[Pair]:
    """The ten canned wrong TPC-H pairs (two per query)."""
    return [
        Pair(f"{query.key}[{index}]", query.correct_text, wrong)
        for query in tpch_queries()
        for index, wrong in enumerate(query.wrong_texts)
    ]


def tpch_references() -> list[str]:
    return [query.correct_text for query in tpch_queries()]


def _equi_join_deficit(query: RAExpression) -> int:
    """Theta joins without an equi-join conjunct (the paper's cross-product exclusion)."""
    schema = tpch_schema()
    deficit = 0
    for node in query.walk():
        if isinstance(node, Join):
            left = node.left.output_schema(schema)
            right = node.right.output_schema(schema)
            pairs, _ = split_equijoin_conjuncts(node.effective_predicate(), left, right)
            if not pairs:
                deficit += 1
    return deficit


def tpch_screen_pairs() -> list[Pair]:
    """Single-step mutants of the TPC-H queries that keep every join key.

    Mutant text goes through ``to_dsl``: ``str()`` of an expression is not
    parseable DSL, and would turn the workload into a parser-error benchmark.
    """
    schema = tpch_schema()
    pairs = []
    for query in tpch_queries():
        correct = query.correct_query
        allowed = _equi_join_deficit(correct)
        for mutant in generate_mutants(correct, max_mutants=None):
            try:
                mutant.query.output_schema(schema)
            except Exception:
                continue
            if _equi_join_deficit(mutant.query) > allowed:
                continue
            pairs.append(
                Pair(f"{query.key}: {mutant.description}", query.correct_text, to_dsl(mutant.query))
            )
    return pairs


def class_round(
    pair_count: int, seed: int, index: int, *, distinct: int, repeats: int
) -> list[tuple[int, ...]]:
    """One round of the simulated class: every pair requested, in cycles.

    Each cycle requests ``distinct`` pairs ``repeats`` times each in shuffled
    order; the caller edits the dataset after each cycle.
    """
    rng = random.Random(derive(seed, "class", index))
    order = list(range(pair_count))
    rng.shuffle(order)
    cycles = []
    for start in range(0, pair_count, distinct):
        requests = [pair for pair in order[start : start + distinct] for _ in range(repeats)]
        rng.shuffle(requests)
        cycles.append(tuple(requests))
    return cycles


def edit_row(instance, seed: int) -> list:
    """A Registration row for an existing student in a course they do not take."""
    rng = random.Random(derive(seed, "edit"))
    students = sorted(values[0] for _, values in instance.relation("Student").tuples())
    taken = {(values[0], values[1]) for _, values in instance.relation("Registration").tuples()}
    courses = sorted({values[1:3] for _, values in instance.relation("Registration").tuples()})
    while True:
        name = rng.choice(students)
        course, dept = rng.choice(courses)
        if (name, course) not in taken:
            return [name, course, dept, rng.randint(60, 100)]
