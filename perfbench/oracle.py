"""Correctness checks, run outside the timed phase.

Verdicts are cross-checked against an oracle the repository keeps: the
reference interpreter (``repro.engine.reference``) or, where that is too slow
for the dataset, SQL from ``repro.parser.to_sql`` run on SQLite.  Every
shipped witness is re-verified with ``verify_counterexample(...,
check_minimality=False)``, which re-evaluates both queries on it and checks
FK closure.
"""

from __future__ import annotations

import json
import os
import shlex
from typing import Any, Callable, Iterable

from repro.core.verify import verify_counterexample
from repro.engine.backends.sqlite import connect_instance
from repro.engine.reference import ReferenceEvaluator
from repro.parser import to_sql
from repro.parser.ra_parser import parse_query
from repro.workload import to_dsl

from inputs import Pair


def repro_line(pair: Pair, dataset: str, seed: int, *, explain: bool = True) -> str:
    """A one-line command that regrades ``pair`` outside the benchmark."""
    words = [
        "PYTHONPATH=src", "python", "-m", "repro.cli", "explain",
        "--dataset", dataset, "--seed", str(seed),
        "--correct", to_dsl(parse_query(pair.correct)),
        "--test", to_dsl(parse_query(pair.test)),
    ]
    if not explain:
        words.append("# screening: explain=False")
    return " ".join(shlex.quote(w) if not w.startswith("#") else w for w in words)


def check_grades(
    instance: Any,
    graded: Iterable[tuple[Pair, Any]],
    *,
    dataset: str,
    seed: int,
    explain: bool,
    oracle: str = "reference",
) -> list[str]:
    """Failures among ``(pair, outcome)`` grades made on ``instance``."""
    failures: list[str] = []
    if oracle == "sqlite":
        connection = connect_instance(instance)
        rows = lambda query: set(connection.execute(to_sql(query, instance.schema)).fetchall())
    else:
        rows = lambda query: set(ReferenceEvaluator(instance, {}).rows(query))
    reference_rows: dict[str, set] = {}
    for pair, outcome in graded:
        problem = _check_one(instance, pair, outcome, explain, rows, reference_rows)
        if problem is not None:
            failures.append(
                f"{dataset} seed={seed} {pair.label}: {problem}\n  repro: "
                + repro_line(pair, dataset, seed, explain=explain)
            )
    return failures


def _check_one(instance, pair: Pair, outcome, explain: bool, rows, reference_rows: dict) -> str | None:
    if outcome.error_kind is not None:
        return f"graded as {outcome.error_kind}: {outcome.error}"
    q1, q2 = parse_query(pair.correct), parse_query(pair.test)
    if pair.correct not in reference_rows:
        reference_rows[pair.correct] = rows(q1)
    expected = reference_rows[pair.correct] == rows(q2)
    if outcome.correct != expected:
        return f"verdict correct={outcome.correct}, the oracle says {expected}"
    if expected or not explain:
        return None
    if outcome.report is None:
        return "wrong submission graded without a counterexample"
    verdict = verify_counterexample(q1, q2, instance, outcome.report.result, check_minimality=False)
    if not verdict.valid:
        return "witness rejected: " + "; ".join(verdict.issues)
    return None


def in_child(task: Callable[[], Any]) -> Any:
    """Run ``task`` in a forked child and return its JSON result.

    The check allocates reference-interpreter results; doing it in a child
    keeps them out of the measured process's heap and peak RSS.  Callers must
    not hold threads: only the forking thread survives in the child.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        status = 0
        try:
            payload = json.dumps(task()).encode()
        except BaseException as exc:  # report and exit: the child must never return
            payload = json.dumps({"child_error": repr(exc)}).encode()
            status = 1
        with os.fdopen(write_fd, "wb") as out:
            out.write(payload)
        os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as source:
        data = source.read()
    os.waitpid(pid, 0)
    result = json.loads(data) if data else {"child_error": "no output"}
    if isinstance(result, dict) and "child_error" in result:
        raise RuntimeError(f"correctness check crashed: {result['child_error']}")
    return result
