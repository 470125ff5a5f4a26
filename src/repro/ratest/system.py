"""The end-to-end RATest system facade (§6).

:class:`RATest` binds a (hidden) test database instance and answers the
question students and developers actually ask: *"is my query equivalent to the
reference query on the test data — and if not, show me a small counterexample
I can read."*  Queries may be passed as relational algebra expression objects
or as text in the RA DSL.

Since the :mod:`repro.api` redesign this facade is a thin adapter: the
grading workflow itself lives in :func:`repro.api.service.grade_queries`,
shared with the batch-first :class:`~repro.api.service.GradingService`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from repro.catalog.instance import DatabaseInstance
from repro.engine.session import EngineSession
from repro.parser.ra_parser import parse_query
from repro.ra.ast import RAExpression
from repro.ratest.report import RATestReport

QueryLike = RAExpression | str


@dataclass
class SubmissionOutcome:
    """Outcome of one submission: either 'correct' or a counterexample report.

    A wrong submission carries a :class:`RATestReport` when a counterexample
    was computed, or nothing when it was graded in screening mode
    (``explain=False``).  Failures carry a human-readable ``error`` plus a
    machine-readable ``error_kind`` (``parse_error``, ``schema_error``,
    ``evaluation_error``, ``no_counterexample``, ``not_applicable``,
    ``solver_error``, ``invalid_request``, ``internal_error``).
    """

    correct: bool
    report: RATestReport | None = None
    error: str | None = None
    error_kind: str | None = None

    def render(self) -> str:
        if self.correct:
            return "Your query matches the reference query on the test database."
        if self.report is not None:
            return self.report.render()
        if self.error is None:
            return "Your query returns a different result from the reference query."
        return f"Your query could not be checked: {self.error}"

    def to_dict(self, *, include_timings: bool = True) -> dict[str, Any]:
        """Versioned JSON-compatible payload (see :mod:`repro.api.serialization`)."""
        from repro.api.serialization import outcome_to_dict

        return outcome_to_dict(self, include_timings=include_timings)

    @staticmethod
    def from_dict(payload: Mapping[str, Any]) -> "SubmissionOutcome":
        from repro.api.serialization import outcome_from_dict

        return outcome_from_dict(payload)


class RATest:
    """Check test queries against a reference query over a bound instance.

    All evaluation runs through one :class:`EngineSession`: the reference
    query is planned and evaluated once per instance, not once per
    submission, and the counterexample algorithms reuse the same caches.
    """

    def __init__(self, instance: DatabaseInstance) -> None:
        self.instance = instance
        self.session = EngineSession(instance)

    # -- parsing -------------------------------------------------------------

    def parse(self, query: QueryLike) -> RAExpression:
        if isinstance(query, RAExpression):
            return query
        return parse_query(query)

    # -- checking ------------------------------------------------------------

    def queries_agree(
        self, q1: QueryLike, q2: QueryLike, params: Mapping[str, Any] | None = None
    ) -> bool:
        """True when the two queries return the same rows on the bound instance."""
        expr1, expr2 = self.parse(q1), self.parse(q2)
        return self.session.evaluate(expr1, params).same_rows(
            self.session.evaluate(expr2, params)
        )

    def explain(
        self,
        correct_query: QueryLike,
        test_query: QueryLike,
        *,
        algorithm: str = "auto",
        params: Mapping[str, Any] | None = None,
        **options: Any,
    ) -> RATestReport:
        """Smallest-counterexample explanation of why the two queries differ.

        Raises :class:`CounterexampleError` when the queries agree on the
        instance (use :meth:`check` for the full submission workflow).
        """
        from repro.api.service import explain_queries

        return explain_queries(
            self.session,
            correct_query,
            test_query,
            algorithm=algorithm,
            params=params,
            **options,
        )

    def check(
        self,
        correct_query: QueryLike,
        test_query: QueryLike,
        *,
        algorithm: str = "auto",
        params: Mapping[str, Any] | None = None,
        **options: Any,
    ) -> SubmissionOutcome:
        """The full submission workflow: agree → correct, differ → explanation.

        The submitted query texts are preserved verbatim in the report
        (``correct_query_text``/``test_query_text``), and failures are
        classified through the outcome's ``error_kind``.
        """
        from repro.api.service import grade_queries

        return grade_queries(
            self.session,
            correct_query,
            test_query,
            algorithm=algorithm,
            params=params,
            **options,
        )
