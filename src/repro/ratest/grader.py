"""Auto-grader: test submissions against hidden instances (§7.1, Table 3).

The course workflow the paper describes is: every submission is evaluated on a
hidden test instance; submissions whose result differs from the reference
query "fail the auto-grader" and the student is shown limited feedback (with
RATest, a small counterexample).  The grader here reproduces that pipeline and
is what the Table 3 experiment ("|D| vs number of wrong queries discovered")
runs.

Since the :mod:`repro.api` redesign the grader is a thin adapter over a
:class:`~repro.api.service.GradingService` bound to the hidden instance:
grading goes through ``submit``/``submit_batch`` (so it shares the warm
session, error classification and JSON-serializable outcomes), with
``explain=False`` screening for the pass/fail decision.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

from repro.catalog.instance import DatabaseInstance
from repro.ra.ast import RAExpression

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (api imports ratest)
    from repro.api.service import SubmissionRequest


@dataclass(frozen=True)
class Question:
    """A homework question: an identifier, a prompt and the reference query."""

    key: str
    prompt: str
    correct_query: RAExpression
    difficulty: int = 1  # 1 (easy) .. 5 (very hard)


@dataclass
class GradeEntry:
    """Grading outcome of one (student, question) submission."""

    question: str
    passed: bool
    error: str | None = None
    counterexample_size: int | None = None


@dataclass
class GradeReport:
    """Grading outcomes for one submission set."""

    entries: list[GradeEntry] = field(default_factory=list)

    @property
    def num_passed(self) -> int:
        return sum(1 for entry in self.entries if entry.passed)

    @property
    def num_failed(self) -> int:
        return len(self.entries) - self.num_passed


class AutoGrader:
    """Grade query submissions against reference queries on a hidden instance."""

    def __init__(self, instance: DatabaseInstance, questions: Mapping[str, Question]) -> None:
        from repro.api.service import GradingService

        self.instance = instance
        self.questions = dict(questions)
        self.service = GradingService.for_instance(instance, name="hidden")
        # Resolve each reference expression once (Question.correct_query may
        # re-parse per access) and warm the shared session with it.
        self._correct_queries = {
            key: question.correct_query for key, question in self.questions.items()
        }
        session = self.service.session_for()
        for expression in self._correct_queries.values():
            session.evaluate(expression)

    def _request(
        self, question_key: str, submission: RAExpression, *, explain: bool
    ) -> "SubmissionRequest":
        from repro.api.service import SubmissionRequest

        return SubmissionRequest(
            correct_query=self._correct_queries[question_key],
            test_query=submission,
            id=question_key,
            explain=explain,
        )

    @staticmethod
    def _entry(question_key: str, graded) -> GradeEntry:
        outcome = graded.outcome
        entry = GradeEntry(
            question=question_key, passed=outcome.correct, error=outcome.error
        )
        if outcome.report is not None:
            entry.counterexample_size = outcome.report.counterexample_size
        return entry

    def grade_one(
        self,
        question_key: str,
        submission: RAExpression,
        *,
        explain: bool = False,
    ) -> GradeEntry:
        """Grade a single submission; optionally attach a counterexample size."""
        graded = self.service.submit(self._request(question_key, submission, explain=explain))
        return self._entry(question_key, graded)

    def grade(
        self,
        submissions: Mapping[str, RAExpression],
        *,
        explain: bool = False,
    ) -> GradeReport:
        """Grade a mapping of question key to submitted query."""
        report = GradeReport()
        known = [
            (key, submission)
            for key, submission in submissions.items()
            if key in self.questions
        ]
        graded = self.service.submit_batch(
            [self._request(key, submission, explain=explain) for key, submission in known]
        )
        entries = {key: self._entry(key, result) for (key, _), result in zip(known, graded)}
        for question_key in submissions:
            if question_key in entries:
                report.entries.append(entries[question_key])
            else:
                report.entries.append(
                    GradeEntry(question=question_key, passed=False, error="unknown question")
                )
        return report

    def count_discovered_wrong_queries(
        self, wrong_queries: Mapping[str, list[RAExpression]]
    ) -> int:
        """How many of the supplied wrong queries the hidden instance catches.

        This is the measurement reported in Table 3: a wrong query is
        *discovered* when its result differs from the reference query's result
        on the test instance (a small instance may miss corner cases).
        Queries that crash are certainly wrong, and errors make the outcome
        incorrect, so a simple "not correct" count matches the old semantics.
        """
        requests = [
            self._request(question_key, query, explain=False)
            for question_key, queries in wrong_queries.items()
            for query in queries
        ]
        graded = self.service.submit_batch(requests)
        return sum(1 for result in graded if not result.outcome.correct)
