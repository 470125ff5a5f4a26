"""Tests for the GradingService: submit, batches, error kinds, adapters."""

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.api import GradedSubmission, GradingService, SubmissionRequest
from repro.datagen import toy_university_instance
from repro.errors import ReproError
from repro.ratest import RATest

CORRECT = "\\project_{name} \\select_{dept = 'ECON'} Registration"
WRONG = "\\project_{name} Registration"


@pytest.fixture(scope="module")
def service():
    return GradingService.for_instance(toy_university_instance(), name="toy")


class TestSubmit:
    def test_correct_submission(self, service):
        graded = service.submit(SubmissionRequest(CORRECT, CORRECT, id="a/q1"))
        assert graded.correct
        assert graded.id == "a/q1"
        assert graded.dataset == "toy"
        assert graded.outcome.error is None and graded.outcome.error_kind is None

    def test_wrong_submission_gets_counterexample(self, service):
        graded = service.submit(SubmissionRequest(CORRECT, WRONG))
        assert not graded.correct
        report = graded.outcome.report
        assert report is not None and report.counterexample_size > 0

    def test_original_dsl_text_is_preserved_in_report(self, service):
        graded = service.submit(SubmissionRequest(CORRECT, WRONG))
        report = graded.outcome.report
        assert report.correct_query_text == CORRECT
        assert report.test_query_text == WRONG

    def test_requests_accepted_as_plain_dicts(self, service):
        graded = service.submit({"correct": CORRECT, "test": CORRECT, "id": "d1"})
        assert graded.correct and graded.id == "d1"
        with pytest.raises(ReproError, match="correct_query"):
            service.submit({"test": CORRECT})

    def test_explain_false_skips_counterexample(self, service):
        graded = service.submit(SubmissionRequest(CORRECT, WRONG, explain=False))
        assert not graded.correct
        assert graded.outcome.report is None and graded.outcome.error is None
        assert "different result" in graded.outcome.render()

    def test_check_returns_bare_outcome(self, service):
        outcome = service.check(CORRECT, WRONG)
        assert not outcome.correct and outcome.report is not None


class TestErrorKinds:
    def test_parse_error(self, service):
        outcome = service.submit(SubmissionRequest(CORRECT, "\\select_{oops")).outcome
        assert outcome.error_kind == "parse_error"
        assert outcome.error is not None

    def test_reference_errors_are_operational_not_submission_level(self, service):
        # A broken reference query is the grader's fault: the message says
        # which side failed and the kind is operational, so the batch CLI
        # exits nonzero instead of silently failing every student.
        outcome = service.submit(SubmissionRequest("\\select_{oops", CORRECT)).outcome
        assert outcome.error_kind == "invalid_request"
        assert outcome.error.startswith("reference query:")

    def test_schema_error(self, service):
        outcome = service.submit(
            SubmissionRequest(CORRECT, "\\project_{nonexistent} Student")
        ).outcome
        assert outcome.error_kind == "schema_error"

    def test_no_counterexample_kind_for_explain_on_agreeing_pair(self, service):
        from repro.api import explain_queries
        from repro.errors import CounterexampleError

        session = service.session_for()
        with pytest.raises(CounterexampleError):
            explain_queries(session, CORRECT, CORRECT)

    def test_invalid_algorithm_is_invalid_request(self, service):
        outcome = service.submit(
            SubmissionRequest(CORRECT, WRONG, algorithm="alchemy")
        ).outcome
        assert outcome.error_kind == "invalid_request"

    def test_unknown_dataset_is_invalid_request(self, service):
        outcome = service.submit(SubmissionRequest(CORRECT, WRONG, dataset="nope")).outcome
        assert outcome.error_kind == "invalid_request"


class TestSubmitBatch:
    def test_batch_preserves_input_order_and_ids(self, service):
        requests = [
            SubmissionRequest(CORRECT, CORRECT, id="s0"),
            SubmissionRequest(CORRECT, WRONG, id="s1"),
            SubmissionRequest(CORRECT, "\\select_{oops", id="s2"),
        ]
        graded = service.submit_batch(requests)
        assert [g.id for g in graded] == ["s0", "s1", "s2"]
        assert [g.correct for g in graded] == [True, False, False]

    def test_deduplication_shares_outcomes(self, service):
        requests = [SubmissionRequest(CORRECT, WRONG, id=f"s{i}") for i in range(4)]
        graded = service.submit_batch(requests)
        assert len({id(g.outcome) for g in graded}) == 1
        assert [g.id for g in graded] == ["s0", "s1", "s2", "s3"]
        individual = [service.submit(request) for request in requests]
        assert len({id(g.outcome) for g in individual}) == 4
        assert [g.outcome.to_dict(include_timings=False) for g in graded] == [
            g.outcome.to_dict(include_timings=False) for g in individual
        ]

    def test_pooled_batch_matches_serial(self, service):
        requests = [
            SubmissionRequest(CORRECT, WRONG, id="w"),
            SubmissionRequest(CORRECT, CORRECT, id="c"),
            SubmissionRequest(CORRECT, "\\project_{oops} Student", id="e"),
        ]
        serial = service.submit_batch(requests)
        with ThreadPoolExecutor(max_workers=4) as pool:
            pooled = list(pool.map(service.submit, requests))
        assert [g.to_dict(include_timings=False) for g in serial] == [
            g.to_dict(include_timings=False) for g in pooled
        ]


class TestAdapters:
    def test_ratest_check_matches_service(self, service):
        tool = RATest(toy_university_instance())
        outcome = tool.check(CORRECT, WRONG)
        via_service = service.check(CORRECT, WRONG)
        assert outcome.to_dict(include_timings=False) == via_service.to_dict(
            include_timings=False
        )

    def test_ratest_check_preserves_original_text(self):
        tool = RATest(toy_university_instance())
        outcome = tool.check(CORRECT, WRONG)
        assert outcome.report.correct_query_text == CORRECT
        assert outcome.report.test_query_text == WRONG

    def test_graded_submission_round_trip(self, service):
        graded = service.submit(SubmissionRequest(CORRECT, WRONG, id="rt"))
        payload = graded.to_dict()
        again = GradedSubmission.from_dict(payload)
        assert again.to_dict() == payload

    def test_submission_request_round_trip(self):
        request = SubmissionRequest(
            CORRECT, WRONG, dataset="toy", id="x", algorithm="basic", explain=False
        )
        assert SubmissionRequest.from_dict(request.to_dict()) == request
