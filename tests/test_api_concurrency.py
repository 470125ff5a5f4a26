"""Concurrency stress tests: grading from many threads is bit-identical to serial.

The service has no thread pool of its own; these tests call
``GradingService.submit`` from their own threads, which share each dataset's
locked warm session.
"""

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.api import GradingService, SubmissionRequest
from repro.datagen import university_instance
from repro.engine.backends.sqlite import SqliteBackend
from repro.parser import parse_query
from repro.workload import course_questions


def class_batch():
    """Every question's correct query plus every handwritten mistake."""
    requests = []
    for question in course_questions():
        requests.append(
            SubmissionRequest(
                question.correct_text, question.correct_text, id=f"{question.key}/ok"
            )
        )
        for index, wrong in enumerate(question.wrong_texts):
            requests.append(
                SubmissionRequest(
                    question.correct_text, wrong, id=f"{question.key}/wrong{index}"
                )
            )
        # A malformed submission exercises the error path under the pool.
        requests.append(
            SubmissionRequest(
                question.correct_text, "\\select_{", id=f"{question.key}/crash"
            )
        )
    return requests


@pytest.fixture(scope="module")
def hidden_instance():
    return university_instance(35, seed=21)


def submit_threaded(service, requests, workers=8):
    """Grade every request through ``service.submit`` from ``workers`` threads."""
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(service.submit, requests))


def grades(service, requests, *, workers):
    graded = (
        service.submit_batch(requests)
        if workers == 1
        else submit_threaded(service, requests, workers)
    )
    return [result.to_dict(include_timings=False) for result in graded]


class TestDeterminismUnderConcurrency:
    def test_pooled_equals_serial_bit_for_bit(self, hidden_instance):
        requests = class_batch()
        serial_service = GradingService.for_instance(hidden_instance, name="hidden")
        serial = grades(serial_service, requests, workers=1)

        pooled_service = GradingService.for_instance(hidden_instance, name="hidden")
        pooled = grades(pooled_service, requests, workers=8)

        assert pooled == serial

    def test_repeated_pooled_runs_are_stable(self, hidden_instance):
        requests = class_batch()
        service = GradingService.for_instance(hidden_instance, name="hidden")
        first = grades(service, requests, workers=8)
        second = grades(service, requests, workers=8)
        assert first == second

    def test_shared_session_is_actually_shared(self, hidden_instance):
        service = GradingService.for_instance(hidden_instance, name="hidden")
        session = service.session_for()
        before = session.cache_info()["plan_misses"]
        submit_threaded(service, class_batch())
        submit_threaded(service, class_batch())
        after = session.cache_info()
        # The second batch is served from the caches: plans were only
        # compiled once per distinct query, and hits dominate misses.
        assert after["plan_misses"] > before
        assert after["plan_hits"] > 0

    def test_pooled_verdicts_match_the_oracle(self, hidden_instance):
        """Every pooled verdict is the SQLite oracle's: correct exactly when
        the reference and the submission have the same rows there."""
        requests = class_batch()
        service = GradingService.for_instance(hidden_instance, name="hidden")
        oracle = SqliteBackend(hidden_instance)
        checked = 0
        for request, graded in zip(requests, submit_threaded(service, requests)):
            assert graded.id == request.id
            if request.id.endswith("/crash"):
                assert graded.outcome.error_kind is not None
                continue
            expected = oracle.rows(parse_query(request.correct_query)) == oracle.rows(
                parse_query(request.test_query)
            )
            assert graded.correct == expected, request.id
            checked += 1
        assert checked == len(requests) - len(course_questions())

    def test_mixed_datasets_in_one_pooled_batch(self):
        service = GradingService()
        correct = "\\project_{name} \\select_{dept = 'ECON'} Registration"
        wrong = "\\project_{name} Registration"
        requests = [
            SubmissionRequest(correct, wrong, dataset="toy-university", id="toy"),
            SubmissionRequest(correct, wrong, dataset="university:20", id="gen"),
            SubmissionRequest(correct, correct, dataset="toy-university", id="ok"),
        ]
        serial = [g.to_dict(include_timings=False) for g in service.submit_batch(requests)]
        pooled = [
            g.to_dict(include_timings=False) for g in submit_threaded(service, requests, 4)
        ]
        assert pooled == serial
        assert [g["id"] for g in pooled] == ["toy", "gen", "ok"]
