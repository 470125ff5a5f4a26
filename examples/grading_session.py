"""A course grading session, served through the batch-first GradingService.

This reproduces the workflow of §7.1/§8: students submit relational algebra
queries for the homework questions; the grading service checks them on a
*hidden* instance (much larger than the sample instance they can see); failing
submissions get a small counterexample as feedback.  Everything is graded in
one ``submit_batch`` call over a shared warm engine session, and every grade
is JSON-serializable — the script prints one grade as the JSONL the ``batch``
CLI emits.  The Table 3 effect (a larger hidden instance catches more wrong
queries) is measured through the AutoGrader adapter on top of the same
service.

Run with:  python examples/grading_session.py
"""

import json

from repro import AutoGrader, GradingService, Question, SubmissionRequest
from repro.datagen import university_instance, university_instance_with_size
from repro.workload import course_questions, course_submission_pool


def build_service(hidden_size: int = 60):
    hidden = university_instance(hidden_size, seed=2018)
    return GradingService.for_instance(hidden, name="hidden-university"), hidden


def grade_class_batch(service: GradingService) -> None:
    """A small class: every (student, question) pair graded in one batch."""
    q1, q2 = course_questions()[0], course_questions()[1]
    requests = [
        SubmissionRequest(q1.correct_text, q1.correct_text, id="alice/q1"),
        SubmissionRequest(q2.correct_text, q2.correct_text, id="alice/q2"),
        SubmissionRequest(q1.correct_text, q1.correct_text, id="bob/q1"),
        # The classic mistake: "one or more" instead of "exactly one".
        SubmissionRequest(q2.correct_text, q2.wrong_texts[0], id="bob/q2"),
    ]
    graded = service.submit_batch(requests)

    passed = sum(1 for g in graded if g.correct)
    print(f"Batch of {len(graded)} submissions: {passed} passed, {len(graded) - passed} failed\n")
    for result in graded:
        if result.correct:
            print(f"[{result.id}] PASSED")
            continue
        print(f"[{result.id}] FAILED")
        if result.outcome.report is not None:
            print()
            print(result.outcome.render())
        print()

    failed = next(g for g in graded if not g.correct)
    line = json.dumps(failed.to_dict(), sort_keys=True)
    print("The same grade as the machine-readable JSONL record (truncated):")
    print(line[:160] + f"... ({len(line)} bytes)\n")


def table3_style_sweep() -> None:
    """More test data catches more wrong queries (the Table 3 effect)."""
    pool = course_submission_pool(seed=7, mutants_per_question=15)
    questions = {
        q.key: Question(q.key, q.prompt, q.correct_query, q.difficulty)
        for q in course_questions()
    }
    print("Wrong queries discovered vs hidden instance size")
    print("(pool of", pool.total_wrong(), "wrong queries, screened via submit_batch)")
    for size in (200, 600, 1500):
        hidden = university_instance_with_size(size, seed=2018)
        grader = AutoGrader(hidden, questions)
        discovered = grader.count_discovered_wrong_queries(pool.wrong_queries)
        print(f"  |D| = {hidden.total_size():5d}  ->  {discovered} wrong queries discovered")


def main() -> None:
    service, hidden = build_service()
    print(f"Hidden grading instance: {hidden.total_size()} tuples\n")
    grade_class_batch(service)
    table3_style_sweep()


if __name__ == "__main__":
    main()
