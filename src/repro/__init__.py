"""RATest reproduction: explaining wrong queries using small counterexamples.

This package reproduces the system described in "Explaining Wrong Queries
Using Small Examples" (Miao, Roy, Yang — SIGMOD 2019): given a reference
query, a test query and a database instance on which they disagree, find the
smallest sub-instance on which they still disagree.

Typical usage, one submission at a time::

    from repro import RATest
    from repro.datagen import university_instance

    instance = university_instance(num_students=50, seed=7)
    tool = RATest(instance)
    outcome = tool.check(correct_query, student_query)
    print(outcome.render())

or as a service grading whole batches over one warm session per dataset::

    from repro import GradingService, SubmissionRequest

    service = GradingService(default_dataset="university:200")
    graded = service.submit_batch(
        [SubmissionRequest(reference_text, submission_text, id="alice/q1"), ...]
    )
    print(graded[0].to_dict())   # versioned, JSON-serializable result schema
"""

from repro.api import (
    SCHEMA_VERSION,
    DatasetRegistry,
    GradedSubmission,
    GradingService,
    SubmissionRequest,
)
from repro.core import (
    CounterexampleResult,
    SmallestCounterexampleFinder,
    find_smallest_counterexample,
)
from repro.engine import EngineSession
from repro.ratest import AutoGrader, Question, RATest, RATestReport, SubmissionOutcome

#: Single source of truth for the package version: ``setup.py`` parses this
#: assignment, ``repro --version`` prints it, and the server's ``/healthz``
#: reports it, so a deployment can always be traced back to a build.
__version__ = "1.3.0"

__all__ = [
    "AutoGrader",
    "CounterexampleResult",
    "DatasetRegistry",
    "EngineSession",
    "GradedSubmission",
    "GradingService",
    "Question",
    "RATest",
    "RATestReport",
    "SCHEMA_VERSION",
    "SmallestCounterexampleFinder",
    "SubmissionOutcome",
    "SubmissionRequest",
    "find_smallest_counterexample",
    "__version__",
]
