"""The service-shaped public API: batched, warm, serialization-native.

This package is the primary entry point for consuming the RATest
reproduction as a *service* rather than a one-query-at-a-time library:

* :class:`~repro.api.registry.DatasetRegistry` resolves dataset specs
  (``"university:200"``, ``"tpch:0.01"``, custom instances) to cached
  instance + warm engine-session pairs;
* :class:`~repro.api.service.GradingService` grades single submissions
  (:meth:`~repro.api.service.GradingService.submit`) or whole batches,
  each distinct pair once (:meth:`~repro.api.service.GradingService.submit_batch`);
* :mod:`repro.api.serialization` defines the versioned JSON result schema
  every outcome serializes to (``SCHEMA_VERSION``).

The legacy :class:`~repro.ratest.system.RATest` facade and
:class:`~repro.ratest.grader.AutoGrader` are thin adapters over this layer.
"""

from repro.api.registry import DatasetHandle, DatasetRegistry, default_registry
from repro.api.serialization import (
    SCHEMA_VERSION,
    SerializationError,
    counterexample_result_from_dict,
    counterexample_result_to_dict,
    instance_from_dict,
    instance_to_dict,
    outcome_from_dict,
    outcome_to_dict,
    report_from_dict,
    report_to_dict,
    result_set_from_dict,
    result_set_to_dict,
)
from repro.api.service import (
    GradedSubmission,
    GradingService,
    SubmissionRequest,
    classify_error,
    explain_queries,
    grade_queries,
)

__all__ = [
    "SCHEMA_VERSION",
    "DatasetHandle",
    "DatasetRegistry",
    "GradedSubmission",
    "GradingService",
    "SerializationError",
    "SubmissionRequest",
    "classify_error",
    "counterexample_result_from_dict",
    "counterexample_result_to_dict",
    "default_registry",
    "explain_queries",
    "grade_queries",
    "instance_from_dict",
    "instance_to_dict",
    "outcome_from_dict",
    "outcome_to_dict",
    "report_from_dict",
    "report_to_dict",
    "result_set_from_dict",
    "result_set_to_dict",
]
