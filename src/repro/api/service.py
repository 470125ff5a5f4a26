"""The batch-first grading service: RATest as a many-submission API.

The paper's system is a web auto-grader: many students submit queries against
a few shared hidden instances.  :class:`GradingService` is that shape as a
library API — :meth:`~GradingService.submit` grades one
``(reference, submission)`` pair, :meth:`~GradingService.submit_batch` grades
many in order (each distinct pair once), and every result is a
JSON-serializable :class:`GradedSubmission` (see
:mod:`repro.api.serialization`), so grades can cross a process boundary.

All submissions against one dataset share a single warm
:class:`~repro.engine.session.EngineSession` (resolved through a
:class:`~repro.api.registry.DatasetRegistry`): the reference query is planned
and evaluated once, not once per submission, and the session's internal lock
makes that sharing safe when callers grade from several threads.  Threads
buy no throughput here (the lock and the GIL serialise the work); parallel
grading is the daemon's worker-process pool (:mod:`repro.server`).

The module also hosts the single-submission workflow functions
(:func:`grade_queries`, :func:`explain_queries`) that the legacy
:class:`~repro.ratest.system.RATest` facade now delegates to.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Iterable, Mapping, Sequence

from repro.api.registry import DatasetHandle, DatasetRegistry, default_registry
from repro.api.serialization import (
    SCHEMA_VERSION,
    check_version,
    outcome_from_dict,
    outcome_to_dict,
)
from repro.catalog.instance import DatabaseInstance
from repro.core.finder import find_smallest_counterexample
from repro.engine.session import EngineSession
from repro.obs.trace import span as obs_span
from repro.errors import (
    CounterexampleError,
    NotApplicableError,
    ParseError,
    QueryEvaluationError,
    ReproError,
    SchemaError,
    SolverError,
)
from repro.parser.ra_parser import parse_query
from repro.ra.ast import RAExpression
from repro.ratest.report import RATestReport
from repro.ratest.system import SubmissionOutcome

QueryLike = RAExpression | str


# ---------------------------------------------------------------------------
# Error classification (the outcome's machine-readable ``error_kind``)
# ---------------------------------------------------------------------------


def classify_error(exc: BaseException) -> str:
    """Map an exception to a stable ``error_kind`` label.

    ``parse_error`` and ``schema_error`` are the submitter's fault;
    ``evaluation_error`` and ``no_counterexample`` describe what the engine
    found; ``not_applicable``/``solver_error``/``invalid_request`` are
    operational; ``internal_error`` means a genuine bug.
    """
    if isinstance(exc, ParseError):
        return "parse_error"
    if isinstance(exc, SchemaError):
        return "schema_error"
    if isinstance(exc, QueryEvaluationError):
        return "evaluation_error"
    if isinstance(exc, CounterexampleError):
        return "no_counterexample"
    if isinstance(exc, NotApplicableError):
        return "not_applicable"
    if isinstance(exc, SolverError):
        return "solver_error"
    if isinstance(exc, ReproError):
        return "invalid_request"
    return "internal_error"


def _error_outcome(exc: BaseException, *, reference: bool = False) -> SubmissionOutcome:
    kind = classify_error(exc)
    message = str(exc)
    if reference:
        # A broken *reference* query is the grader's fault, not the
        # submitter's: whatever went wrong, the request was invalid, and
        # callers (e.g. the batch CLI) treat that as an operational failure.
        message = f"reference query: {message}"
        if kind not in ("internal_error",):
            kind = "invalid_request"
    if kind == "internal_error":
        message = f"internal error: {message}"
    return SubmissionOutcome(correct=False, error=message, error_kind=kind)


# ---------------------------------------------------------------------------
# Single-submission workflows over a shared session
# ---------------------------------------------------------------------------


def _parse(query: QueryLike) -> RAExpression:
    if isinstance(query, RAExpression):
        return query
    return parse_query(query)


def display_text(query: QueryLike) -> str:
    """The text shown for a query in reports: the user's DSL text, verbatim."""
    return query if isinstance(query, str) else str(query)


def explain_queries(
    session: EngineSession,
    correct_query: QueryLike,
    test_query: QueryLike,
    *,
    algorithm: str = "auto",
    params: Mapping[str, Any] | None = None,
    correct_text: str | None = None,
    test_text: str | None = None,
    **options: Any,
) -> RATestReport:
    """Smallest-counterexample report for two differing queries.

    Raises :class:`CounterexampleError` when the queries agree on the
    session's instance; :func:`grade_queries` wraps the full workflow.
    """
    expr1, expr2 = _parse(correct_query), _parse(test_query)
    result = find_smallest_counterexample(
        expr1,
        expr2,
        session.instance,
        algorithm=algorithm,
        params=params,
        session=session,
        **options,
    )
    return RATestReport(
        correct_query_text=correct_text if correct_text is not None else display_text(correct_query),
        test_query_text=test_text if test_text is not None else display_text(test_query),
        result=result,
    )


def grade_queries(
    session: EngineSession,
    correct_query: QueryLike,
    test_query: QueryLike,
    *,
    algorithm: str = "auto",
    params: Mapping[str, Any] | None = None,
    explain: bool = True,
    **options: Any,
) -> SubmissionOutcome:
    """The full submission workflow: agree → correct, differ → explanation.

    Never raises: parse, schema, evaluation and internal failures all become
    outcomes with a machine-readable ``error_kind``.  With ``explain=False``
    a differing submission is reported wrong without computing a
    counterexample (the auto-grader's screening mode).
    """
    try:
        with obs_span("grade.parse", query="reference"):
            expr1 = _parse(correct_query)
    except Exception as exc:
        return _error_outcome(exc, reference=True)
    try:
        with obs_span("grade.parse", query="submission"):
            expr2 = _parse(test_query)
    except Exception as exc:
        return _error_outcome(exc)
    try:
        with obs_span("grade.reference_eval"):
            reference = session.evaluate(expr1, params)
    except Exception as exc:
        return _error_outcome(exc, reference=True)
    try:
        with obs_span("grade.submission_eval"):
            submitted = session.evaluate(expr2, params)
    except Exception as exc:
        return _error_outcome(exc)
    if submitted.same_rows(reference):
        return SubmissionOutcome(correct=True)
    if not explain:
        return SubmissionOutcome(correct=False)
    try:
        # The counterexample span: the SAT solver's per-solve counters land
        # here ambiently (see repro.solver.sat.SATSolver.solve).
        with obs_span("grade.explain", algorithm=algorithm):
            report = explain_queries(
                session,
                expr1,
                expr2,
                algorithm=algorithm,
                params=params,
                correct_text=display_text(correct_query),
                test_text=display_text(test_query),
                **options,
            )
    except Exception as exc:
        return _error_outcome(exc)
    return SubmissionOutcome(correct=False, report=report)


# ---------------------------------------------------------------------------
# Requests and graded results
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SubmissionRequest:
    """One unit of grading work: a (reference, submission) pair plus routing.

    ``dataset`` is a registry spec (``None`` → the service default);
    ``explain=False`` skips the counterexample on mismatch (screening mode);
    ``options`` are forwarded to the counterexample algorithm.
    """

    correct_query: QueryLike
    test_query: QueryLike
    dataset: str | None = None
    seed: int | None = None
    id: str | None = None
    algorithm: str = "auto"
    params: Mapping[str, Any] | None = None
    explain: bool = True
    options: Mapping[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        """The JSONL submission format consumed by ``repro.cli batch``."""
        out: dict[str, Any] = {
            "correct_query": display_text(self.correct_query),
            "test_query": display_text(self.test_query),
        }
        if self.dataset is not None:
            out["dataset"] = self.dataset
        if self.seed is not None:
            out["seed"] = self.seed
        if self.id is not None:
            out["id"] = self.id
        if self.algorithm != "auto":
            out["algorithm"] = self.algorithm
        if self.params:
            out["params"] = dict(self.params)
        if not self.explain:
            out["explain"] = False
        if self.options:
            out["options"] = dict(self.options)
        return out

    @staticmethod
    def from_dict(payload: Mapping[str, Any]) -> "SubmissionRequest":
        """Read a request dict; ``correct``/``test`` are accepted as aliases.

        Payloads come straight off the wire (the batch CLI, the HTTP server),
        so every field is type-checked here and violations raise
        :class:`~repro.errors.ReproError` (→ ``error_kind="invalid_request"``)
        rather than surfacing later as confusing internal errors.
        """
        if not isinstance(payload, Mapping):
            raise ReproError(
                f"submission request must be a JSON object, got {type(payload).__name__}"
            )
        correct = payload.get("correct_query", payload.get("correct"))
        test = payload.get("test_query", payload.get("test"))
        if correct is None or test is None:
            raise ReproError(
                "submission request needs 'correct_query' and 'test_query' "
                "(aliases: 'correct', 'test')"
            )

        def expect(name: str, value: Any, kinds: tuple[type, ...], what: str) -> Any:
            if value is not None and not isinstance(value, kinds):
                raise ReproError(
                    f"submission request field {name!r} must be {what}, "
                    f"got {type(value).__name__}"
                )
            return value

        expect("correct_query", correct, (str, RAExpression), "query text")
        expect("test_query", test, (str, RAExpression), "query text")
        seed = expect("seed", payload.get("seed"), (int,), "an integer")
        if isinstance(seed, bool):
            raise ReproError("submission request field 'seed' must be an integer")
        return SubmissionRequest(
            correct_query=correct,
            test_query=test,
            dataset=expect("dataset", payload.get("dataset"), (str,), "a dataset spec string"),
            seed=seed,
            id=expect("id", payload.get("id"), (str,), "a string"),
            algorithm=expect(
                "algorithm", payload.get("algorithm", "auto"), (str,), "a string"
            ),
            params=expect("params", payload.get("params"), (Mapping,), "an object"),
            explain=bool(payload.get("explain", True)),
            options=expect("options", payload.get("options", {}), (Mapping,), "an object"),
        )


@dataclass
class GradedSubmission:
    """A graded request: the outcome plus the routing that produced it."""

    outcome: SubmissionOutcome
    id: str | None = None
    dataset: str | None = None
    seed: int = 0
    wall_time: float = 0.0

    @property
    def correct(self) -> bool:
        return self.outcome.correct

    def to_dict(self, *, include_timings: bool = True) -> dict[str, Any]:
        """JSON-compatible payload (the JSONL grade format of ``cli batch``).

        ``include_timings=False`` omits wall-clock fields, leaving a fully
        deterministic payload — used to assert serial and threaded grading
        produce identical results.
        """
        out: dict[str, Any] = {
            "schema_version": SCHEMA_VERSION,
            "id": self.id,
            "dataset": self.dataset,
            "seed": self.seed,
            "correct": self.outcome.correct,
            "outcome": outcome_to_dict(self.outcome, include_timings=include_timings),
        }
        if include_timings:
            out["wall_time"] = self.wall_time
        return out

    @staticmethod
    def from_dict(payload: Mapping[str, Any]) -> "GradedSubmission":
        check_version(payload, "graded submission")
        return GradedSubmission(
            outcome=outcome_from_dict(payload["outcome"]),
            id=payload.get("id"),
            dataset=payload.get("dataset"),
            seed=payload.get("seed", 0),
            wall_time=payload.get("wall_time", 0.0),
        )


# ---------------------------------------------------------------------------
# The service
# ---------------------------------------------------------------------------


class GradingService:
    """Grade many submissions against shared, named, warm datasets.

    One service holds one :class:`DatasetRegistry`; every submission names a
    dataset spec (or uses the service default) and is graded on that
    dataset's shared engine session.
    """

    def __init__(
        self,
        registry: DatasetRegistry | None = None,
        *,
        default_dataset: str = "toy-university",
        default_seed: int = 0,
    ) -> None:
        self.registry = registry if registry is not None else default_registry()
        self.default_dataset = default_dataset
        self.default_seed = default_seed

    @classmethod
    def for_instance(
        cls, instance: DatabaseInstance, *, name: str = "custom"
    ) -> "GradingService":
        """A service bound to one pre-built (e.g. hidden course) instance."""
        registry = DatasetRegistry()
        registry.register_instance(name, instance)
        return cls(registry, default_dataset=name)

    # -- dataset access ------------------------------------------------------

    def handle_for(self, dataset: str | None = None, seed: int | None = None) -> DatasetHandle:
        return self.registry.resolve(
            dataset if dataset is not None else self.default_dataset,
            seed=self.default_seed if seed is None else seed,
        )

    def session_for(self, dataset: str | None = None, seed: int | None = None) -> EngineSession:
        """The shared warm session for a dataset (mainly for tests/benchmarks)."""
        return self.handle_for(dataset, seed).session

    # -- mutation ------------------------------------------------------------

    def mutate(self, payload: Mapping[str, Any]) -> dict[str, Any]:
        """Apply an edit stream to a dataset's shared instance, in order.

        ``payload`` is ``{"dataset": spec?, "seed": int?, "operations": [...]}``
        where each operation is one of::

            {"op": "insert", "relation": name, "values": [...], "tid": str?}
            {"op": "delete", "tid": tid}
            {"op": "update", "tid": tid, "values": [...]}

        Mutations go through :class:`~repro.catalog.instance.DatabaseInstance`'s
        mutation API, which bumps each edited relation's version.  The
        dataset's warm engine session then drops the memo entries that scan
        an edited relation and keeps the rest (``apply_delta``).  Returns the
        applied-operation count, the instance's new data version, and the
        session's ``delta_maintained``/``delta_dropped`` increments.  Operations
        are validated and applied one by one; the first bad operation raises
        with nothing further applied (earlier operations stay applied — the
        caller sees ``data_version`` and can reconcile).
        """
        operations = payload.get("operations")
        if not isinstance(operations, list):
            raise ReproError('mutate payload must carry "operations": [...]')
        dataset = payload.get("dataset")
        seed = payload.get("seed")
        handle = self.handle_for(
            dataset if isinstance(dataset, str) else None,
            seed if isinstance(seed, int) else None,
        )
        instance = handle.instance
        applied = 0
        for index, operation in enumerate(operations):
            if not isinstance(operation, Mapping):
                raise ReproError(f"operation #{index} is not an object")
            op = operation.get("op")
            try:
                if op == "insert":
                    instance.insert(
                        str(operation["relation"]),
                        tuple(operation["values"]),
                        tid=operation.get("tid"),
                    )
                elif op == "delete":
                    instance.delete(str(operation["tid"]))
                elif op == "update":
                    instance.update(str(operation["tid"]), tuple(operation["values"]))
                else:
                    raise ReproError(
                        f'operation #{index}: unknown op {op!r} '
                        '(expected "insert", "delete" or "update")'
                    )
            except ReproError:
                raise
            except KeyError as exc:
                raise ReproError(f"operation #{index}: {exc.args[0]}") from None
            except Exception as exc:
                raise ReproError(f"operation #{index}: {exc}") from None
            applied += 1
        counters = handle.session.apply_delta()
        return {
            "dataset": handle.spec,
            "applied": applied,
            "data_version": instance.data_version,
            "delta": counters,
        }

    # -- grading -------------------------------------------------------------

    def check(
        self,
        correct_query: QueryLike,
        test_query: QueryLike,
        *,
        dataset: str | None = None,
        seed: int | None = None,
        algorithm: str = "auto",
        params: Mapping[str, Any] | None = None,
        explain: bool = True,
        **options: Any,
    ) -> SubmissionOutcome:
        """Grade one pair and return the bare outcome (no routing envelope)."""
        return self.submit(
            SubmissionRequest(
                correct_query=correct_query,
                test_query=test_query,
                dataset=dataset,
                seed=seed,
                algorithm=algorithm,
                params=params,
                explain=explain,
                options=options,
            )
        ).outcome

    def submit(self, request: SubmissionRequest | Mapping[str, Any]) -> GradedSubmission:
        """Grade one request; never raises for per-submission failures."""
        request = self._coerce(request)
        spec = request.dataset if request.dataset is not None else self.default_dataset
        seed = self.default_seed if request.seed is None else request.seed
        start = perf_counter()
        try:
            handle = self.handle_for(spec, seed)
        except Exception as exc:
            outcome = _error_outcome(exc)
        else:
            # Report the handle's *effective* routing: instance-backed
            # datasets ignore spec arguments and seeds, and the recorded
            # provenance must match what actually produced the grade.
            spec, seed = handle.spec, handle.seed
            outcome = grade_queries(
                handle.session,
                request.correct_query,
                request.test_query,
                algorithm=request.algorithm,
                params=request.params,
                explain=request.explain,
                **dict(request.options),
            )
        return GradedSubmission(
            outcome=outcome,
            id=request.id,
            dataset=spec,
            seed=seed,
            wall_time=perf_counter() - start,
        )

    def submit_batch(
        self, requests: Iterable[SubmissionRequest | Mapping[str, Any]]
    ) -> list[GradedSubmission]:
        """Grade many requests, preserving input order in the result list.

        Each distinct (dataset, seed, pair, algorithm, params, options) group
        is graded once and its outcome fanned out to every matching request — in a class, many students
        submit the same classic mistake, and one counterexample explains all
        of them.  Outcomes are unaffected; only redundant work is skipped.
        Members of one group *share* the outcome object (treat it as
        read-only), and only the graded representative carries the group's
        ``wall_time`` — duplicates report ``0.0``, so summing per-grade times
        yields the batch's true cost.
        """
        coerced: Sequence[SubmissionRequest] = [self._coerce(r) for r in requests]
        groups: dict[Any, list[int]] = {}
        for index, request in enumerate(coerced):
            groups.setdefault(self._grading_key(request), []).append(index)
        members = list(groups.values())
        graded = [self.submit(coerced[group[0]]) for group in members]
        results: list[GradedSubmission | None] = [None] * len(coerced)
        for group, result in zip(members, graded):
            for index in group:
                request = coerced[index]
                results[index] = GradedSubmission(
                    outcome=result.outcome,
                    id=request.id,
                    dataset=result.dataset,
                    seed=result.seed,
                    wall_time=result.wall_time if index == group[0] else 0.0,
                )
        return results  # type: ignore[return-value]

    def _grading_key(self, request: SubmissionRequest) -> Any:
        """Hashable identity of the grading work a request demands.

        Unhashable params/options (or exotic query objects) opt out of
        deduplication by returning a unique key.
        """
        key = (
            request.dataset if request.dataset is not None else self.default_dataset,
            self.default_seed if request.seed is None else request.seed,
            request.correct_query,
            request.test_query,
            request.algorithm,
            None if request.params is None else tuple(sorted(request.params.items())),
            request.explain,
            tuple(sorted(request.options.items())) if request.options else (),
        )
        try:
            hash(key)
        except TypeError:
            return object()
        return key

    @staticmethod
    def _coerce(request: SubmissionRequest | Mapping[str, Any]) -> SubmissionRequest:
        if isinstance(request, SubmissionRequest):
            return request
        return SubmissionRequest.from_dict(request)
