"""Command-line interface for the RATest reproduction.

Five subcommands cover the common workflows:

``demo``
    Run the paper's running example end to end and print the counterexample.

``explain``
    Read a reference query and a test query (RA DSL text, from files or
    inline), evaluate them on one of the built-in datasets and print the
    smallest-counterexample report (``--json`` for the machine-readable
    outcome instead of ASCII).

``batch``
    Grade a JSONL stream of submissions concurrently through the
    :class:`~repro.api.service.GradingService` and write one JSON grade per
    line.  Each input line is a :class:`~repro.api.service.SubmissionRequest`
    payload, e.g.::

        {"id": "alice/q1", "dataset": "university:200",
         "correct": "\\project_{name} Student", "test": "Student"}

    With ``--server URL`` the same stream is graded by a running grading
    daemon instead of in process (the CLI client mode); each grade then also
    records whether it was served from the daemon's persistent result store.

``serve``
    Run the grading daemon: an HTTP frontend over a pool of worker processes
    and a persistent SQLite result store (see :mod:`repro.server`).  With
    ``--cluster-self NAME`` and repeated ``--peer NAME=URL`` flags the daemon
    joins a shared-nothing cluster: requests for ``(dataset, seed)`` keys it
    does not own are proxied to the owning peer (see :mod:`repro.cluster`).

``cluster``
    Boot and supervise N ``serve`` daemons on this host as one cluster —
    the one-command way to run a multi-shard grading service locally.

``experiments``
    Re-run the paper's tables and figures at a chosen scale profile and write
    the markdown report.

Examples::

    python -m repro.cli demo
    python -m repro.cli explain --dataset university:200 \
        --correct correct.ra --test submission.ra
    python -m repro.cli batch --input submissions.jsonl
    python -m repro.cli serve --port 8080 --workers 4 --store grades.sqlite3
    python -m repro.cli batch --server http://127.0.0.1:8080 \
        --input submissions.jsonl
    python -m repro.cli cluster --shards 4 --base-port 9000 --workers 2
    python -m repro.cli experiments --profile quick --output results.md
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro import __version__
from repro.api import GradingService, SubmissionRequest, default_registry
from repro.catalog.instance import DatabaseInstance
from repro.errors import ReproError
from repro.ratest import RATest


def load_dataset(spec: str, *, seed: int = 0) -> DatabaseInstance:
    """Build a dataset instance from a spec like ``university:500`` or ``tpch:0.1``.

    Supported datasets: ``toy-university``, ``university[:num_students]``,
    ``toy-beers``, ``beers[:num_drinkers]``, ``tpch[:scale]`` — plus anything
    registered on the default :class:`~repro.api.registry.DatasetRegistry`.
    Returns a fresh, caller-owned instance (the grading service resolves
    shared cached handles instead).
    """
    return default_registry().build(spec, seed=seed)


def _read_query(value: str) -> str:
    """Treat the argument as a file path when it exists, otherwise as DSL text."""
    path = Path(value)
    if path.exists():
        return path.read_text()
    return value


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro.datagen import toy_university_instance
    from repro.workload import course_questions

    instance = toy_university_instance()
    question = course_questions()[1]
    tool = RATest(instance)
    outcome = tool.check(question.correct_query, question.handwritten_wrong_queries[0])
    print(f"Question: {question.prompt}\n")
    print(outcome.render())
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    instance = load_dataset(args.dataset, seed=args.seed)
    tool = RATest(instance)
    correct = _read_query(args.correct)
    test = _read_query(args.test)
    analyses: dict[str, object] = {}
    if args.analyze:
        # Analyze before grading: the session memo is still cold, so the
        # operator tree shows real per-operator rows and timings instead of
        # one cached root.  Queries that fail to parse or validate are
        # reported by the grade outcome below, not here.
        for label, text in (("reference", correct), ("submission", test)):
            try:
                analyses[label] = tool.session.explain_analyze(tool.parse(text))
            except Exception as exc:  # noqa: BLE001 — keep grading anyway
                analyses[label] = f"not analyzable: {exc}"
    outcome = tool.check(correct, test, algorithm=args.algorithm)
    if args.json:
        payload = outcome.to_dict()
        if args.analyze:
            payload["analyze"] = {
                label: analysis.to_dict() if hasattr(analysis, "to_dict") else str(analysis)
                for label, analysis in analyses.items()
            }
        print(json.dumps(payload, indent=2))
    else:
        print(outcome.render())
        for label, analysis in analyses.items():
            print(f"\nEXPLAIN ANALYZE ({label} query):")
            print(analysis.render() if hasattr(analysis, "render") else f"  {analysis}")
    if outcome.correct:
        return 0
    return 1 if outcome.report is not None else 2


#: Error kinds that mean the *tool or request* failed, not the submission —
#: a batch run containing one exits nonzero so pipelines notice.
OPERATIONAL_ERROR_KINDS = {
    "invalid_request",
    "internal_error",
    "solver_error",
    "not_applicable",
    "overloaded",
    "unavailable",
}


def _read_requests(args: argparse.Namespace) -> list[SubmissionRequest]:
    if args.input == "-":
        lines = sys.stdin.read().splitlines()
    else:
        try:
            lines = Path(args.input).read_text().splitlines()
        except OSError as exc:
            raise ReproError(f"cannot read {args.input}: {exc}") from None
    requests = []
    for number, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ReproError(f"{args.input}:{number}: not valid JSON: {exc}") from None
        try:
            requests.append(SubmissionRequest.from_dict(payload))
        except ReproError as exc:
            raise ReproError(f"{args.input}:{number}: {exc}") from None
    return requests


def _write_jsonl(args: argparse.Namespace, payloads: list[dict]) -> None:
    out_lines = [json.dumps(payload, sort_keys=True) for payload in payloads]
    text = "\n".join(out_lines) + ("\n" if out_lines else "")
    if args.output == "-":
        sys.stdout.write(text)
    else:
        try:
            Path(args.output).write_text(text)
        except OSError as exc:
            raise ReproError(f"cannot write {args.output}: {exc}") from None


def _cmd_batch(args: argparse.Namespace) -> int:
    requests = _read_requests(args)

    if args.server:
        # CLI client mode: grade through a running daemon instead of in
        # process, so repeated workloads hit its persistent result store.
        from repro.server.client import GradingClient

        with GradingClient(args.server) as client:
            envelopes = client.grade_batch(requests)
        _write_jsonl(args, envelopes)
        num_correct = sum(1 for envelope in envelopes if envelope["correct"])
        num_error = sum(
            1 for envelope in envelopes if envelope["outcome"].get("error") is not None
        )
        num_hits = sum(1 for envelope in envelopes if envelope.get("store") == "hit")
        print(
            f"graded {len(envelopes)} submissions via {args.server}: "
            f"{num_correct} correct, {len(envelopes) - num_correct - num_error} wrong, "
            f"{num_error} errors, {num_hits} served from the result store",
            file=sys.stderr,
        )
        error_kinds = {envelope["outcome"].get("error_kind") for envelope in envelopes}
        return 1 if error_kinds & OPERATIONAL_ERROR_KINDS else 0

    service = GradingService(default_dataset=args.dataset, default_seed=args.seed)
    graded = service.submit_batch(requests)
    _write_jsonl(args, [result.to_dict() for result in graded])
    num_correct = sum(1 for result in graded if result.correct)
    num_error = sum(1 for result in graded if result.outcome.error is not None)
    print(
        f"graded {len(graded)} submissions: "
        f"{num_correct} correct, {len(graded) - num_correct - num_error} wrong, "
        f"{num_error} errors",
        file=sys.stderr,
    )
    # Submission-level failures (a student's unparsable query) are grades,
    # not tool failures; operational failures (unknown dataset, internal
    # error) make the run exit nonzero so pipelines notice.
    if any(result.outcome.error_kind in OPERATIONAL_ERROR_KINDS for result in graded):
        return 1
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.server import GradingServer, ServerConfig

    if bool(args.cluster_self) != bool(args.peer):
        raise ReproError("--cluster-self and --peer must be used together")
    if args.log_json:
        from repro.obs.logging import configure_json_logging

        configure_json_logging()
    config = ServerConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        default_dataset=args.dataset,
        default_seed=args.seed,
        store_path=None if args.store == ":memory:" else args.store,
        warm_datasets=tuple(args.warm),
        max_queue=args.max_queue,
        verbose=args.verbose,
        cluster_self=args.cluster_self,
        cluster_peers=tuple(args.peer),
        cluster_virtual_nodes=args.virtual_nodes,
        cluster_heartbeat_interval=args.heartbeat_interval,
        cluster_forward=not args.no_forward,
        slow_request_seconds=args.slow_request,
    )
    server = GradingServer(config)
    cluster_note = (
        f", cluster={args.cluster_self}/{len(args.peer)} peers" if args.cluster_self else ""
    )
    print(
        f"repro-serve {__version__} listening on http://{server.host}:{server.port} "
        f"(workers={config.workers}, store={args.store}"
        f"{cluster_note})",
        file=sys.stderr,
        flush=True,
    )
    server.serve_forever(install_signal_handlers=True)
    print("repro-serve drained and stopped", file=sys.stderr)
    return 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    import signal
    import threading

    from repro.cluster.supervisor import ClusterSupervisor

    ports = None
    if args.base_port:
        ports = [args.base_port + index for index in range(args.shards)]
    supervisor = ClusterSupervisor(
        args.shards,
        host=args.host,
        ports=ports,
        workers=args.workers,
        store_dir=args.store_dir,
        warm_datasets=tuple(args.warm),
        max_queue=args.max_queue,
        restart=not args.no_restart,
        verbose=args.verbose,
    )
    print(
        f"repro-cluster {__version__}: booting {args.shards} shard(s) "
        f"({', '.join(supervisor.peer_specs)})",
        file=sys.stderr,
        flush=True,
    )
    try:
        supervisor.start(wait_healthy=True, timeout=args.boot_timeout)
    except ReproError:
        supervisor.stop()
        raise
    print("repro-cluster: all shards healthy", file=sys.stderr, flush=True)
    # SIGTERM must tear the shards down too — the supervisor's children are
    # independent process trees and would outlive a killed supervisor.
    # (Background jobs in shell scripts ignore SIGINT, so TERM is the signal
    # deployment scripts actually send.)
    stop = threading.Event()
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, lambda *_: stop.set())
    try:
        while not stop.wait(timeout=1.0):
            pass
    except KeyboardInterrupt:
        pass
    finally:
        supervisor.stop()
        print("repro-cluster stopped", file=sys.stderr)
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    from repro.experiments import generate_report, run_all_experiments

    results = run_all_experiments(args.profile)
    report = generate_report(results)
    if args.output == "-":
        print(report)
    else:
        Path(args.output).write_text(report)
        print(f"wrote {args.output} ({sum(len(r.rows) for r in results.values())} rows)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="RATest reproduction: smallest counterexamples for wrong queries"
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    demo = subparsers.add_parser("demo", help="run the paper's running example")
    demo.set_defaults(func=_cmd_demo)

    explain = subparsers.add_parser("explain", help="explain why two queries differ")
    explain.add_argument("--dataset", default="toy-university", help="dataset spec, e.g. university:200")
    explain.add_argument("--seed", type=int, default=0)
    explain.add_argument("--correct", required=True, help="reference query (RA DSL text or file path)")
    explain.add_argument("--test", required=True, help="test query (RA DSL text or file path)")
    explain.add_argument("--algorithm", default="auto", help="auto, basic, optsigma, agg-basic, agg-opt, ...")
    explain.add_argument(
        "--analyze",
        action="store_true",
        help="also print EXPLAIN ANALYZE for both queries: per-operator actual "
        "vs estimated rows (q-error), wall time and cache/index attribution",
    )
    explain.add_argument("--json", action="store_true", help="print the outcome as JSON instead of ASCII")
    explain.set_defaults(func=_cmd_explain)

    batch = subparsers.add_parser("batch", help="grade a JSONL stream of submissions")
    batch.add_argument("--input", default="-", help="JSONL submissions file, or - for stdin")
    batch.add_argument("--output", default="-", help="JSONL grades file, or - for stdout")
    batch.add_argument(
        "--dataset", default="toy-university", help="dataset spec for lines without one"
    )
    batch.add_argument("--seed", type=int, default=0, help="seed for lines without one")
    batch.add_argument(
        "--server",
        default=None,
        metavar="URL",
        help="grade through a running 'repro serve' daemon at URL instead of in process "
        "(--dataset/--seed then follow the daemon's configuration)",
    )
    batch.set_defaults(func=_cmd_batch)

    serve = subparsers.add_parser(
        "serve", help="run the grading daemon (worker pool + persistent result store)"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8080, help="listen port (0 picks a free one)"
    )
    serve.add_argument("--workers", type=int, default=2, help="grading worker processes")
    serve.add_argument(
        "--store",
        default="repro-store.sqlite3",
        help="path of the persistent SQLite result store (':memory:' disables durability)",
    )
    serve.add_argument(
        "--dataset", default="toy-university", help="default dataset spec for requests without one"
    )
    serve.add_argument("--seed", type=int, default=0, help="default seed for requests without one")
    serve.add_argument(
        "--warm",
        action="append",
        default=[],
        metavar="SPEC",
        help="extra dataset spec each worker warms at startup (repeatable)",
    )
    serve.add_argument(
        "--max-queue", type=int, default=64, help="in-flight requests before answering 429"
    )
    serve.add_argument(
        "--verbose", action="store_true", help="log one line per HTTP request to stderr"
    )
    serve.add_argument(
        "--slow-request",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="requests slower than this land in the slow-request log "
        "(GET /v1/debug/traces)",
    )
    serve.add_argument(
        "--log-json",
        action="store_true",
        help="emit structured JSON log lines (with trace/span ids) to stderr",
    )
    serve.add_argument(
        "--cluster-self",
        default=None,
        metavar="NAME",
        help="this daemon's logical peer name (e.g. shard-0); enables clustering",
    )
    serve.add_argument(
        "--peer",
        action="append",
        default=[],
        metavar="NAME=URL",
        help="a cluster peer (repeatable; must include --cluster-self and be "
        "identical on every peer)",
    )
    serve.add_argument(
        "--virtual-nodes", type=int, default=64, help="ring points per peer"
    )
    serve.add_argument(
        "--heartbeat-interval", type=float, default=0.5, help="peer probe period (s)"
    )
    serve.add_argument(
        "--no-forward",
        action="store_true",
        help="grade non-owned keys locally instead of proxying to their owner "
        "(the cross-shard store tier stays active)",
    )
    serve.set_defaults(func=_cmd_serve)

    cluster = subparsers.add_parser(
        "cluster", help="boot and supervise N grading daemons on this host"
    )
    cluster.add_argument("--shards", type=int, default=3, help="number of daemons")
    cluster.add_argument("--host", default="127.0.0.1")
    cluster.add_argument(
        "--base-port",
        type=int,
        default=9000,
        metavar="PORT",
        help="shard i listens on PORT+i (0 picks free ephemeral ports)",
    )
    cluster.add_argument(
        "--workers", type=int, default=2, help="grading worker processes per shard"
    )
    cluster.add_argument(
        "--store-dir",
        default=None,
        metavar="DIR",
        help="directory for per-shard SQLite stores (omit for in-memory stores)",
    )
    cluster.add_argument(
        "--warm", action="append", default=[], metavar="SPEC",
        help="extra dataset spec each worker warms at startup (repeatable)",
    )
    cluster.add_argument(
        "--max-queue", type=int, default=64,
        help="per-shard in-flight requests before answering 429",
    )
    cluster.add_argument(
        "--boot-timeout", type=float, default=60.0,
        help="seconds to wait for every shard to become healthy",
    )
    cluster.add_argument(
        "--no-restart", action="store_true", help="do not respawn shards that die"
    )
    cluster.add_argument(
        "--verbose", action="store_true", help="pass --verbose to every shard"
    )
    cluster.set_defaults(func=_cmd_cluster)

    experiments = subparsers.add_parser("experiments", help="re-run the paper's tables and figures")
    experiments.add_argument("--profile", default="quick", choices=["quick", "paper"])
    experiments.add_argument("--output", default="-", help="output markdown file, or - for stdout")
    experiments.set_defaults(func=_cmd_experiments)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
