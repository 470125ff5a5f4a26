"""The grading benchmark: one command, four workloads, correctness checked.

    python3 perfbench/run.py --workload course-explain --seed 1 --seconds 12 --trace 0

Run from the repository root.  Each run starts the workload in a fresh
interpreter whose ``PYTHONHASHSEED`` is derived from ``--seed``, so two sets
of runs with the same seeds see the same dict layouts.  ``--trace 0`` prints
the end-to-end metrics; ``--trace 1`` is a separate traced run that prints the
per-layer ledger.  The last line of output is the JSON result; the lines
before it list every metric with its unit and sample count, the host facts
and any correctness failure with a repro command.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("course-explain", "tpch-agg", "tpch-screen", "http-class")


def child_timeout(seconds: float) -> float:
    """Seconds after which a run is stopped and reported as failed.

    Set-up, the minimum pass count and the correctness checks come on top of
    the timed phase; at ``--seconds 15`` runs take 20-35 s.
    """
    return 100 + 2 * seconds


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def hash_seed(seed: int) -> str:
    return str(seed % 4_294_967_295)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.child:
        return child(args)
    env = dict(os.environ, PYTHONHASHSEED=hash_seed(args.seed), PYTHONPATH=str(ROOT / "src"))
    command = [sys.executable, str(Path(__file__).resolve()), *argv, "--child"]
    # A session of its own, so a timeout can stop the daemon and its worker too.
    process = subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    timeout = child_timeout(args.seconds)
    try:
        out, _ = process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        out, _ = process.communicate()
        sys.stdout.write(out)
        print(f"perfbench: {args.workload} did not finish within {timeout:.0f}s", file=sys.stderr)
        return 3
    sys.stdout.write(out)
    sys.stdout.flush()
    return process.returncode


def child(args: argparse.Namespace) -> int:
    # The speed probe (probe.py) tracks only the CPU it runs on: the run and
    # every process it starts (the daemon and its worker too) share one CPU.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    from report import host_facts

    if args.workload == "http-class":
        import http_class

        report = http_class.run(ROOT, args.seed, args.seconds, bool(args.trace))
    else:
        import inproc

        report = inproc.run(inproc.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    report.emit(host_facts())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
