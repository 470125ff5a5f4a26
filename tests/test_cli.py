"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, load_dataset, main
from repro.errors import ReproError


class TestDatasetLoading:
    def test_toy_datasets(self):
        assert load_dataset("toy-university").total_size() == 11
        assert load_dataset("toy-beers").total_size() > 0

    def test_parameterised_datasets(self):
        small = load_dataset("university:20", seed=1)
        large = load_dataset("university:60", seed=1)
        assert large.total_size() > small.total_size()
        assert load_dataset("tpch:0.05", seed=1).total_size() > 0

    def test_unknown_dataset(self):
        with pytest.raises(ReproError):
            load_dataset("mysterious")


class TestCommands:
    def test_parser_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_demo(self, capsys):
        assert main(["demo"]) == 0
        output = capsys.readouterr().out
        assert "counterexample" in output

    def test_explain_wrong_query(self, capsys):
        exit_code = main(
            [
                "explain",
                "--dataset",
                "toy-university",
                "--correct",
                "\\project_{name} \\select_{dept = 'ECON'} Registration",
                "--test",
                "\\project_{name} Registration",
            ]
        )
        assert exit_code == 1
        assert "counterexample" in capsys.readouterr().out

    def test_explain_correct_query(self, capsys):
        query = "\\project_{name} Student"
        assert main(["explain", "--correct", query, "--test", query]) == 0
        assert "matches the reference" in capsys.readouterr().out

    def test_explain_reads_query_files(self, tmp_path, capsys):
        correct = tmp_path / "correct.ra"
        correct.write_text("\\project_{name} \\select_{dept = 'ECON'} Registration")
        test = tmp_path / "test.ra"
        test.write_text("\\project_{name} Registration")
        exit_code = main(["explain", "--correct", str(correct), "--test", str(test)])
        assert exit_code == 1

    def test_explain_unparsable_query(self, capsys):
        exit_code = main(["explain", "--correct", "\\select_{", "--test", "Student"])
        assert exit_code == 2

    def test_unknown_dataset_is_reported(self, capsys):
        exit_code = main(
            ["explain", "--dataset", "nope", "--correct", "Student", "--test", "Student"]
        )
        assert exit_code == 2
        assert "error:" in capsys.readouterr().err

    def test_explain_json_output(self, capsys):
        exit_code = main(
            [
                "explain",
                "--json",
                "--correct",
                "\\project_{name} \\select_{dept = 'ECON'} Registration",
                "--test",
                "\\project_{name} Registration",
            ]
        )
        assert exit_code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == 1
        assert payload["correct"] is False
        assert payload["report"]["result"]["algorithm"]


SUBMISSIONS = [
    {
        "id": "a/q1",
        "correct": "\\project_{name} \\select_{dept = 'ECON'} Registration",
        "test": "\\project_{name} \\select_{dept = 'ECON'} Registration",
    },
    {
        "id": "b/q1",
        "correct": "\\project_{name} \\select_{dept = 'ECON'} Registration",
        "test": "\\project_{name} Registration",
    },
    {
        "id": "c/q1",
        "correct": "\\project_{name} \\select_{dept = 'ECON'} Registration",
        "test": "\\select_{oops",
    },
]


class TestOneExecutionPath:
    """Grading has one executor; no command takes a ``--backend`` option."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["explain", "--correct", "Student", "--test", "Student"],
            ["batch"],
            ["serve"],
            ["cluster"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_backend_option_is_rejected(self, argv, capsys):
        build_parser().parse_args(argv)
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args([*argv, "--backend", "python"])
        assert excinfo.value.code == 2
        assert "--backend" in capsys.readouterr().err

    def test_cluster_shard_command_is_a_valid_serve_invocation(self, tmp_path):
        # A shard that cannot parse its own argv never boots.
        from repro.cluster.supervisor import ClusterSupervisor

        supervisor = ClusterSupervisor(
            2,
            ports=[40001, 40002],
            store_dir=tmp_path,
            warm_datasets=["toy-university"],
            verbose=True,
        )
        for spec in supervisor.specs:
            argv = supervisor._command(spec)
            assert argv[1:4] == ["-m", "repro.cli", "serve"]
            args = build_parser().parse_args(argv[3:])
            assert (args.command, args.port, args.cluster_self) == ("serve", spec.port, spec.name)
            assert args.peer == supervisor.peer_specs
            assert args.warm == ["toy-university"]


class TestBatchCommand:
    def write_submissions(self, tmp_path, rows=SUBMISSIONS):
        path = tmp_path / "submissions.jsonl"
        path.write_text("\n".join(json.dumps(row) for row in rows) + "\n")
        return path

    def read_grades(self, path):
        return [json.loads(line) for line in path.read_text().splitlines()]

    def test_batch_grades_jsonl(self, tmp_path, capsys):
        submissions = self.write_submissions(tmp_path)
        output = tmp_path / "grades.jsonl"
        exit_code = main(["batch", "--input", str(submissions), "--output", str(output)])
        assert exit_code == 0
        grades = self.read_grades(output)
        assert [g["id"] for g in grades] == ["a/q1", "b/q1", "c/q1"]
        assert [g["correct"] for g in grades] == [True, False, False]
        assert grades[2]["outcome"]["error_kind"] == "parse_error"
        assert all(g["schema_version"] == 1 for g in grades)
        summary = capsys.readouterr().err
        assert "graded 3 submissions" in summary

    def test_batch_stdout_and_dataset_flag(self, tmp_path, capsys):
        submissions = self.write_submissions(tmp_path, SUBMISSIONS[:1])
        exit_code = main(
            ["batch", "--input", str(submissions), "--dataset", "university:20"]
        )
        assert exit_code == 0
        line = capsys.readouterr().out.strip()
        payload = json.loads(line)
        assert payload["dataset"] == "university:20"

    def test_batch_rejects_bad_json(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text("{not json\n")
        assert main(["batch", "--input", str(path)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_batch_missing_input_file_is_reported(self, tmp_path, capsys):
        assert main(["batch", "--input", str(tmp_path / "nope.jsonl")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_batch_unwritable_output_is_reported(self, tmp_path, capsys):
        submissions = self.write_submissions(tmp_path, SUBMISSIONS[:1])
        output = tmp_path / "no" / "such" / "dir" / "grades.jsonl"
        assert main(["batch", "--input", str(submissions), "--output", str(output)]) == 2
        assert "cannot write" in capsys.readouterr().err

    def test_batch_operational_failures_exit_nonzero(self, tmp_path, capsys):
        rows = [dict(SUBMISSIONS[0], dataset="no-such-dataset")]
        submissions = self.write_submissions(tmp_path, rows)
        exit_code = main(["batch", "--input", str(submissions)])
        assert exit_code == 1
        grade = json.loads(capsys.readouterr().out.strip())
        assert grade["outcome"]["error_kind"] == "invalid_request"

    def test_batch_fixture_file_matches_ci_expectations(self, capsys):
        from pathlib import Path

        fixture = Path(__file__).resolve().parent.parent / "examples" / "submissions.jsonl"
        exit_code = main(["batch", "--input", str(fixture)])
        assert exit_code == 0
        grades = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert [g["correct"] for g in grades] == [True, False, False]


class TestVersionFlag:
    def test_version_prints_package_version(self, capsys):
        import repro

        with pytest.raises(SystemExit) as exit_info:
            main(["--version"])
        assert exit_info.value.code == 0
        assert capsys.readouterr().out.strip() == f"repro {repro.__version__}"

    def test_setup_py_reads_the_same_version(self):
        import re
        from pathlib import Path

        import repro

        setup_text = Path(__file__).parent.parent.joinpath("setup.py").read_text()
        assert "__init__.py" in setup_text  # setup.py parses the package file
        package_text = Path(repro.__file__).read_text()
        match = re.search(r'^__version__ = "([^"]+)"$', package_text, re.MULTILINE)
        assert match is not None
        assert match.group(1) == repro.__version__


class TestServeAndClientMode:
    def test_batch_against_a_live_server(self, tmp_path, capsys):
        """CLI client mode: the batch subcommand grading through a daemon."""
        from repro.server import GradingServer, ServerConfig

        submissions = tmp_path / "subs.jsonl"
        submissions.write_text(
            "\n".join(json.dumps(row) for row in SUBMISSIONS) + "\n"
        )
        grades = tmp_path / "grades.jsonl"
        server = GradingServer(
            ServerConfig(workers=1, store_path=tmp_path / "store.sqlite3")
        ).start()
        try:
            url = f"http://127.0.0.1:{server.port}"
            assert main(
                ["batch", "--server", url, "--input", str(submissions), "--output", str(grades)]
            ) == 0
            first = [json.loads(line) for line in grades.read_text().splitlines()]
            assert [g["correct"] for g in first] == [True, False, False]
            assert all(g["store"] == "miss" for g in first)
            assert "served from the result store" in capsys.readouterr().err

            assert main(
                ["batch", "--server", url, "--input", str(submissions), "--output", str(grades)]
            ) == 0
            second = [json.loads(line) for line in grades.read_text().splitlines()]
            assert all(g["store"] == "hit" for g in second)
            assert [g["outcome"] for g in first] == [g["outcome"] for g in second]
        finally:
            server.shutdown()

    def test_batch_server_unreachable_is_reported(self, tmp_path, capsys):
        submissions = tmp_path / "subs.jsonl"
        submissions.write_text(json.dumps(SUBMISSIONS[0]) + "\n")
        assert (
            main(["batch", "--server", "http://127.0.0.1:9", "--input", str(submissions)])
            == 2
        )
        assert "error:" in capsys.readouterr().err
