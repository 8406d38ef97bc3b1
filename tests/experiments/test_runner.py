"""Tests for the experiment CLI (argument parsing, dispatch, suite round-trips)."""

from __future__ import annotations

import json

import pytest

from repro.experiments.config import DEFAULT_CONFIG
from repro.experiments.runner import EXPERIMENTS, build_parser, main
from repro.experiments.suite import SuiteRunner


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["table1"])
        assert args.experiment == "table1"
        assert args.scale == "default"
        assert not args.csv
        assert args.jobs == 1
        assert args.out is None
        assert not args.resume

    def test_flags(self):
        args = build_parser().parse_args(
            ["table4", "--scale", "small", "--no-hadi", "--csv", "--datasets", "mesh"]
        )
        assert args.no_hadi and args.csv
        assert args.datasets == ["mesh"]

    def test_suite_flags(self):
        args = build_parser().parse_args(
            ["suite", "--jobs", "4", "--out", "results", "--resume"]
        )
        assert args.experiment == "suite"
        assert args.jobs == 4 and args.out == "results" and args.resume

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["tableX"])

    def test_nonpositive_jobs_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table1", "--jobs", "0"])

    def test_resume_requires_out(self, capsys):
        with pytest.raises(SystemExit):
            main(["table1", "--resume"])
        assert "--out" in capsys.readouterr().err


class TestDispatch:
    def test_registry_complete(self):
        assert set(EXPERIMENTS) == {
            "table1",
            "table2",
            "table3",
            "table4",
            "figure1",
            "pipeline",
            "ablations",
            "scale",
        }

    def test_default_experiments_exclude_scale(self):
        from repro.experiments.suite import DEFAULT_EXPERIMENTS

        assert set(DEFAULT_EXPERIMENTS) == set(EXPERIMENTS) - {"scale"}

    def test_run_experiment_unknown(self):
        with SuiteRunner() as runner, pytest.raises(KeyError):
            runner.run(["nope"])

    def test_main_table1_small(self, capsys):
        code = main(["table1", "--scale", "small"])
        assert code == 0
        out = capsys.readouterr().out
        assert "mesh" in out
        assert "Table 1" in out

    def test_main_csv_output(self, capsys):
        code = main(["table1", "--scale", "small", "--csv"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("dataset,")

    def test_main_table2_restricted(self, capsys):
        code = main(["table2", "--scale", "small", "--datasets", "mesh", "--verbose"])
        assert code == 0
        assert "mesh" in capsys.readouterr().out

    def test_main_unknown_dataset_is_clean_error(self, capsys):
        code = main(["table2", "--scale", "small", "--datasets", "no-such-graph"])
        assert code == 2
        assert "unknown dataset" in capsys.readouterr().err

    def test_main_pipeline_with_method(self, capsys):
        code = main(["pipeline", "--scale", "small", "--datasets", "mesh", "--method", "mpx"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Pipeline" in out
        assert "mpx" in out
        assert "t_decompose" in out


class TestSuiteRoundTrip:
    """End-to-end ``suite --resume`` round-trip through the real CLI."""

    ARGS = ["suite", "--scale", "small", "--datasets", "livejournal-like", "--no-hadi", "--csv"]

    def test_suite_resume_round_trip(self, tmp_path, capsys):
        out_dir = str(tmp_path / "results")
        # Serial reference run, persisted to the store.
        assert main(self.ARGS + ["--out", out_dir]) == 0
        serial_csv = capsys.readouterr().out
        manifest = json.loads((tmp_path / "results" / "manifest.json").read_text())
        assert manifest["computed"] > 0 and manifest["cached"] == 0

        # Parallel resumed run: every cell is a cache hit, output identical.
        assert main(self.ARGS + ["--out", out_dir, "--jobs", "2", "--resume"]) == 0
        resumed_csv = capsys.readouterr().out
        assert resumed_csv == serial_csv
        manifest = json.loads((tmp_path / "results" / "manifest.json").read_text())
        assert manifest["computed"] == 0
        assert manifest["cached"] == len(manifest["cells"])

        # The stored artifacts regenerate the same tables without recompute.
        assert main(["report", "--out", out_dir, "--csv"]) == 0
        report_csv = capsys.readouterr().out
        assert report_csv == serial_csv

    def test_parallel_output_matches_serial(self, tmp_path, capsys):
        from repro.experiments.datasets import clear_dataset_cache

        # Two datasets so --jobs 2 really exercises the worker pool (a single
        # pending cell degrades to in-process execution).
        args = ["table2", "--scale", "small", "--datasets", "mesh", "roads-PA-like", "--csv"]
        assert main(args) == 0
        serial = capsys.readouterr().out
        clear_dataset_cache()
        assert main(args + ["--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        assert parallel == serial

    def test_report_without_manifest(self, tmp_path, capsys):
        code = main(["report", "--out", str(tmp_path / "empty")])
        assert code == 2
        assert "no manifest" in capsys.readouterr().err


class TestConfigThreading:
    def test_method_threaded_into_all_tables(self, capsys):
        # The --method override reaches every driver, table1–table3 included.
        code = main(
            ["table2", "--scale", "small", "--datasets", "mesh", "--method", "cluster2", "--csv"]
        )
        assert code == 0
        from repro.experiments.runner import _config_for

        args = build_parser().parse_args(["table3", "--method", "mpx"])
        assert _config_for(args).decomposition_method == "mpx"
        assert _config_for(build_parser().parse_args(["table3"])) is DEFAULT_CONFIG


class TestServeCLI:
    """End-to-end ``serve`` subcommand: build, cold-start, query-log replay."""

    ARGS = ["serve", "--scale", "small", "--datasets", "mesh",
            "--queries", "2000", "--batch-size", "256"]

    @staticmethod
    def checksum_of(output: str) -> str:
        lines = [line for line in output.splitlines() if "answers sha256:" in line]
        assert lines, f"no checksum line in output:\n{output}"
        return lines[-1].split()[-1]

    def test_in_memory_serve(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "in-memory build" in out
        assert "replayed 2000 queries" in out
        assert "queries/s" in out

    def test_snapshot_cold_start_identical_answers(self, tmp_path, capsys):
        out_dir = str(tmp_path / "results")
        assert main(self.ARGS + ["--out", out_dir]) == 0
        first = capsys.readouterr().out
        assert "built and saved" in first

        assert main(self.ARGS + ["--out", out_dir]) == 0
        second = capsys.readouterr().out
        assert "loaded (cold start, no decomposition)" in second
        assert self.checksum_of(second) == self.checksum_of(first)

    def test_query_log_round_trip(self, tmp_path, capsys):
        log_file = str(tmp_path / "queries.log")
        assert main(self.ARGS + ["--save-log", log_file]) == 0
        saved = capsys.readouterr().out
        assert main(["serve", "--scale", "small", "--datasets", "mesh",
                     "--query-log", log_file, "--batch-size", "512"]) == 0
        replayed = capsys.readouterr().out
        # Same workload, different batch size, fresh service: same answers.
        assert self.checksum_of(replayed) == self.checksum_of(saved)

    def test_bad_query_log_is_clean_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.log"
        bad.write_text("distance 0 1\nbogus 2 3\n")
        code = main(["serve", "--scale", "small", "--datasets", "mesh",
                     "--query-log", str(bad)])
        assert code == 2
        assert "line 2" in capsys.readouterr().err

    def test_unknown_dataset_is_clean_error(self, capsys):
        code = main(["serve", "--scale", "small", "--datasets", "no-such-graph"])
        assert code == 2
        assert "unknown dataset" in capsys.readouterr().err

    def test_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.queries == 100_000
        assert args.batch_size == 8192
        assert args.query_log is None
        assert args.tau is None
        assert args.oracle_seed == 0
