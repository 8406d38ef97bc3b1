"""Chaos suite for the experiment harness and the CLI's degraded paths.

The acceptance scenario of the fault-tolerant execution plane lives here: a
seeded :class:`~repro.faults.FaultPlan` kills a pool worker mid-cell and
corrupts a freshly written dataset snapshot, and the suite run must complete
with quarantined-not-aborted cells and — after a fault-free ``--resume`` —
produce rows bit-identical to a run that never saw a fault.
"""

from __future__ import annotations

import os

import pytest

from repro import faults
from repro.experiments.datasets import clear_dataset_cache
from repro.experiments.runner import main
from repro.experiments.store import ArtifactStore
from repro.experiments.suite import SuiteRunner, deterministic_view
from repro.faults import FaultPlan, FaultSpec
from repro.mapreduce.pool import fork_available

needs_fork = pytest.mark.skipif(not fork_available(), reason="requires fork start method")

EXPERIMENTS = ["table1", "table2"]
DATASETS = ["mesh", "roads-PA-like"]


@pytest.fixture(autouse=True)
def _clean_faults():
    faults.clear_installed()
    yield
    faults.clear_installed()


def small_run(runner, experiments=None, datasets=None):
    return runner.run(
        experiments or EXPERIMENTS,
        scale="small",
        datasets=datasets or DATASETS,
        include_hadi=False,
    )


# ------------------------------------------------------------------ #
# Quarantine lifecycle (serial runner)
# ------------------------------------------------------------------ #
class TestQuarantine:
    def test_failing_cell_quarantined_not_aborted(self, tmp_path):
        FaultPlan(
            specs=(FaultSpec(site="suite.cell:table1/mesh", kind="error", times=99),),
        ).install()
        store = ArtifactStore(tmp_path / "run")
        with SuiteRunner(store=store, cell_retries=1) as runner:
            result = small_run(runner, datasets=["mesh"])
        failed = [o for o in result.outcomes if o.status == "failed"]
        assert [o.cell.cell_id for o in failed] == ["table1/mesh"]
        assert failed[0].attempts == 2  # initial + one retry
        assert "FaultInjected" in failed[0].error
        assert failed[0].rows == []
        # The others computed normally despite the neighbour's failure.
        assert result.computed == len(result.outcomes) - 1

    def test_manifest_records_quarantine(self, tmp_path):
        FaultPlan(
            specs=(FaultSpec(site="suite.cell:table1/mesh", kind="error", times=99),),
        ).install()
        store = ArtifactStore(tmp_path / "run")
        with SuiteRunner(store=store, cell_retries=0) as runner:
            small_run(runner, datasets=["mesh"])
        manifest = store.read_manifest()
        assert manifest["failed"] == 1
        assert manifest["cell_retries"] == 0
        entry = next(c for c in manifest["cells"] if c["status"] == "failed")
        assert entry["cell_id"] == "table1/mesh"
        assert entry["attempts"] == 1
        assert "FaultInjected" in entry["error"]

    def test_transient_fault_retried_to_success(self, tmp_path):
        """times=1: the first attempt fails, the retry computes the cell."""
        FaultPlan(
            specs=(FaultSpec(site="suite.cell:table1/mesh", kind="error"),),
        ).install()
        with SuiteRunner(cell_retries=1) as runner:
            result = small_run(runner, experiments=["table1"], datasets=["mesh"])
        assert result.failed == 0
        assert result.outcomes[0].attempts == 2

    def test_resume_retries_only_quarantined_cells(self, tmp_path):
        baseline_store = ArtifactStore(tmp_path / "baseline")
        with SuiteRunner(store=baseline_store) as runner:
            baseline = small_run(runner, datasets=["mesh"])
        clear_dataset_cache()

        FaultPlan(
            specs=(FaultSpec(site="suite.cell:table2/mesh", kind="error", times=99),),
        ).install()
        store = ArtifactStore(tmp_path / "run")
        with SuiteRunner(store=store, cell_retries=1) as runner:
            faulted = small_run(runner, datasets=["mesh"])
        assert faulted.failed == 1

        faults.clear_installed()
        with SuiteRunner(store=store, resume=True) as runner:
            resumed = small_run(runner, datasets=["mesh"])
        # Exactly the quarantined cell recomputed; the rest came off disk.
        assert resumed.failed == 0
        assert resumed.computed == 1
        assert resumed.cached == len(resumed.outcomes) - 1
        for name in EXPERIMENTS:
            assert deterministic_view(resumed.rows_for(name)) == deterministic_view(
                baseline.rows_for(name)
            ), name


# ------------------------------------------------------------------ #
# Per-cell wall-clock timeouts
# ------------------------------------------------------------------ #
class TestCellTimeout:
    def test_hung_cell_times_out_and_retries(self):
        FaultPlan(
            specs=(FaultSpec(site="suite.cell:table1/mesh", kind="hang", delay_s=30.0),),
        ).install()
        with SuiteRunner(cell_timeout=0.5, cell_retries=1) as runner:
            result = small_run(runner, experiments=["table1"], datasets=["mesh"])
        assert result.failed == 0
        assert result.outcomes[0].attempts == 2

    def test_persistent_hang_quarantined(self):
        FaultPlan(
            specs=(FaultSpec(site="suite.cell:table1/mesh", kind="hang", delay_s=30.0, times=99),),
        ).install()
        with SuiteRunner(cell_timeout=0.3, cell_retries=1) as runner:
            result = small_run(runner, experiments=["table1"], datasets=["mesh"])
        assert result.failed == 1
        assert "CellTimeout" in result.outcomes[0].error

    @pytest.mark.parametrize(
        "kwargs", [{"cell_retries": -3}, {"cell_timeout": -2}, {"cell_timeout": 0}]
    )
    def test_bad_budgets_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SuiteRunner(**kwargs)
        # None still means "no timeout".
        assert SuiteRunner(cell_timeout=None).cell_timeout is None


# ------------------------------------------------------------------ #
# The acceptance scenario
# ------------------------------------------------------------------ #
@needs_fork
class TestAcceptance:
    def test_killed_worker_and_corrupt_snapshot_end_to_end(self, tmp_path):
        """Kill a pool worker mid-cell + corrupt a snapshot; finish, resume,
        and match the fault-free rows bit for bit."""
        # 1. Fault-free baseline (its own store and dataset build).
        with SuiteRunner(store=ArtifactStore(tmp_path / "baseline"), jobs=2) as runner:
            baseline = small_run(runner)
        clear_dataset_cache()

        # 2. The chaos run: one worker SIGKILLed mid-cell (global ticket so
        #    the respawn never re-fires), the first dataset snapshot written
        #    is bit-flipped on disk, and one cell fails every attempt.
        state = tmp_path / "state"
        plan = FaultPlan(
            specs=(
                FaultSpec(site="suite.cell:table1/mesh", kind="kill"),
                FaultSpec(site="graph.snapshot", kind="bitflip"),
                FaultSpec(site="suite.cell:table2/roads-PA-like", kind="error", times=99),
            ),
            seed=2015,
            state_dir=str(state),
        )
        plan.install()
        store = ArtifactStore(tmp_path / "run")
        with SuiteRunner(store=store, jobs=2, cell_retries=1) as runner:
            faulted = small_run(runner)

        # Every planned fault actually fired (ticket files are proof).
        for index in range(len(plan.specs)):
            assert (state / f"fault-{index}.0").exists(), f"spec {index} never fired"

        # Quarantined, not aborted — and only the cell meant to fail.
        failed = [o for o in faulted.outcomes if o.status == "failed"]
        assert [o.cell.cell_id for o in failed] == ["table2/roads-PA-like"]
        assert faulted.computed == len(faulted.outcomes) - 1

        # 3. Fault-free resume recomputes exactly the quarantined cell...
        faults.clear_installed()
        with SuiteRunner(store=store, jobs=2, resume=True) as runner:
            resumed = small_run(runner)
        assert resumed.failed == 0
        assert resumed.computed == 1

        # 4. ...and the final artifacts are bit-identical to the baseline.
        for name in EXPERIMENTS:
            assert deterministic_view(resumed.rows_for(name)) == deterministic_view(
                baseline.rows_for(name)
            ), name

    def test_cell_whose_worker_keeps_dying_is_quarantined(self, tmp_path):
        """A cell the pool returns lost is quarantined; --resume recomputes it."""
        FaultPlan(
            specs=(FaultSpec(site="suite.cell:table1/mesh", kind="kill", times=99),),
            state_dir=str(tmp_path / "state"),
        ).install()
        store = ArtifactStore(tmp_path / "run")
        with SuiteRunner(store=store, jobs=2, cell_retries=0) as runner:
            faulted = small_run(runner, datasets=["mesh"])
        lost = next(o for o in faulted.outcomes if o.cell.cell_id == "table1/mesh")
        assert lost.status == "failed"
        assert "worker died" in lost.error
        assert lost.attempts == 2  # one crash is always resubmitted

        faults.clear_installed()
        with SuiteRunner(store=store, jobs=2, resume=True) as runner:
            resumed = small_run(runner, datasets=["mesh"])
        assert resumed.failed == 0
        assert resumed.computed == faulted.failed

    @pytest.mark.parametrize("cell_retries", [0, 1])
    def test_crashing_cell_never_quarantines_its_neighbour(self, tmp_path, cell_retries):
        """Only the dying worker's cell is charged; in-flight neighbours rerun free."""
        FaultPlan(
            specs=(FaultSpec(site="suite.cell:pipeline/mesh", kind="kill", times=99),),
            state_dir=str(tmp_path / "state"),
        ).install()
        with SuiteRunner(jobs=2, cell_retries=cell_retries) as runner:
            result = runner.run(scale="small", datasets=["mesh"], include_hadi=False)
        failed = [o for o in result.outcomes if o.status == "failed"]
        assert [o.cell.cell_id for o in failed] == ["pipeline/mesh"]
        assert failed[0].attempts == cell_retries + 2
        assert result.computed == len(result.outcomes) - 1

    def test_parallel_worker_kill_recovers_bit_identical(self, tmp_path):
        # Two cells so the pool path engages (a single pending cell runs
        # serially — in the driver, where a kill fault would be fatal).
        with SuiteRunner() as runner:
            baseline = small_run(runner, datasets=["mesh"])
        clear_dataset_cache()
        FaultPlan(
            specs=(FaultSpec(site="suite.cell:table1/mesh", kind="kill"),),
            state_dir=str(tmp_path / "state"),
        ).install()
        with SuiteRunner(store=ArtifactStore(tmp_path / "run"), jobs=2) as runner:
            chaotic = small_run(runner, datasets=["mesh"])
        assert chaotic.failed == 0
        for name in EXPERIMENTS:
            assert deterministic_view(chaotic.rows_for(name)) == deterministic_view(
                baseline.rows_for(name)
            ), name


# ------------------------------------------------------------------ #
# CLI degraded paths
# ------------------------------------------------------------------ #
class TestServeCLI:
    def _build_snapshot(self, tmp_path, capsys):
        out = str(tmp_path / "results")
        code = main(["serve", "--datasets", "mesh", "--scale", "small",
                     "--out", out, "--queries", "200"])
        assert code == 0
        capsys.readouterr()
        snapshots = list((tmp_path / "results" / "snapshots").glob("*.npz"))
        assert len(snapshots) == 1
        return out, snapshots[0]

    def test_truncated_snapshot_exits_2_one_line(self, tmp_path, capsys):
        _, snapshot = self._build_snapshot(tmp_path, capsys)
        with open(snapshot, "r+b") as handle:
            handle.truncate(os.path.getsize(snapshot) // 3)
        code = main(["serve", "--snapshot", str(snapshot), "--queries", "100"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "Traceback" not in captured.err

    def test_garbage_snapshot_exits_2(self, tmp_path, capsys):
        path = tmp_path / "junk.npz"
        path.write_bytes(b"\x00" * 512)
        code = main(["serve", "--snapshot", str(path), "--queries", "100"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_cold_start_rebuilds_over_corrupt_snapshot(self, tmp_path, capsys):
        out, snapshot = self._build_snapshot(tmp_path, capsys)
        snapshot.write_bytes(b"not a zip file at all")
        with pytest.warns(RuntimeWarning, match="corrupt"):
            code = main(["serve", "--datasets", "mesh", "--scale", "small",
                         "--out", out, "--queries", "200"])
        assert code == 0
        assert "built and saved" in capsys.readouterr().out
        # The rebuilt snapshot is valid again: next run cold-starts from it.
        code = main(["serve", "--datasets", "mesh", "--scale", "small",
                     "--out", out, "--queries", "200"])
        assert code == 0
        assert "loaded (cold start" in capsys.readouterr().out

    def test_unreadable_query_log_exits_2(self, tmp_path, capsys):
        code = main(["serve", "--datasets", "mesh", "--scale", "small",
                     "--query-log", str(tmp_path / "missing.log")])
        assert code == 2
        captured = capsys.readouterr()
        assert "error: cannot load query log" in captured.err
        assert "Traceback" not in captured.err

    def test_direct_snapshot_replay_matches_store_replay(self, tmp_path, capsys):
        out, snapshot = self._build_snapshot(tmp_path, capsys)
        assert main(["serve", "--out", out, "--datasets", "mesh", "--scale", "small",
                     "--queries", "200"]) == 0
        via_store = capsys.readouterr().out
        assert main(["serve", "--snapshot", str(snapshot), "--queries", "200"]) == 0
        via_file = capsys.readouterr().out
        digest = next(l for l in via_store.splitlines() if "sha256" in l)
        assert digest in via_file


class TestSuiteCLI:
    def test_quarantine_exit_code_and_resume(self, tmp_path, capsys):
        out = str(tmp_path / "results")
        FaultPlan(
            specs=(FaultSpec(site="suite.cell:table1/mesh", kind="error", times=99),),
        ).install()
        code = main(["table1", "--scale", "small", "--datasets", "mesh",
                     "--out", out, "--cell-retries", "0"])
        assert code == 1
        captured = capsys.readouterr()
        assert "quarantined" in captured.err
        faults.clear_installed()
        code = main(["table1", "--scale", "small", "--datasets", "mesh",
                     "--out", out, "--resume"])
        assert code == 0
        assert "1 computed" in capsys.readouterr().out

    def test_cell_flags_thread_through(self):
        parser_args = ["table1", "--cell-timeout", "3.5", "--cell-retries", "2"]
        from repro.experiments.runner import build_parser

        args = build_parser().parse_args(parser_args)
        assert args.cell_timeout == 3.5
        assert args.cell_retries == 2

    @pytest.mark.parametrize(
        "flags",
        [["--cell-retries", "-3"], ["--cell-timeout", "-2"], ["--cell-timeout", "0"]],
    )
    def test_bad_cell_budgets_exit_2(self, flags, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["table1", "--scale", "small", "--datasets", "mesh", *flags])
        assert exc.value.code == 2
        assert flags[0] in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [["reap-shm"], ["table1", "--backend", "serial"], ["table1", "--shards", "2"]],
        ids=["reap-shm", "backend", "shards"],
    )
    def test_removed_cli_surface_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert argv[-1] in capsys.readouterr().err
