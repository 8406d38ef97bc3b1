"""Tests for the declarative experiment suite: cells, store, cache, resume.

The heart of this file is the cross-mode equivalence suite: parallel cell
execution and store-resumed runs must reproduce the serial reference rows
bit-for-bit (modulo the documented wall-clock ``t_*`` columns).
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro.analysis.tables import render_stored_tables
from repro.experiments.config import DEFAULT_CONFIG, dataset_rng
from repro.experiments.datasets import (
    clear_dataset_cache,
    configure_dataset_cache,
    dataset_cache,
    dataset_names,
    load_dataset,
    reference_diameter,
)
from repro.experiments.store import ArtifactStore, DatasetCache, to_jsonable
from repro.experiments.suite import (
    EXPERIMENTS,
    ExperimentCell,
    SuiteRequest,
    SuiteRunner,
    build_cells,
    deterministic_view,
    run_cell,
)
from repro.experiments.table2 import table2_row
from repro.graph.snapshot import read_snapshot_header

SMALL_EXPERIMENTS = ["table1", "table2", "pipeline"]
SMALL_DATASETS = ["mesh", "roads-PA-like"]


def small_run(runner: SuiteRunner, experiments=None, datasets=None):
    return runner.run(
        experiments or SMALL_EXPERIMENTS,
        scale="small",
        datasets=datasets or SMALL_DATASETS,
        include_hadi=False,
    )


class TestJsonable:
    def test_numpy_scalars_and_arrays(self):
        value = {
            "i": np.int64(3),
            "f": np.float64(1.5),
            "b": np.bool_(True),
            "a": np.arange(3),
            "t": (1, np.int32(2)),
        }
        clean = to_jsonable(value)
        assert clean == {"i": 3, "f": 1.5, "b": True, "a": [0, 1, 2], "t": [1, 2]}
        assert type(clean["i"]) is int and type(clean["b"]) is bool
        json.dumps(clean)  # round-trips without a custom encoder

    def test_bool_not_coerced_to_int(self):
        assert to_jsonable(True) is True


class TestExperimentCell:
    def test_cell_id(self):
        cell = ExperimentCell("ablations", "mesh", (("part", "tau_sweep"),))
        assert cell.cell_id == "ablations/mesh/part=tau_sweep"
        assert cell.param("part") == "tau_sweep"

    def test_content_key_stable_and_sensitive(self):
        cell = ExperimentCell("table2", "mesh")
        key = cell.content_key("small", DEFAULT_CONFIG)
        assert key == cell.content_key("small", DEFAULT_CONFIG)
        assert key != cell.content_key("default", DEFAULT_CONFIG)
        other_method = dataclasses.replace(DEFAULT_CONFIG, decomposition_method="mpx")
        assert key != cell.content_key("small", other_method)
        assert key != ExperimentCell("table3", "mesh").content_key("small", DEFAULT_CONFIG)
        hadi = ExperimentCell("table4", "mesh", (("hadi", True),))
        no_hadi = ExperimentCell("table4", "mesh", (("hadi", False),))
        assert hadi.content_key("small", DEFAULT_CONFIG) != no_hadi.content_key(
            "small", DEFAULT_CONFIG
        )

    def test_build_cells_full_grid_and_restriction(self):
        request = SuiteRequest(scale="small")
        cells = build_cells(list(EXPERIMENTS), request)
        assert {cell.experiment for cell in cells} == set(EXPERIMENTS)
        restricted = build_cells(
            ["table2", "ablations"], SuiteRequest(scale="small", datasets=("mesh",))
        )
        assert all(cell.dataset in ("mesh", None) for cell in restricted)
        # tau sweep only exists when the mesh is selected
        parts = {cell.param("part") for cell in restricted if cell.experiment == "ablations"}
        assert "tau_sweep" in parts
        no_mesh = build_cells(
            ["ablations"], SuiteRequest(scale="small", datasets=("roads-PA-like",))
        )
        assert "tau_sweep" not in {cell.param("part") for cell in no_mesh}

    def test_build_cells_unknown_experiment(self):
        with pytest.raises(KeyError):
            build_cells(["nope"], SuiteRequest())

    def test_run_cell_unknown_part(self):
        with pytest.raises(KeyError):
            run_cell(ExperimentCell("ablations", "mesh", (("part", "bogus"),)), "small")


class TestDatasetRng:
    def test_subset_stable(self):
        # The stream for a dataset does not depend on which other datasets run.
        a = dataset_rng("mesh", offset=3).integers(0, 2**31)
        b = dataset_rng("mesh", offset=3).integers(0, 2**31)
        assert a == b
        assert dataset_rng("mesh").integers(0, 2**31) != dataset_rng(
            "roads-PA-like"
        ).integers(0, 2**31)

    def test_unknown_dataset(self):
        with pytest.raises(KeyError):
            dataset_rng("no-such-graph")


class TestArtifactStore:
    def test_cell_round_trip(self, tmp_path):
        store = ArtifactStore(tmp_path / "run")
        rows = [{"dataset": "mesh", "nodes": np.int64(900), "ratio": np.float64(1.5)}]
        store.save_cell("table1", "abc123", {"rows": rows, "elapsed_s": 0.5})
        payload = store.load_cell("table1", "abc123")
        assert payload["rows"] == [{"dataset": "mesh", "nodes": 900, "ratio": 1.5}]
        assert payload["key"] == "abc123"

    def test_missing_and_corrupt_artifacts_degrade_to_none(self, tmp_path):
        store = ArtifactStore(tmp_path)
        assert store.load_cell("table1", "nope") is None
        path = store.cell_path("table1", "bad")
        path.parent.mkdir(parents=True)
        path.write_text("{not json")
        assert store.load_cell("table1", "bad") is None
        path.write_text(json.dumps({"schema": 999, "key": "bad", "rows": []}))
        assert store.load_cell("table1", "bad") is None

    def test_manifest_round_trip(self, tmp_path):
        store = ArtifactStore(tmp_path)
        with pytest.raises(FileNotFoundError):
            store.read_manifest()
        store.write_manifest({"schema": 1, "cells": []})
        assert store.read_manifest()["schema"] == 1


class TestDatasetCache:
    def test_memory_identity_and_bound(self):
        # Resident graphs come back as the same object, and nothing is
        # evicted: the registry has only a dozen (dataset, scale) keys.
        cache = DatasetCache()
        calls = []

        def build(tag):
            def _build():
                calls.append(tag)
                return object()

            return _build

        a1 = cache.graph("a", "small", build("a"))
        assert cache.graph("a", "small", build("a")) is a1
        cache.graph("b", "small", build("b"))
        assert cache.graph("a", "small", build("a")) is a1
        assert calls == ["a", "b"]

    def test_disk_round_trip(self, tmp_path):
        configure_dataset_cache(tmp_path / "cache")
        first = load_dataset("mesh", "small")
        assert (tmp_path / "cache" / "mesh@small.snap").exists()
        d1 = reference_diameter("roads-PA-like", "small")
        # A fresh cache instance (same directory) must hit disk, not rebuild.
        configure_dataset_cache(tmp_path / "cache")
        second = load_dataset("mesh", "small")
        assert second is not first
        assert np.array_equal(second.indptr, first.indptr)
        assert np.array_equal(second.indices, first.indices)
        # Diameters live in one file per key (idempotent under worker races).
        path = tmp_path / "cache" / "roads-PA-like@small#sweeps=4.diameter.json"
        assert json.loads(path.read_text()) == d1
        assert reference_diameter("roads-PA-like", "small") == d1

    def test_clear_dataset_cache(self, tmp_path):
        configure_dataset_cache(tmp_path / "cache")
        a = load_dataset("mesh", "small")
        clear_dataset_cache()
        b = load_dataset("mesh", "small")  # reloaded from disk: equal, new object
        assert b is not a and b == a
        assert [path.name for path in (tmp_path / "cache").glob("*.snap")] == ["mesh@small.snap"]

    def test_version_1_entry_is_rebuilt(self, tmp_path):
        # The cache loads with verify=True: a snapshot in the retired
        # trailer-less version-1 format is rebuilt like a corrupt one.
        configure_dataset_cache(tmp_path / "cache")
        indices = np.array(load_dataset("mesh", "small").indices)
        path = tmp_path / "cache" / "mesh@small.snap"
        header = read_snapshot_header(path)
        blob = bytearray(path.read_bytes()[: header["data_offset"] + header["payload_bytes"]])
        blob[8:12] = (1).to_bytes(4, "little")
        path.unlink()  # the loaded graph keeps its mapping of the old file
        path.write_bytes(bytes(blob))
        configure_dataset_cache(tmp_path / "cache")
        assert np.array_equal(load_dataset("mesh", "small").indices, indices)
        assert read_snapshot_header(path)["version"] == 2


class TestMeshDiameter:
    def test_analytic_mesh_diameter(self):
        # (rows - 1) + (cols - 1): the dead `pass` branch is now real.
        assert reference_diameter("mesh", "small") == (30 - 1) + (30 - 1)
        assert reference_diameter("mesh", "default") == (100 - 1) + (100 - 1)

    def test_analytic_matches_double_sweep(self):
        from repro.graph.traversal import double_sweep
        from repro.utils.rng import as_rng

        graph = load_dataset("mesh", "small")
        lower, _, _ = double_sweep(graph, rng=as_rng(1234))
        assert lower == reference_diameter("mesh", "small")


class TestSuiteRunner:
    def test_invalid_construction(self, tmp_path):
        with pytest.raises(ValueError):
            SuiteRunner(jobs=0)
        with pytest.raises(ValueError):
            SuiteRunner(resume=True)  # resume without a store

    def test_unknown_dataset_rejected(self):
        with SuiteRunner() as runner:
            with pytest.raises(KeyError):
                runner.run(["table1"], scale="small", datasets=["no-such-graph"])

    def test_parallel_bit_identical_to_serial(self, tmp_path):
        # The acceptance bar: EVERY experiment, parallel == serial bit-for-bit.
        all_experiments = list(EXPERIMENTS)
        datasets = ["livejournal-like", "mesh"]
        with SuiteRunner() as runner:
            serial = small_run(runner, experiments=all_experiments, datasets=datasets)
        clear_dataset_cache()
        store = ArtifactStore(tmp_path / "run")
        with SuiteRunner(store=store, jobs=2) as runner:
            parallel = small_run(runner, experiments=all_experiments, datasets=datasets)
        for name in all_experiments:
            assert deterministic_view(serial.rows_for(name)) == deterministic_view(
                parallel.rows_for(name)
            ), name
        assert parallel.computed == len(parallel.outcomes) and parallel.cached == 0

    def test_runner_repoints_cache_at_current_store(self, tmp_path):
        # A second runner with a different store must not keep writing the
        # dataset cache into the first store's directory.
        with SuiteRunner(store=ArtifactStore(tmp_path / "a")) as runner:
            small_run(runner, experiments=["table1"], datasets=["mesh"])
        assert (tmp_path / "a" / "datasets" / "mesh@small.snap").exists()
        clear_dataset_cache()
        with SuiteRunner(store=ArtifactStore(tmp_path / "b")) as runner:
            small_run(runner, experiments=["table1"], datasets=["mesh"])
        assert (tmp_path / "b" / "datasets" / "mesh@small.snap").exists()
        # ...while an explicitly configured (pinned) directory is respected.
        configure_dataset_cache(tmp_path / "pinned")
        clear_dataset_cache()
        with SuiteRunner(store=ArtifactStore(tmp_path / "c")) as runner:
            small_run(runner, experiments=["table1"], datasets=["mesh"])
        assert (tmp_path / "pinned" / "mesh@small.snap").exists()
        assert not (tmp_path / "c" / "datasets").exists()

    def test_resume_recomputes_zero_cells(self, tmp_path):
        store = ArtifactStore(tmp_path / "run")
        with SuiteRunner(store=store) as runner:
            first = small_run(runner)
        clear_dataset_cache()
        with SuiteRunner(store=store, jobs=2, resume=True) as runner:
            resumed = small_run(runner)
        assert resumed.computed == 0
        assert resumed.cached == len(first.outcomes)
        for name in SMALL_EXPERIMENTS:
            # Cached rows are fully identical, wall-clock columns included.
            assert resumed.rows_for(name) == first.rows_for(name), name

    def test_resume_recomputes_only_changed_cells(self, tmp_path):
        store = ArtifactStore(tmp_path / "run")
        with SuiteRunner(store=store) as runner:
            small_run(runner, experiments=["table2"], datasets=["mesh"])
        # A config change must invalidate the artifact...
        changed = dataclasses.replace(DEFAULT_CONFIG, decomposition_method="mpx")
        with SuiteRunner(store=store, config=changed, resume=True) as runner:
            rerun = small_run(runner, experiments=["table2"], datasets=["mesh"])
        assert rerun.computed == 1 and rerun.cached == 0
        # ...while adding a dataset recomputes only the new cell.
        with SuiteRunner(store=store, resume=True) as runner:
            grown = small_run(runner, experiments=["table2"])
        statuses = {o.cell.dataset: o.status for o in grown.outcomes}
        assert statuses == {"mesh": "cached", "roads-PA-like": "computed"}

    def test_manifest_written(self, tmp_path):
        store = ArtifactStore(tmp_path / "run")
        with SuiteRunner(store=store) as runner:
            result = small_run(runner, experiments=["table1"], datasets=["mesh"])
        manifest = store.read_manifest()
        assert manifest["computed"] == 1 and manifest["cached"] == 0
        assert manifest["scale"] == "small"
        assert manifest["cells"][0]["cell_id"] == "table1/mesh"
        assert manifest["cells"][0]["key"] == result.outcomes[0].key
        assert manifest["config"] == {"decomposition_method": DEFAULT_CONFIG.decomposition_method}

    def test_rows_match_legacy_drivers_on_full_registry(self):
        # Suite cells reproduce the row function the retired per-table
        # drivers looped over, exactly, when the full registry runs: every
        # cell derives its seed from its own spec.
        with SuiteRunner() as runner:
            result = runner.run(["table2"], scale="small")
        expected = [table2_row(name, scale="small") for name in dataset_names()]
        assert result.rows_for("table2") == to_jsonable(expected)


class TestRenderStored:
    def test_report_from_store(self, tmp_path):
        store = ArtifactStore(tmp_path / "run")
        with SuiteRunner(store=store) as runner:
            small_run(runner, experiments=["table1"], datasets=["mesh"])
        text = render_stored_tables(store, titles={"table1": "Table 1 — test"})
        assert "Table 1 — test" in text and "mesh" in text
        csv = render_stored_tables(store, csv=True)
        assert csv.splitlines()[0].startswith("dataset,")

    def test_missing_artifact_raises(self, tmp_path):
        store = ArtifactStore(tmp_path / "run")
        with SuiteRunner(store=store) as runner:
            small_run(runner, experiments=["table1"], datasets=["mesh"])
        key = store.read_manifest()["cells"][0]["key"]
        store.cell_path("table1", key).unlink()
        with pytest.raises(KeyError):
            render_stored_tables(store)

    def test_cache_sidestep(self):
        # dataset_cache() exposes the live cache object used by load_dataset.
        assert dataset_cache().directory is None


class TestSharedDatasets:
    """How parallel suite runs share datasets with their workers."""

    def test_jobs2_shares_disk_datasets_through_mmap_snapshots(self, tmp_path, monkeypatch):
        import os as os_module

        import repro.graph.snapshot as snapshot_module

        datasets = ["mesh", "roads-PA-like"]
        store = ArtifactStore(tmp_path / "run")
        # Populate the disk layer (serial, builds + saves the graphs).
        clear_dataset_cache()
        with SuiteRunner(store=store) as runner:
            small_run(runner, experiments=["table1"], datasets=datasets)
        for name in datasets:
            assert (store.datasets_dir / f"{name}@small.snap").exists()

        # Log every snapshot open, attributed to the opening process.  The
        # patch must land before the pool forks so workers inherit it.
        log = tmp_path / "loads.log"
        real_load = snapshot_module.load_snapshot

        def counting_load(path, *args, **kwargs):
            with open(log, "a") as handle:
                handle.write(f"{os_module.getpid()} {kwargs.get('mmap', True)} {path}\n")
            return real_load(path, *args, **kwargs)

        monkeypatch.setattr(snapshot_module, "load_snapshot", counting_load)
        clear_dataset_cache()
        with SuiteRunner(store=store, jobs=2) as runner:
            runner.pool.map(abs, [0])  # fork first: workers start with cold caches
            result = small_run(runner, experiments=["table1", "table2"], datasets=datasets)
        assert result.computed == len(result.outcomes)

        lines = log.read_text().splitlines() if log.exists() else []
        assert lines, "expected snapshot opens to be logged"
        parent = os_module.getpid()
        opens_by_process: dict = {}
        for line in lines:
            pid, mmap_flag, path = line.split(" ", 2)
            # Every open is a read-only mmap view: processes share the pages.
            assert mmap_flag == "True", line
            opens_by_process.setdefault((int(pid), path.rsplit("/", 1)[-1]), 0)
            opens_by_process[(int(pid), path.rsplit("/", 1)[-1])] += 1
        # The parent opened each dataset exactly once (while ensuring the
        # snapshots exist); no process mapped the same file twice (the
        # in-memory LRU layer works).
        for name in datasets:
            assert opens_by_process.get((parent, f"{name}@small.snap")) == 1
        for (pid, filename), count in opens_by_process.items():
            assert count == 1, (pid, filename)
        clear_dataset_cache()

    def test_jobs2_memory_only_builds_each_dataset_once_in_the_parent(self, tmp_path, monkeypatch):
        """Workers inherit memory-only datasets through fork, run after run.

        The second ``run()`` needs a dataset the parent loads after the
        first run forked the pool; its workers must not rebuild it.
        """
        import os as os_module

        from repro.experiments.datasets import DatasetSpec

        experiments = ["table1", "table2"]
        clear_dataset_cache()
        with SuiteRunner() as runner:
            serial = [small_run(runner, experiments, [name]) for name in SMALL_DATASETS]

        # Log every build, attributed to the building process.  The patch
        # lands before the pool forks so workers inherit it.
        log = tmp_path / "builds.log"
        real_build = DatasetSpec.build

        def logged_build(spec, scale="default"):
            with open(log, "a") as handle:
                handle.write(f"{os_module.getpid()} {spec.name}@{scale}\n")
            return real_build(spec, scale)

        monkeypatch.setattr(DatasetSpec, "build", logged_build)
        clear_dataset_cache()
        runner = SuiteRunner(jobs=2)
        if not runner._fork_available:
            runner.close()
            pytest.skip("requires fork")
        with runner:
            parallel = []
            for name in SMALL_DATASETS:
                parallel.append(small_run(runner, experiments, [name]))
                assert runner.pool.pids, "each run forks or reuses the pool"
        parent = os_module.getpid()
        assert sorted(log.read_text().splitlines()) == sorted(
            f"{parent} {name}@small" for name in SMALL_DATASETS
        )
        for expected, got in zip(serial, parallel):
            assert got.computed == len(got.outcomes)
            for name in experiments:
                assert deterministic_view(expected.rows_for(name)) == deterministic_view(
                    got.rows_for(name)
                ), name
        clear_dataset_cache()

    def test_parallel_tasks_carry_no_arrays(self):
        import pickle

        class RecordingPool:
            """Fake ``pool.map``: pickle-roundtrips every task, then runs it here."""

            def __init__(self):
                self.sizes = []

            def map(self, func, tasks):
                results = []
                for task in tasks:
                    payload = pickle.dumps(task)
                    self.sizes.append(len(payload))
                    results.append(func(pickle.loads(payload)))
                return results

        datasets = ["mesh", "livejournal-like"]
        clear_dataset_cache()
        with SuiteRunner() as runner:
            serial = small_run(runner, experiments=["table2"], datasets=datasets)

        clear_dataset_cache()
        runner = SuiteRunner(jobs=2)
        fake = RecordingPool()
        runner.pool.map = fake.map
        try:
            if not runner._fork_available:
                pytest.skip("requires fork")
            parallel = small_run(runner, experiments=["table2"], datasets=datasets)
            assert deterministic_view(serial.rows_for("table2")) == deterministic_view(
                parallel.rows_for("table2")
            )
            # A cell spec and the config: no graph rides along.
            assert fake.sizes and max(fake.sizes) < 4096, fake.sizes
        finally:
            runner.close()
            clear_dataset_cache()

    def test_no_fork_suite_degrades_to_serial(self, monkeypatch):
        clear_dataset_cache()
        with SuiteRunner() as runner:
            serial = small_run(runner, experiments=["table1"], datasets=["mesh"])
        monkeypatch.setenv("REPRO_MR_NO_FORK", "1")
        clear_dataset_cache()
        with SuiteRunner(jobs=2) as runner:
            assert not runner._fork_available
            got = small_run(runner, experiments=["table1"], datasets=["mesh"])
        assert deterministic_view(serial.rows_for("table1")) == deterministic_view(
            got.rows_for("table1")
        )
