"""Tests for serving-plane snapshots: content keys, round-trips, cold starts."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.experiments.store import ArtifactStore
from repro.generators import attach_weights, mesh_graph
from repro.serving import GraphService, load_snapshot, replay, save_snapshot, synthetic_workload
from repro.serving.snapshot import SNAPSHOT_SCHEMA, snapshot_key, snapshot_path


@pytest.fixture(scope="module")
def mesh12():
    return mesh_graph(12, 12)


@pytest.fixture(scope="module")
def weighted12():
    return attach_weights(mesh_graph(12, 12), "uniform", seed=3)


def assert_identical_service(a: GraphService, b: GraphService) -> None:
    """Both services must answer a mixed workload byte-for-byte identically."""
    assert a.num_nodes == b.num_nodes
    assert a.num_clusters == b.num_clusters
    assert (a.method, a.tau, a.seed) == (b.method, b.tau, b.seed)
    assert np.array_equal(a.assignment, b.assignment)
    assert np.array_equal(a.center_distance, b.center_distance)
    assert np.array_equal(a.oracle.upper_matrix, b.oracle.upper_matrix)
    assert np.array_equal(a.oracle.lower_matrix, b.oracle.lower_matrix)
    log = synthetic_workload(a.num_nodes, 2_000, seed=13)
    assert replay(a, log).checksum == replay(b, log).checksum


def rewrite_meta(path, edit):
    """Replace the JSON meta record of the snapshot at ``path`` by ``edit(meta)``."""
    with np.load(path) as data:
        arrays = {name: data[name] for name in data.files}
    arrays["meta"] = np.asarray(json.dumps(edit(json.loads(str(arrays["meta"])))))
    np.savez_compressed(path, **arrays)


class TestSnapshotKey:
    def test_deterministic(self, mesh12):
        key = snapshot_key(mesh12, tau=3, seed=0, method="cluster2")
        assert key == snapshot_key(mesh12, tau=3, seed=0, method="cluster2")
        assert len(key) == 20

    def test_sensitive_to_parameters(self, mesh12):
        base = snapshot_key(mesh12, tau=3, seed=0, method="cluster2")
        assert snapshot_key(mesh12, tau=4, seed=0, method="cluster2") != base
        assert snapshot_key(mesh12, tau=3, seed=1, method="cluster2") != base
        assert snapshot_key(mesh12, tau=3, seed=0, method="cluster") != base
        assert snapshot_key(mesh_graph(12, 13), tau=3, seed=0, method="cluster2") != base

    def test_sensitive_to_weights(self, mesh12, weighted12):
        unweighted = snapshot_key(mesh12, tau=3, seed=0, method="weighted")
        weighted = snapshot_key(weighted12, tau=3, seed=0, method="weighted")
        assert unweighted != weighted

    def test_non_canonical_seed_rejected(self, mesh12):
        with pytest.raises(TypeError, match="int or None"):
            snapshot_key(mesh12, tau=3, seed=np.random.default_rng(0), method="cluster2")

    def test_path_accepts_store_or_directory(self, tmp_path):
        store = ArtifactStore(tmp_path)
        assert snapshot_path(store, "abc") == store.snapshots_dir / "abc.npz"
        assert snapshot_path(tmp_path, "abc") == tmp_path / "abc.npz"


class TestRoundTrip:
    @pytest.mark.parametrize("fixture", ["mesh12", "weighted12"])
    def test_save_load_serves_identical_answers(self, fixture, request, tmp_path):
        graph = request.getfixturevalue(fixture)
        service = GraphService.build(graph, seed=0)
        path = save_snapshot(service, tmp_path)
        assert path.exists()
        loaded = load_snapshot(path)
        assert_identical_service(service, loaded)
        assert loaded.is_weighted == graph.is_weighted

    def test_loaded_service_skips_decomposition(self, mesh12, tmp_path):
        service = GraphService.build(mesh12, seed=0)
        loaded = load_snapshot(save_snapshot(service, tmp_path))
        assert loaded.timings == {}
        assert loaded.snapshot_key == service.snapshot_key

    def test_missing_file_raises_value_error(self, tmp_path):
        with pytest.raises(ValueError, match="cannot read snapshot"):
            load_snapshot(tmp_path / "absent.npz")

    def test_schema_mismatch_rejected(self, mesh12, tmp_path):
        path = save_snapshot(GraphService.build(mesh12, seed=0), tmp_path)
        rewrite_meta(path, lambda meta: {**meta, "schema": SNAPSHOT_SCHEMA + 1})
        with pytest.raises(ValueError, match="schema"):
            load_snapshot(path)

    def test_meta_that_is_not_an_object_rejected(self, mesh12, tmp_path):
        path = save_snapshot(GraphService.build(mesh12, seed=0), tmp_path)
        rewrite_meta(path, lambda meta: list(meta.items()))
        with pytest.raises(ValueError, match="not a JSON object"):
            load_snapshot(path)

    def test_meta_without_tau_rejected(self, mesh12, tmp_path):
        path = save_snapshot(GraphService.build(mesh12, seed=0), tmp_path)
        rewrite_meta(path, lambda meta: {key: value for key, value in meta.items() if key != "tau"})
        with pytest.raises(ValueError, match="no integer tau"):
            load_snapshot(path)

    def test_bad_meta_rebuilds_in_load_or_build(self, mesh12, tmp_path):
        store = ArtifactStore(tmp_path)
        built, _ = GraphService.load_or_build(store, mesh12, seed=0)
        rewrite_meta(snapshot_path(store, built.snapshot_key), lambda meta: [meta])
        with pytest.warns(RuntimeWarning, match="not a JSON object"):
            rebuilt, loaded = GraphService.load_or_build(store, mesh12, seed=0)
        assert not loaded
        assert_identical_service(built, rebuilt)

    def test_missing_array_rejected(self, mesh12, tmp_path):
        service = GraphService.build(mesh12, seed=0)
        path = save_snapshot(service, tmp_path)
        with np.load(path) as data:
            arrays = {name: data[name] for name in data.files}
        del arrays["upper_matrix"]
        np.savez_compressed(path, **arrays)
        with pytest.raises(ValueError, match="missing arrays"):
            load_snapshot(path)


class TestLoadOrBuild:
    def test_build_then_cold_start(self, mesh12, tmp_path):
        store = ArtifactStore(tmp_path)
        built, loaded = GraphService.load_or_build(store, mesh12, seed=0)
        assert not loaded
        cold, loaded = GraphService.load_or_build(store, mesh12, seed=0)
        assert loaded
        assert_identical_service(built, cold)

    def test_changed_graph_forces_rebuild(self, mesh12, tmp_path):
        store = ArtifactStore(tmp_path)
        GraphService.load_or_build(store, mesh12, seed=0)
        other = mesh_graph(12, 13)
        _, loaded = GraphService.load_or_build(store, other, seed=0)
        assert not loaded

    def test_changed_seed_forces_rebuild(self, mesh12, tmp_path):
        store = ArtifactStore(tmp_path)
        GraphService.load_or_build(store, mesh12, seed=0)
        _, loaded = GraphService.load_or_build(store, mesh12, seed=1)
        assert not loaded

    def test_one_snapshot_file_per_key(self, mesh12, tmp_path):
        store = ArtifactStore(tmp_path)
        GraphService.load_or_build(store, mesh12, seed=0)
        GraphService.load_or_build(store, mesh12, seed=0)
        GraphService.load_or_build(store, mesh12, seed=1)
        assert len(list(store.snapshots_dir.glob("*.npz"))) == 2
