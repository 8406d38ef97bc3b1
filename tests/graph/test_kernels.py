"""Unit tests for the shared frontier kernels (``repro.graph.kernels``)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.pipeline import DecompositionPipeline
from repro.generators import (
    attach_weights,
    barabasi_albert_graph,
    mesh_graph,
    path_graph,
    road_network_graph,
)
from repro.graph import kernels
from repro.graph.builders import disjoint_union
from repro.graph.components import connected_components
from repro.graph.csr import CSRGraph
from repro.graph.diameter_exact import exact_diameter
from repro.graph.snapshot import load_snapshot, save_snapshot
from repro.graph.traversal import bfs_distances, multi_source_bfs

from kernel_reference import eccentricities_loop, gather_neighbors_loop  # rootless test layout: pytest puts this dir on sys.path


@pytest.fixture
def mesh():
    return mesh_graph(9, 9)


class TestGatherNeighbors:
    def test_positions_align_with_indices(self, mesh):
        nodes = np.asarray([0, 17, 44], dtype=np.int64)
        src, dst, pos = kernels.gather_neighbors(mesh.indptr, mesh.indices, nodes)
        assert np.array_equal(mesh.indices[pos], dst)
        assert src.size == dst.size == pos.size

    def test_empty_batch(self, mesh):
        src, dst, pos = kernels.gather_neighbors(
            mesh.indptr, mesh.indices, np.zeros(0, dtype=np.int64)
        )
        assert src.size == dst.size == pos.size == 0

    def test_isolated_nodes(self):
        g = CSRGraph.from_edges([(0, 1)], num_nodes=4)
        src, dst, pos = kernels.gather_neighbors(
            g.indptr, g.indices, np.asarray([2, 3], dtype=np.int64)
        )
        assert src.size == 0

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_per_node_loop(self, seed):
        """Duplicate, unsorted, isolated and empty batches; int32 ids too."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 40))
        edges = rng.integers(0, n, size=(int(rng.integers(0, 3 * n)), 2))
        graph = CSRGraph.from_edges(edges, num_nodes=n + 3)  # the last 3 are isolated
        batches = [rng.integers(0, n + 3, size=size) for size in (0, 1, 5, 40)]
        batches += [np.arange(n, n + 3), rng.permutation(n + 3)[::-1]]
        for batch in batches:
            for dtype in (np.int64, np.int32):
                nodes = batch.astype(dtype)
                got = kernels.gather_neighbors(graph.indptr, graph.indices, nodes)
                expected = gather_neighbors_loop(graph.indptr, graph.indices, nodes)
                for part, reference in zip(got, expected):
                    assert part.dtype == np.int64
                    assert np.array_equal(part, reference)


class TestClaims:
    def test_claim_first_keeps_scan_order(self):
        dst = np.asarray([5, 3, 5, 3, 7], dtype=np.int64)
        src = np.asarray([0, 1, 2, 3, 4], dtype=np.int64)
        targets, parents = kernels.claim_first(dst, src, workspace=kernels.ClaimWorkspace(8))
        assert targets.tolist() == [3, 5, 7]
        assert parents.tolist() == [1, 0, 4]

    def test_claim_min_keeps_smallest_key(self):
        dst = np.asarray([5, 3, 5, 3], dtype=np.int64)
        src = np.asarray([0, 1, 2, 3], dtype=np.int64)
        key = np.asarray([2.0, 9.0, 1.0, 4.0])
        targets, parents, keys = kernels.claim_min(dst, src, key, workspace=kernels.ClaimWorkspace(6))
        assert targets.tolist() == [3, 5]
        assert parents.tolist() == [3, 2]
        assert keys.tolist() == [4.0, 1.0]

    def test_claim_min_tie_falls_back_to_scan_order(self):
        dst = np.asarray([4, 4], dtype=np.int64)
        src = np.asarray([8, 9], dtype=np.int64)
        key = np.asarray([1.5, 1.5])
        _, parents, _ = kernels.claim_min(dst, src, key, workspace=kernels.ClaimWorkspace(5))
        assert parents.tolist() == [8]


class TestFrontierExpansion:
    def test_matches_traversal_wrapper(self, mesh):
        sources = np.asarray([0, 40], dtype=np.int64)
        dist, owners, levels = kernels.frontier_expansion(mesh.indptr, mesh.indices, sources)
        result = multi_source_bfs(mesh, sources.tolist())
        assert np.array_equal(dist, result.distances)
        assert np.array_equal(owners, result.sources)
        assert levels == result.num_levels

    def test_no_sources(self, mesh):
        dist, owners, levels = kernels.frontier_expansion(
            mesh.indptr, mesh.indices, np.zeros(0, dtype=np.int64)
        )
        assert levels == 0
        assert np.all(dist == -1)
        assert np.all(owners == -1)


class TestComponentAndEccentricity:
    def test_component_labels_match_components_api(self):
        g = disjoint_union([mesh_graph(4, 4), path_graph(5), mesh_graph(2, 3)])
        labels = kernels.component_labels(g.indptr, g.indices)
        assert np.array_equal(labels, connected_components(g))
        assert labels.max() == 2

    def test_eccentricities_match_bfs(self, mesh):
        nodes = np.asarray([0, 12, 80], dtype=np.int64)
        eccs = kernels.msbfs_levels(mesh.indptr, mesh.indices, nodes).max(axis=1)
        assert eccs.tolist() == eccentricities_loop(mesh.indptr, mesh.indices, nodes).tolist()
        for node, ecc in zip(nodes, eccs):
            assert ecc == int(bfs_distances(mesh, int(node)).max())

    def test_exact_diameter_matches_kernel_eccentricities(self, mesh):
        nodes = np.arange(mesh.num_nodes, dtype=np.int64)
        assert eccentricities_loop(mesh.indptr, mesh.indices, nodes).max() == 16
        assert exact_diameter(mesh) == 16


class TestDeltaStepping:
    def test_unit_weights_reduce_to_bfs(self, mesh):
        weights = np.ones(mesh.indices.size)
        dist, owner = kernels.delta_stepping(
            mesh.indptr, mesh.indices, weights, np.asarray([0], dtype=np.int64)
        )
        bfs = bfs_distances(mesh, 0).astype(np.float64)
        assert np.array_equal(dist, bfs)
        assert np.all(owner == 0)


def _per_source_rows(indptr, indices, weights, sources):
    """Reference: one single-source delta_stepping per source."""
    n = indptr.size - 1
    out = np.empty((len(sources), n))
    for j, source in enumerate(sources):
        out[j], _ = kernels.delta_stepping(
            indptr, indices, weights, np.asarray([source], dtype=np.int64)
        )
    return out


def _quotient(graph, *, method="cluster", target=40, seed=0):
    pipe = DecompositionPipeline(graph, method=method, target_clusters=target, seed=seed)
    return pipe.quotient(weighted=True)


class TestDeltaSteppingRows:
    """Every row equals the single-source delta_stepping from its source."""

    @pytest.fixture(scope="class")
    def quotients(self):
        return {
            "road": _quotient(road_network_graph(25, 25, seed=4)),
            "ba": _quotient(barabasi_albert_graph(400, 3, seed=5)),
            "road-float": _quotient(
                road_network_graph(30, 30, seed=3, weights="uniform"), method="weighted"
            ),
            "ba-float": _quotient(
                barabasi_albert_graph(300, 3, seed=2, weights="uniform"), method="weighted"
            ),
        }

    def assert_rows_match(self, indptr, indices, weights, sources):
        got = kernels.delta_stepping_rows(indptr, indices, weights, sources)
        assert got.dtype == np.float64
        assert got.shape == (len(sources), indptr.size - 1)
        assert np.array_equal(got, _per_source_rows(indptr, indices, weights, sources))

    @pytest.mark.parametrize("name", ["road", "ba", "road-float", "ba-float"])
    @pytest.mark.parametrize("tile", [1, 7, None])
    def test_quotient_tiles_match_per_source(self, quotients, name, tile):
        q = quotients[name]
        k = q.num_nodes
        assert k > 7
        if name.endswith("-float"):
            assert np.any(q.weights != np.round(q.weights))
        tile = k if tile is None else tile
        for lo in range(0, k, tile):
            sources = np.arange(lo, min(lo + tile, k), dtype=np.int64)
            self.assert_rows_match(q.indptr, q.indices, q.weights, sources)

    def test_duplicate_and_unordered_sources(self, quotients):
        q = quotients["road-float"]
        sources = np.asarray([5, 0, 5, 3, 0], dtype=np.int64)
        got = kernels.delta_stepping_rows(q.indptr, q.indices, q.weights, sources)
        assert np.array_equal(got[0], got[2]) and np.array_equal(got[1], got[4])
        self.assert_rows_match(q.indptr, q.indices, q.weights, sources)

    def test_disconnected_and_isolated_nodes(self):
        g = attach_weights(
            disjoint_union([mesh_graph(5, 5), path_graph(4), path_graph(1)]),
            "uniform",
            seed=13,
        )
        sources = np.arange(g.num_nodes, dtype=np.int64)
        self.assert_rows_match(g.indptr, g.indices, g.weights, sources)
        got = kernels.delta_stepping_rows(g.indptr, g.indices, g.weights, sources)
        assert np.isinf(got[0, 25:]).all() and np.isinf(got[-1, :-1]).all()
        assert got[-1, -1] == 0.0

    def test_bucket_boundary_weights(self):
        # Mean weight 18/7: a bucket boundary rounds onto its own minimum 18.
        g = CSRGraph.from_edges(
            [(i, i + 1) for i in range(7)], weights=[3, 3, 3, 3, 2, 2, 2]
        )
        self.assert_rows_match(g.indptr, g.indices, g.weights, np.arange(8))

    def test_mmap_loaded_csr(self, quotients, tmp_path):
        q = quotients["ba-float"]
        mapped = load_snapshot(save_snapshot(q, tmp_path / "q.snap"), mmap=True)
        assert mapped.mode == "mmap"
        sources = np.arange(q.num_nodes, dtype=np.int64)
        got = kernels.delta_stepping_rows(mapped.indptr, mapped.indices, mapped.weights, sources)
        assert np.array_equal(
            got, _per_source_rows(q.indptr, q.indices, q.weights, sources)
        )

    def test_empty_inputs(self):
        g = CSRGraph.from_edges([], num_nodes=3)
        no_arcs = kernels.delta_stepping_rows(g.indptr, g.indices, np.zeros(0), np.arange(3))
        assert np.array_equal(no_arcs, np.where(np.eye(3) > 0, 0.0, np.inf))
        assert kernels.delta_stepping_rows(
            g.indptr, g.indices, np.zeros(0), np.zeros(0, dtype=np.int64)
        ).shape == (0, 3)
