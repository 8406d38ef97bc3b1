"""Unit tests for the approximate distance oracle.

The oracle builds on a given decomposition.  Most tests build it on CLUSTER2
at :func:`default_oracle_tau` (the serving plane's choice for unweighted
graphs); the weighted ones take the oracle of
:meth:`~repro.serving.GraphService.build`, which decomposes with CLUSTER.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.cluster import cluster
from repro.core.cluster2 import cluster2
from repro.core.oracle import build_distance_oracle, default_oracle_tau
from repro.generators import (
    attach_weights,
    barabasi_albert_graph,
    mesh_graph,
    path_graph,
    road_network_graph,
)
from repro.graph.csr import CSRGraph
from repro.graph.traversal import bfs_distances, dijkstra
from repro.serving import GraphService
from repro.utils.validation import check_node_batch

GOLDEN_PATH = Path(__file__).parent / "goldens" / "oracle_queries.json"

#: Graph builders behind the frozen golden file (``oracle_queries.json`` was
#: generated by the pre-batch-API scalar implementation; these tests pin the
#: redesigned batch-first oracle bit-identical to it).
GOLDEN_GRAPHS = {
    "mesh-15x15": lambda: mesh_graph(15, 15),
    "ba-400-3": lambda: barabasi_albert_graph(400, 3, seed=1),
    "road-30x30": lambda: road_network_graph(30, 30, seed=21),
}


def cluster2_oracle(graph, seed, tau=None):
    """The oracle on a seeded CLUSTER2 run, by default at the oracle's τ."""
    tau = default_oracle_tau(graph.num_nodes) if tau is None else tau
    return build_distance_oracle(graph, cluster2(graph, tau, seed=seed).clustering)


class TestOracleBounds:
    @pytest.mark.parametrize(
        "graph_builder",
        [
            lambda: mesh_graph(15, 15),
            lambda: path_graph(150),
            lambda: barabasi_albert_graph(400, 3, seed=1),
        ],
    )
    def test_lower_true_upper_sandwich(self, graph_builder):
        graph = graph_builder()
        oracle = cluster2_oracle(graph, 0)
        rng = np.random.default_rng(0)
        sources = rng.choice(graph.num_nodes, size=5, replace=False)
        for s in sources:
            true_dist = bfs_distances(graph, int(s))
            targets = rng.choice(graph.num_nodes, size=10, replace=False)
            for t in targets:
                lower, upper = oracle.query(int(s), int(t))
                assert lower <= true_dist[t] <= upper

    def test_same_node_zero(self, mesh20):
        oracle = cluster2_oracle(mesh20, 1)
        assert oracle.query(7, 7) == (0.0, 0.0)

    def test_out_of_range_rejected(self, mesh8):
        oracle = cluster2_oracle(mesh8, 3)
        with pytest.raises(IndexError):
            oracle.query(0, 999)


class TestOracleConstruction:
    def test_cluster_variant(self, mesh20):
        """CLUSTER alone still yields valid bounds (without CLUSTER2's guarantee)."""
        oracle = build_distance_oracle(mesh20, cluster(mesh20, default_oracle_tau(mesh20.num_nodes), seed=4))
        lower, upper = oracle.query(0, 399)
        assert lower <= 38 <= upper

    def test_explicit_tau(self, mesh20):
        oracle = cluster2_oracle(mesh20, 5, tau=2)
        assert oracle.num_clusters >= 1

    def test_space_is_subquadratic(self, mesh20):
        """The oracle must use far less space than the full distance matrix."""
        oracle = cluster2_oracle(mesh20, 6)
        n = mesh20.num_nodes
        assert oracle.space_entries < n * n / 2

    def test_empty_graph_rejected(self):
        empty = CSRGraph.empty(0)
        with pytest.raises(ValueError, match="non-empty"):
            build_distance_oracle(empty, cluster(empty, 1, seed=0))

    def test_default_tau_formula(self):
        assert default_oracle_tau(1) == 1
        n = 10_000
        assert default_oracle_tau(n) == int(np.ceil(np.sqrt(n) / np.log2(n) ** 2))

    def test_precomputed_clustering_used_verbatim(self, mesh20):
        clustering = cluster2(mesh20, 4, seed=9).clustering
        oracle = build_distance_oracle(mesh20, clustering)
        assert oracle.clustering is clustering
        fresh = GraphService.build(mesh20, tau=4, seed=9).oracle
        assert np.array_equal(oracle.upper_matrix, fresh.upper_matrix)
        assert np.array_equal(oracle.lower_matrix, fresh.lower_matrix)

    def test_clustering_node_mismatch_rejected(self, mesh8, mesh20):
        clustering = cluster2(mesh20, 4, seed=9).clustering
        with pytest.raises(ValueError, match="different node sets"):
            build_distance_oracle(mesh8, clustering)

    def test_clustering_metric_mismatch_rejected(self, mesh8):
        hop_clustering = cluster2(mesh8, 2, seed=0).clustering
        weighted = attach_weights(mesh8, "uniform", seed=0)
        with pytest.raises(ValueError, match="metric mismatch"):
            build_distance_oracle(weighted, hop_clustering)


class TestQueryBatch:
    @pytest.fixture(scope="class")
    def oracle(self):
        return cluster2_oracle(mesh_graph(15, 15), 0)

    def test_batched_equals_scalar(self, oracle):
        n = oracle.num_nodes
        rng = np.random.default_rng(0)
        us = rng.integers(0, n, size=1_000)
        vs = rng.integers(0, n, size=1_000)
        us[:30] = vs[:30]  # exercise the u == v fast path too
        lower, upper = oracle.query_batch(us, vs)
        assert lower.dtype == np.float64 and upper.dtype == np.float64
        for i in range(us.size):
            assert (lower[i], upper[i]) == oracle.query(int(us[i]), int(vs[i]))

    def test_empty_batch(self, oracle):
        lower, upper = oracle.query_batch([], [])
        assert lower.shape == upper.shape == (0,)

    def test_length_mismatch_rejected(self, oracle):
        with pytest.raises(ValueError, match="same length"):
            oracle.query_batch([0, 1], [2])

    def test_out_of_range_names_offender(self, oracle):
        with pytest.raises(IndexError, match="us 900 out of range"):
            oracle.query_batch([900], [0])
        with pytest.raises(IndexError, match="vs -3 out of range"):
            oracle.query_batch([0], [-3])

    def test_float_ids_rejected(self, oracle):
        with pytest.raises(TypeError, match="integer"):
            oracle.query_batch(np.asarray([0.0]), np.asarray([1.0]))

    def test_two_dimensional_rejected(self, oracle):
        with pytest.raises(ValueError, match="1-d"):
            oracle.query_batch(np.zeros((2, 2), dtype=np.int64),
                               np.zeros((2, 2), dtype=np.int64))


class TestCheckNodeBatch:
    def test_accepts_lists_and_arrays(self):
        out = check_node_batch([0, 1, 2], 5)
        assert out.dtype == np.int64
        assert np.array_equal(out, [0, 1, 2])

    def test_empty_any_dtype(self):
        assert check_node_batch([], 5).size == 0
        assert check_node_batch(np.zeros(0), 5).dtype == np.int64


class TestWeightedOracle:
    @pytest.fixture(scope="class")
    def weighted_oracle(self):
        graph = attach_weights(mesh_graph(12, 12), "uniform", seed=3)
        return GraphService.build(graph, seed=5).oracle

    def test_is_weighted(self, weighted_oracle):
        assert weighted_oracle.is_weighted

    def test_same_cluster_lower_is_min_weight(self, weighted_oracle):
        graph = attach_weights(mesh_graph(12, 12), "uniform", seed=3)
        assert weighted_oracle.same_cluster_lower == pytest.approx(
            float(graph.weights.min())
        )

    def test_bounds_sandwich_dijkstra(self, weighted_oracle):
        graph = attach_weights(mesh_graph(12, 12), "uniform", seed=3)
        rng = np.random.default_rng(1)
        for s in rng.choice(graph.num_nodes, size=3, replace=False):
            true_dist = dijkstra(graph, int(s))
            targets = rng.integers(0, graph.num_nodes, size=40)
            lower, upper = weighted_oracle.query_batch(
                np.full(targets.size, int(s)), targets
            )
            assert np.all(lower <= true_dist[targets] + 1e-9)
            assert np.all(true_dist[targets] <= upper + 1e-9)


class TestFrozenReference:
    """The batch-first redesign must serve bit-identical answers to the
    historical scalar oracle — pinned by goldens generated pre-redesign."""

    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads(GOLDEN_PATH.read_text())

    @pytest.mark.parametrize("name", sorted(GOLDEN_GRAPHS))
    def test_scalar_queries_bit_identical(self, golden, name):
        payload = golden[name]
        oracle = cluster2_oracle(GOLDEN_GRAPHS[name](), payload["seed"])
        assert oracle.num_clusters == payload["num_clusters"]
        assert oracle.space_entries == payload["space_entries"]
        for u, v, lower, upper in payload["queries"]:
            assert oracle.query(u, v) == (lower, upper)

    @pytest.mark.parametrize("name", sorted(GOLDEN_GRAPHS))
    def test_batched_queries_bit_identical(self, golden, name):
        payload = golden[name]
        oracle = cluster2_oracle(GOLDEN_GRAPHS[name](), payload["seed"])
        queries = np.asarray(payload["queries"], dtype=np.float64)
        us = queries[:, 0].astype(np.int64)
        vs = queries[:, 1].astype(np.int64)
        lower, upper = oracle.query_batch(us, vs)
        assert np.array_equal(lower, queries[:, 2])
        assert np.array_equal(upper, queries[:, 3])
