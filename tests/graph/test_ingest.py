"""Streaming ingestion must be bit-identical to the in-memory builders."""

from __future__ import annotations

import numpy as np
import pytest

from repro.generators import barabasi_albert_graph, mesh_graph
from repro.graph.components import largest_component
from repro.graph.csr import CSRGraph
from repro.graph.ingest import (
    from_edge_chunks,
    ingest_edge_list,
    largest_component_snapshot,
)
from repro.graph.io import save_edge_list


def _random_edges(rng, num_edges, num_nodes):
    """Messy input: duplicates, reversed duplicates, and self-loops."""
    edges = rng.integers(0, num_nodes, size=(num_edges, 2), dtype=np.int64)
    loops = rng.integers(0, num_nodes, size=(num_edges // 10 + 1,), dtype=np.int64)
    edges = np.vstack([edges, np.stack([loops, loops], axis=1), edges[::3, ::-1]])
    return edges


def _chunked(edges, chunk, weights=None):
    def source():
        for start in range(0, len(edges), chunk):
            if weights is None:
                yield edges[start : start + chunk], None
            else:
                yield edges[start : start + chunk], weights[start : start + chunk]

    return source


class TestFromEdgeChunks:
    @pytest.mark.parametrize("seed,chunk", [(0, 7), (1, 64), (2, 1000)])
    def test_unweighted_matches_from_edges(self, seed, chunk):
        rng = np.random.default_rng(seed)
        edges = _random_edges(rng, 500, 60)
        expected = CSRGraph.from_edges(edges)
        got = from_edge_chunks(_chunked(edges, chunk))
        assert type(got) is CSRGraph
        assert np.array_equal(got.indptr, expected.indptr)
        assert np.array_equal(got.indices, expected.indices)

    @pytest.mark.parametrize("seed,chunk", [(3, 13), (4, 200)])
    def test_weighted_min_fold_matches_from_edges(self, seed, chunk):
        rng = np.random.default_rng(seed)
        edges = _random_edges(rng, 400, 40)
        weights = rng.uniform(0.1, 5.0, size=len(edges))
        expected = CSRGraph.from_edges(edges, weights=weights)
        got = from_edge_chunks(_chunked(edges, chunk, weights))
        assert got.is_weighted
        assert np.array_equal(got.indptr, expected.indptr)
        assert np.array_equal(got.indices, expected.indices)
        assert np.array_equal(got.weights, expected.weights)

    @pytest.mark.parametrize("mmap", [True, False])
    def test_snapshot_output_bit_identical(self, tmp_path, mmap):
        rng = np.random.default_rng(5)
        edges = _random_edges(rng, 600, 80)
        expected = CSRGraph.from_edges(edges)
        got = from_edge_chunks(
            _chunked(edges, 37), snapshot_path=tmp_path / "g.snap", mmap=mmap
        )
        assert got == expected
        assert got.mode == ("mmap" if mmap else "in_memory")
        assert (tmp_path / "g.snap").exists()

    def test_explicit_num_nodes_adds_isolated_tail(self):
        edges = np.array([[0, 1], [1, 2]])
        got = from_edge_chunks(_chunked(edges, 1), num_nodes=10)
        assert got == CSRGraph.from_edges(edges, num_nodes=10)
        assert got.num_nodes == 10

    def test_num_nodes_too_small_rejected(self):
        edges = np.array([[0, 5]])
        with pytest.raises(ValueError, match="num_nodes"):
            from_edge_chunks(_chunked(edges, 1), num_nodes=3)

    def test_empty_stream(self):
        got = from_edge_chunks(lambda: iter(()))
        assert got.num_nodes == 0 and got.num_edges == 0

    def test_mixed_weightedness_rejected(self):
        def source():
            yield np.array([[0, 1]]), np.array([1.0])
            yield np.array([[1, 2]]), None

        with pytest.raises(ValueError, match="uniformly"):
            from_edge_chunks(source)

    def test_node_id_over_packed_key_limit_rejected(self):
        edges = np.array([[0, 1 << 31]])
        with pytest.raises(ValueError, match="2\\^31"):
            from_edge_chunks(_chunked(edges, 1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -1.0])
    def test_bad_weights_rejected(self, bad):
        # The bad weight duplicates a good edge, so folding would hide an inf.
        edges = np.array([[0, 1], [1, 2], [1, 0]])
        weights = np.array([1.0, 1.0, bad])
        with pytest.raises(ValueError, match="finite and strictly positive"):
            from_edge_chunks(_chunked(edges, 1, weights))


class TestIngestEdgeList:
    def test_matches_in_memory_load(self, tmp_path):
        graph = barabasi_albert_graph(120, 3, seed=9)
        path = tmp_path / "graph.txt"
        save_edge_list(graph, path)
        got = ingest_edge_list(path, chunk_edges=17)
        assert got == graph

    def test_weighted_file(self, tmp_path):
        graph = mesh_graph(6, 6, weights="uniform", seed=2)
        path = tmp_path / "weighted.txt"
        save_edge_list(graph, path)
        got = ingest_edge_list(path, weighted=True, chunk_edges=11)
        assert got.is_weighted
        assert got == graph

    def test_to_snapshot(self, tmp_path):
        graph = mesh_graph(5, 8)
        source = tmp_path / "graph.txt"
        save_edge_list(graph, source)
        got = ingest_edge_list(source, snapshot_path=tmp_path / "g.snap")
        assert got == graph and got.mode == "mmap"


class TestLargestComponentSnapshot:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_in_memory_helper(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        edges = rng.integers(0, 90, size=(160, 2), dtype=np.int64)
        graph = CSRGraph.from_edges(edges, num_nodes=100)  # isolated tail nodes
        expected, expected_ids = largest_component(graph)
        got, got_ids = largest_component_snapshot(
            graph, tmp_path / f"lc{seed}.snap", chunk_arcs=16
        )
        assert np.array_equal(got_ids, expected_ids)
        assert got == expected
        assert got.mode == "mmap"

    def test_weighted_positions_align(self, tmp_path):
        graph = mesh_graph(5, 5, weights="uniform", seed=4)
        expected, _ = largest_component(graph)
        got, _ = largest_component_snapshot(graph, tmp_path / "w.snap", chunk_arcs=8)
        assert got.is_weighted
        assert np.array_equal(got.weights, expected.weights)
