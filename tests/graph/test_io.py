"""Unit tests for edge-list IO."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph.io import (
    iter_edge_list_chunks,
    load_edge_list,
    parse_edge_list_text,
    save_edge_list,
)
from repro.generators import mesh_graph
from repro.weighted.wgraph import WeightedCSRGraph


class TestParse:
    def test_basic(self):
        edges = parse_edge_list_text("0 1\n1 2\n")
        assert edges.tolist() == [[0, 1], [1, 2]]

    def test_comments_and_blank_lines(self):
        text = "# a comment\n% another\n\n0\t1\n"
        edges = parse_edge_list_text(text)
        assert edges.tolist() == [[0, 1]]

    def test_extra_columns_ignored(self):
        edges = parse_edge_list_text("3 4 0.5 extra\n")
        assert edges.tolist() == [[3, 4]]

    def test_bad_line_raises(self):
        with pytest.raises(ValueError):
            parse_edge_list_text("0\n")
        with pytest.raises(ValueError):
            parse_edge_list_text("a b\n")

    def test_empty_text(self):
        assert parse_edge_list_text("# only comments\n").shape == (0, 2)

    def test_with_weights_full_column(self):
        edges, weights = parse_edge_list_text("0 1 2.5\n1 2 0.5\n", with_weights=True)
        assert edges.tolist() == [[0, 1], [1, 2]]
        assert weights.tolist() == [2.5, 0.5]

    def test_with_weights_missing_or_bad_column(self):
        # A line without a third column, or with a non-numeric one, makes the
        # whole file unweighted rather than silently dropping rows.
        for text in ("0 1 2.5\n1 2\n", "0 1 ts0\n1 2 ts1\n"):
            edges, weights = parse_edge_list_text(text, with_weights=True)
            assert weights is None

    def test_with_weights_empty_text(self):
        # No data lines is vacuously weighted: an empty array, not None, so
        # an edgeless weighted file still round-trips as a weighted graph.
        edges, weights = parse_edge_list_text("# empty\n", with_weights=True)
        assert edges.shape == (0, 2)
        assert weights is not None and weights.size == 0


class TestRoundTrip:
    def test_edge_list_roundtrip(self, tmp_path, tiny_graph):
        path = tmp_path / "graph.txt"
        save_edge_list(tiny_graph, path, header="tiny test graph")
        loaded, ids = load_edge_list(path)
        assert loaded.num_nodes == tiny_graph.num_nodes
        assert loaded.num_edges == tiny_graph.num_edges
        assert ids.tolist() == list(range(6))

    def test_load_without_relabel(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("0 5\n5 3\n")
        graph, ids = load_edge_list(path, relabel=False)
        assert graph.num_nodes == 6
        assert ids.tolist() == list(range(6))

    def test_load_relabel_sparse_ids(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("1000 2000\n2000 3000\n")
        graph, ids = load_edge_list(path)
        assert graph.num_nodes == 3
        assert ids.tolist() == [1000, 2000, 3000]

    def test_symmetrize_flag(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("0 1\n1 0\n1 2\n")
        graph, _ = load_edge_list(path, symmetrize=True)
        assert graph.num_edges == 2

    def test_weighted_edge_list_roundtrip(self, tmp_path):
        graph = mesh_graph(4, 4, weights="uniform", seed=1)
        path = tmp_path / "weighted.txt"
        save_edge_list(graph, path)
        loaded, ids = load_edge_list(path)
        assert isinstance(loaded, WeightedCSRGraph)
        assert loaded == graph
        assert ids.tolist() == list(range(graph.num_nodes))

    def test_weighted_load_folds_min_weight(self, tmp_path):
        path = tmp_path / "dup.txt"
        path.write_text("0 1 3.0\n1 0 1.5\n1 2 2.0\n")
        graph, _ = load_edge_list(path, weighted=True)
        assert isinstance(graph, WeightedCSRGraph)
        assert graph.num_edges == 2
        assert graph.edge_weight(0, 1) == 1.5
        assert graph.edge_weight(1, 2) == 2.0

    def test_edgeless_weighted_roundtrip_stays_weighted(self, tmp_path):
        g = WeightedCSRGraph.from_edges([], num_nodes=1, weights=[])
        path = tmp_path / "edgeless.txt"
        save_edge_list(g, path)
        loaded, _ = load_edge_list(path)
        assert isinstance(loaded, WeightedCSRGraph)
        assert loaded.weights is not None and loaded.weights.size == 0

    def test_extra_columns_stay_unweighted_by_default(self, tmp_path):
        # SNAP-style temporal edge lists (third column = timestamp) must not
        # silently load as weighted graphs.
        path = tmp_path / "temporal.txt"
        path.write_text("0 1 1217567877\n1 2 1217567878\n")
        graph, _ = load_edge_list(path)
        assert not isinstance(graph, WeightedCSRGraph)
        assert graph.weights is None

    def test_weighted_load_requires_full_column(self, tmp_path):
        path = tmp_path / "partial.txt"
        path.write_text("0 1 2.0\n1 2\n")
        with pytest.raises(ValueError):
            load_edge_list(path, weighted=True)


class TestStreaming:
    def test_chunks_cover_file_in_order(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("# header\n" + "".join(f"{i} {i + 1}\n" for i in range(25)))
        chunks = list(iter_edge_list_chunks(path, chunk_edges=10))
        assert [len(edges) for edges, _ in chunks] == [10, 10, 5]
        stitched = np.concatenate([edges for edges, _ in chunks])
        assert np.array_equal(stitched, parse_edge_list_text(path.read_text()))
        assert all(weights is None for _, weights in chunks)

    def test_chunk_boundary_exact_multiple(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("".join(f"{i} {i + 1}\n" for i in range(20)))
        assert [len(e) for e, _ in iter_edge_list_chunks(path, chunk_edges=10)] == [10, 10]

    def test_weighted_chunks(self, tmp_path):
        path = tmp_path / "weighted.txt"
        path.write_text("0 1 0.5\n1 2 1.5\n2 3 2.5\n")
        chunks = list(iter_edge_list_chunks(path, chunk_edges=2, with_weights=True))
        assert [w.tolist() for _, w in chunks] == [[0.5, 1.5], [2.5]]

    def test_weighted_chunks_require_full_column(self, tmp_path):
        path = tmp_path / "partial.txt"
        path.write_text("0 1 0.5\n1 2\n")
        with pytest.raises(ValueError):
            list(iter_edge_list_chunks(path, with_weights=True))

    def test_bad_chunk_size_rejected(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("0 1\n")
        with pytest.raises(ValueError):
            list(iter_edge_list_chunks(path, chunk_edges=0))


class TestMaxEdgesGuard:
    def test_over_limit_points_at_ingest(self, tmp_path):
        path = tmp_path / "big.txt"
        path.write_text("".join(f"{i} {i + 1}\n" for i in range(10)))
        with pytest.raises(ValueError, match="ingest_edge_list"):
            load_edge_list(path, max_edges=5)

    def test_at_limit_loads(self, tmp_path):
        path = tmp_path / "ok.txt"
        path.write_text("".join(f"{i} {i + 1}\n" for i in range(5)))
        graph, _ = load_edge_list(path, max_edges=5)
        assert graph.num_edges == 5

    def test_disabled_guard(self, tmp_path):
        path = tmp_path / "any.txt"
        path.write_text("".join(f"{i} {i + 1}\n" for i in range(10)))
        graph, _ = load_edge_list(path, max_edges=None)
        assert graph.num_edges == 10
