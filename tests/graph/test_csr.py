"""Unit tests for the CSR graph representation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph.csr import CSRGraph


class TestConstruction:
    def test_from_edges_basic(self):
        g = CSRGraph.from_edges([(0, 1), (1, 2)])
        assert g.num_nodes == 3
        assert g.num_edges == 2
        assert g.num_directed_edges == 4

    def test_from_edges_numpy_input(self):
        edges = np.asarray([[0, 1], [2, 3]], dtype=np.int64)
        g = CSRGraph.from_edges(edges)
        assert g.num_nodes == 4
        assert g.num_edges == 2

    def test_self_loops_removed(self):
        g = CSRGraph.from_edges([(0, 0), (0, 1), (1, 1)])
        assert g.num_edges == 1
        assert not g.has_edge(0, 0)

    def test_duplicate_edges_removed(self):
        g = CSRGraph.from_edges([(0, 1), (1, 0), (0, 1), (0, 1)])
        assert g.num_edges == 1

    def test_explicit_num_nodes_adds_isolated(self):
        g = CSRGraph.from_edges([(0, 1)], num_nodes=5)
        assert g.num_nodes == 5
        assert g.degree(4) == 0

    def test_num_nodes_too_small_rejected(self):
        with pytest.raises(ValueError):
            CSRGraph.from_edges([(0, 5)], num_nodes=3)

    def test_negative_endpoint_rejected(self):
        with pytest.raises(ValueError):
            CSRGraph.from_edges([(-1, 2)])

    def test_node_id_over_packed_key_limit_rejected(self):
        # Raised before anything node-sized is allocated.
        with pytest.raises(ValueError, match="2\\^31"):
            CSRGraph.from_edges([(0, 1 << 31)])

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            CSRGraph.from_edges(np.zeros((3, 3), dtype=np.int64))

    def test_empty_edge_list(self):
        g = CSRGraph.from_edges([])
        assert g.num_nodes == 0
        assert g.num_edges == 0

    def test_empty_constructor(self):
        g = CSRGraph.empty(7)
        assert g.num_nodes == 7
        assert g.num_edges == 0
        assert g.degree(3) == 0

    def test_empty_negative_rejected(self):
        with pytest.raises(ValueError):
            CSRGraph.empty(-1)

    def test_invalid_indptr_rejected(self):
        with pytest.raises(ValueError):
            CSRGraph(indptr=np.asarray([0, 2]), indices=np.asarray([1]))

    def test_indices_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            CSRGraph(indptr=np.asarray([0, 1]), indices=np.asarray([5]))

    def test_non_monotone_indptr_rejected(self):
        with pytest.raises(ValueError):
            CSRGraph(indptr=np.asarray([0, 2, 1, 3]), indices=np.asarray([1, 2, 0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -1.0])
    def test_from_edges_rejects_bad_weights(self, bad):
        # A NaN minimum passes ``min() <= 0``; it used to hang delta_stepping.
        # The bad weight duplicates a good edge, so folding would hide an inf.
        with pytest.raises(ValueError, match="finite and strictly positive"):
            CSRGraph.from_edges([(0, 1), (1, 2), (1, 0)], num_nodes=3, weights=[1.0, 1.0, bad])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -1.0])
    def test_raw_constructor_rejects_bad_weights(self, bad):
        with pytest.raises(ValueError, match="finite and strictly positive"):
            CSRGraph(
                indptr=np.asarray([0, 1, 2]),
                indices=np.asarray([1, 0]),
                weights=np.asarray([bad, bad]),
            )

    def test_raw_constructor_sorts_neighbor_slices(self):
        # Triangle 0-1-2 with every adjacency row deliberately unsorted; the
        # constructor must restore the documented per-row sort invariant so
        # has_edge's binary search stays correct.
        g = CSRGraph(
            indptr=np.asarray([0, 2, 4, 6]),
            indices=np.asarray([2, 1, 2, 0, 1, 0]),
        )
        for node in range(3):
            row = g.neighbors(node)
            assert np.all(row[1:] >= row[:-1])
        assert g.has_edge(0, 1) and g.has_edge(1, 2) and g.has_edge(0, 2)

    def test_raw_constructor_unsorted_with_empty_rows(self):
        # Empty rows between populated ones must not confuse the row-boundary
        # detection (a row legitimately "restarts" the ordering).
        g = CSRGraph(
            indptr=np.asarray([0, 0, 3, 3, 4]),
            indices=np.asarray([3, 2, 0, 1]),
        )
        assert g.neighbors(1).tolist() == [0, 2, 3]
        assert g.has_edge(1, 0) and g.has_edge(1, 2) and g.has_edge(1, 3)
        assert g.has_edge(3, 1)

    def test_sorted_input_left_untouched(self, tiny_graph):
        rebuilt = CSRGraph(indptr=tiny_graph.indptr, indices=tiny_graph.indices)
        assert rebuilt == tiny_graph


class TestAccessors:
    def test_symmetry(self, tiny_graph):
        for u in range(tiny_graph.num_nodes):
            for v in tiny_graph.neighbors(u):
                assert tiny_graph.has_edge(int(v), u)

    def test_neighbors_sorted(self, tiny_graph):
        for u in range(tiny_graph.num_nodes):
            nbrs = tiny_graph.neighbors(u)
            assert np.all(np.diff(nbrs) > 0)

    def test_degree_scalar_and_vector(self, tiny_graph):
        degrees = tiny_graph.degree()
        assert degrees.sum() == tiny_graph.num_directed_edges
        for u in range(tiny_graph.num_nodes):
            assert tiny_graph.degree(u) == degrees[u]

    def test_degree_out_of_range(self, tiny_graph):
        with pytest.raises(IndexError):
            tiny_graph.degree(99)

    def test_has_edge(self, tiny_graph):
        assert tiny_graph.has_edge(0, 1)
        assert tiny_graph.has_edge(1, 0)
        assert not tiny_graph.has_edge(0, 5)

    def test_edges_each_once_canonical(self, tiny_graph):
        edges = tiny_graph.edges()
        assert edges.shape == (tiny_graph.num_edges, 2)
        assert np.all(edges[:, 0] < edges[:, 1])

    def test_edges_roundtrip(self, tiny_graph):
        rebuilt = CSRGraph.from_edges(tiny_graph.edges(), num_nodes=tiny_graph.num_nodes)
        assert rebuilt == tiny_graph

    def test_len_and_iter(self, tiny_graph):
        assert len(tiny_graph) == 6
        assert list(tiny_graph) == list(range(6))

    def test_repr(self, tiny_graph):
        assert "num_nodes=6" in repr(tiny_graph)

    def test_equality_and_hash(self, tiny_graph):
        other = CSRGraph.from_edges(tiny_graph.edges())
        assert other == tiny_graph
        assert hash(other) == hash(tiny_graph)
        assert tiny_graph != CSRGraph.empty(6)
        assert tiny_graph.__eq__(42) is NotImplemented


class TestNeighborBlocks:
    def test_single_node(self, tiny_graph):
        src, dst = tiny_graph.neighbor_blocks(np.asarray([2]))
        assert set(dst.tolist()) == {0, 1, 3}
        assert np.all(src == 2)

    def test_multiple_nodes(self, tiny_graph):
        nodes = np.asarray([0, 4])
        src, dst = tiny_graph.neighbor_blocks(nodes)
        assert len(src) == len(dst) == tiny_graph.degree(0) + tiny_graph.degree(4)
        # sources appear grouped in the order of the input nodes
        assert set(src.tolist()) == {0, 4}

    def test_empty_input(self, tiny_graph):
        src, dst = tiny_graph.neighbor_blocks(np.asarray([], dtype=np.int64))
        assert src.size == 0 and dst.size == 0

    def test_isolated_nodes(self):
        g = CSRGraph.from_edges([(0, 1)], num_nodes=4)
        src, dst = g.neighbor_blocks(np.asarray([2, 3]))
        assert src.size == 0 and dst.size == 0

    def test_matches_neighbors(self, mesh8):
        nodes = np.asarray([0, 10, 33, 63])
        src, dst = mesh8.neighbor_blocks(nodes)
        for node in nodes:
            expected = set(mesh8.neighbors(int(node)).tolist())
            got = set(dst[src == node].tolist())
            assert got == expected


class TestSubgraph:
    def test_induced_subgraph(self, tiny_graph):
        sub, mapping = tiny_graph.subgraph([0, 1, 2])
        assert sub.num_nodes == 3
        assert sub.num_edges == 3  # the triangle
        assert set(mapping.tolist()) == {0, 1, 2}

    def test_subgraph_disconnects(self, tiny_graph):
        sub, mapping = tiny_graph.subgraph([0, 5])
        assert sub.num_edges == 0
        assert sub.num_nodes == 2

    def test_subgraph_out_of_range(self, tiny_graph):
        with pytest.raises(IndexError):
            tiny_graph.subgraph([0, 99])

    def test_subgraph_preserves_adjacency(self, mesh8):
        nodes = list(range(0, 32))
        sub, mapping = mesh8.subgraph(nodes)
        for i in range(sub.num_nodes):
            for j in sub.neighbors(i):
                assert mesh8.has_edge(int(mapping[i]), int(mapping[int(j)]))
