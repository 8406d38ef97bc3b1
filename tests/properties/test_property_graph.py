"""Property-based tests (hypothesis) for the graph substrate."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.components import connected_components, num_connected_components
from repro.graph.csr import CSRGraph
from repro.graph.traversal import bfs_distances, multi_source_bfs

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

MAX_NODES = 40


@st.composite
def edge_lists(draw, max_nodes: int = MAX_NODES, max_edges: int = 120):
    """Random edge lists over a small node range (may include self loops / dups)."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    m = draw(st.integers(min_value=0, max_value=max_edges))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ),
            min_size=m,
            max_size=m,
        )
    )
    return n, edges


@st.composite
def connected_graphs(draw, max_nodes: int = MAX_NODES):
    """Connected graphs: a random spanning tree plus random extra edges."""
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    edges = []
    for v in range(1, n):
        parent = draw(st.integers(min_value=0, max_value=v - 1))
        edges.append((parent, v))
    extra = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ),
            max_size=2 * n,
        )
    )
    edges.extend(extra)
    return CSRGraph.from_edges(np.asarray(edges, dtype=np.int64), num_nodes=n)


# ---------------------------------------------------------------------------
# CSR construction invariants
# ---------------------------------------------------------------------------


class TestCSRProperties:
    @given(edge_lists())
    @settings(max_examples=60, deadline=None)
    def test_construction_invariants(self, data):
        n, edges = data
        g = CSRGraph.from_edges(np.asarray(edges, dtype=np.int64).reshape(-1, 2), num_nodes=n)
        # indptr is monotone and consistent with indices.
        assert g.indptr[0] == 0
        assert g.indptr[-1] == g.indices.size
        assert np.all(np.diff(g.indptr) >= 0)
        # no self loops, all neighbours valid, adjacency symmetric
        for u in range(g.num_nodes):
            nbrs = g.neighbors(u)
            assert u not in nbrs
            assert np.all(np.diff(nbrs) > 0)  # sorted, no duplicates
            for v in nbrs:
                assert g.has_edge(int(v), u)
        # degree sum is twice the edge count
        assert int(g.degree().sum()) == 2 * g.num_edges

    @given(edge_lists())
    @settings(max_examples=40, deadline=None)
    def test_edges_roundtrip(self, data):
        n, edges = data
        g = CSRGraph.from_edges(np.asarray(edges, dtype=np.int64).reshape(-1, 2), num_nodes=n)
        rebuilt = CSRGraph.from_edges(g.edges(), num_nodes=n)
        assert rebuilt == g

    @given(
        edge_lists(),
        st.lists(st.integers(min_value=0, max_value=MAX_NODES - 1), max_size=2 * MAX_NODES),
        st.booleans(),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_subgraph_matches_edge_list_rebuild(self, data, picks, weighted, seed):
        """The row-copying subgraph equals the induced edge list folded
        through ``from_edges`` (node picks may repeat, and nodes may be
        isolated or dropped entirely)."""
        n, edges = data
        edge_array = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        weights = np.random.default_rng(seed).uniform(0.5, 4.0, size=len(edges)) if weighted else None
        graph = CSRGraph.from_edges(edge_array, num_nodes=n, weights=weights)
        nodes = [p % n for p in picks]
        sub, mapping = graph.subgraph(nodes)
        keep = np.unique(np.asarray(nodes, dtype=np.int64))
        new_id = np.full(n, -1, dtype=np.int64)
        new_id[keep] = np.arange(keep.size)
        induced, induced_weights = graph.edge_list()
        inside = (new_id[induced[:, 0]] >= 0) & (new_id[induced[:, 1]] >= 0)
        reference = CSRGraph.from_edges(
            new_id[induced[inside]],
            num_nodes=keep.size,
            weights=None if induced_weights is None else induced_weights[inside],
        )
        assert np.array_equal(mapping, keep)
        assert sub == reference
        assert sub.indptr.dtype == sub.indices.dtype == np.int64
        assert sub.is_weighted == weighted
        if weighted:
            assert sub.weights.dtype == np.float64


# ---------------------------------------------------------------------------
# BFS / components against networkx
# ---------------------------------------------------------------------------


class TestTraversalProperties:
    @given(connected_graphs(), st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_bfs_matches_networkx(self, graph, source_pick):
        import networkx as nx

        source = source_pick % graph.num_nodes
        nxg = nx.Graph()
        nxg.add_nodes_from(range(graph.num_nodes))
        nxg.add_edges_from(map(tuple, graph.edges()))
        expected = nx.single_source_shortest_path_length(nxg, source)
        dist = bfs_distances(graph, source)
        for node in range(graph.num_nodes):
            assert dist[node] == expected.get(node, -1)

    @given(edge_lists())
    @settings(max_examples=40, deadline=None)
    def test_components_match_networkx(self, data):
        import networkx as nx

        n, edges = data
        g = CSRGraph.from_edges(np.asarray(edges, dtype=np.int64).reshape(-1, 2), num_nodes=n)
        nxg = nx.Graph()
        nxg.add_nodes_from(range(n))
        nxg.add_edges_from(map(tuple, g.edges()))
        assert num_connected_components(g) == nx.number_connected_components(nxg)
        labels = connected_components(g)
        for u, v in g.edges():
            assert labels[u] == labels[v]

    @given(connected_graphs(), st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=4))
    @settings(max_examples=30, deadline=None)
    def test_multi_source_bfs_is_min_of_single_sources(self, graph, picks):
        sources = sorted({p % graph.num_nodes for p in picks})
        result = multi_source_bfs(graph, sources)
        stacked = np.stack([bfs_distances(graph, s) for s in sources])
        assert np.array_equal(result.distances, stacked.min(axis=0))
