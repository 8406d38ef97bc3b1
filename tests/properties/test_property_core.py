"""Property-based tests (hypothesis) for the core decomposition algorithms."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.mpx import mpx_decomposition
from repro.core.cluster import cluster
from repro.core.diameter import estimate_diameter
from repro.core.quotient import build_quotient_graph, quotient_diameter
from repro.graph.csr import CSRGraph
from repro.graph.traversal import bfs_distances
from tests.graph.kernel_reference import eccentricities_loop


def all_pairs_diameter(graph: CSRGraph) -> int:
    """Reference diameter: the largest eccentricity over every node."""
    nodes = np.arange(graph.num_nodes, dtype=np.int64)
    return int(eccentricities_loop(graph.indptr, graph.indices, nodes).max())


@st.composite
def connected_graphs(draw, min_nodes: int = 3, max_nodes: int = 36):
    """Connected graphs: random spanning tree plus random extra edges."""
    n = draw(st.integers(min_value=min_nodes, max_value=max_nodes))
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
            max_size=n,
        )
    )
    edges.extend(extra)
    return CSRGraph.from_edges(np.asarray(edges, dtype=np.int64), num_nodes=n)


class TestClusterProperties:
    @given(connected_graphs(), st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_cluster_is_valid_partition(self, graph, tau, seed):
        clustering = cluster(graph, tau, seed=seed)
        clustering.validate(graph)
        # Growth distance is an upper bound on the true distance to the center.
        for cid in range(clustering.num_clusters):
            center = int(clustering.centers[cid])
            members = clustering.members(cid)
            true_dist = bfs_distances(graph, center)
            assert np.all(clustering.distance[members] >= true_dist[members])

    @given(connected_graphs(), st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_cluster_radius_at_most_diameter(self, graph, seed):
        clustering = cluster(graph, 1, seed=seed)
        assert clustering.max_radius <= all_pairs_diameter(graph)

    @given(connected_graphs(), st.floats(min_value=0.05, max_value=3.0), st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_mpx_is_valid_partition(self, graph, beta, seed):
        clustering = mpx_decomposition(graph, beta, seed=seed)
        clustering.validate(graph)


class TestDiameterProperties:
    @given(connected_graphs(), st.integers(min_value=1, max_value=3), st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_diameter_sandwich(self, graph, tau, seed):
        """∆_C <= ∆ <= ∆'' <= ∆' for every decomposition of every graph."""
        true_diameter = all_pairs_diameter(graph)
        estimate = estimate_diameter(graph, tau=tau, seed=seed)
        assert estimate.lower_bound <= true_diameter
        assert estimate.upper_bound >= true_diameter
        assert estimate.upper_bound_weighted <= estimate.upper_bound_unweighted + 1e-9

    @given(connected_graphs(), st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_quotient_connected_and_diameter_bounded(self, graph, seed):
        clustering = cluster(graph, 1, seed=seed)
        quotient = build_quotient_graph(graph, clustering)
        if quotient.num_nodes > 1:
            # A connected graph's quotient is connected, and its diameter never
            # exceeds the graph diameter.
            assert quotient_diameter(quotient) <= all_pairs_diameter(graph)
