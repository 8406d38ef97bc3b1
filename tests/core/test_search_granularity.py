"""The shared granularity search reproduces the two loops it replaced.

:func:`~repro.core.cluster.search_granularity` runs CLUSTER's τ search and
MPX's β search.  Both public searches must return the arrays the frozen
loops of ``search_reference.py`` return, and must leave the shared random
stream at the same position, on connected and disconnected graphs and on
targets below, inside and above what each graph reaches.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from search_reference import (  # rootless test layout: pytest puts this dir on sys.path
    reference_cluster_with_target_clusters,
    reference_default_tau,
    reference_mpx_with_target_clusters,
)

from repro.baselines.mpx import mpx_with_target_clusters
from repro.core.cluster import cluster_with_target_clusters, default_tau
from repro.generators import barabasi_albert_graph, mesh_graph, road_network_graph
from repro.generators.rmat import rmat_graph
from repro.graph.builders import disjoint_union

GRAPHS = {
    "mesh": lambda: mesh_graph(16, 16),
    "road": lambda: road_network_graph(18, 18, seed=5),
    "ba": lambda: barabasi_albert_graph(300, 3, seed=7),
    # 218 components, most of them isolated nodes.
    "rmat-disconnected": lambda: rmat_graph(10, 8, seed=3),
    "disjoint-meshes": lambda: disjoint_union([mesh_graph(8, 8), mesh_graph(6, 6), mesh_graph(3, 3)]),
}

SEARCHES = {
    "cluster": (cluster_with_target_clusters, reference_cluster_with_target_clusters, {}),
    "mpx": (mpx_with_target_clusters, reference_mpx_with_target_clusters, {}),
    "mpx-at-least": (
        mpx_with_target_clusters,
        reference_mpx_with_target_clusters,
        {"require_at_least_target": True},
    ),
}


def _targets(num_nodes: int):
    # Below what CLUSTER and a connected graph's components allow, inside
    # the reachable range, and above the node count.
    return sorted({1, 3, max(1, num_nodes // 40), max(1, num_nodes // 8), num_nodes // 2, 2 * num_nodes})


@pytest.mark.parametrize("search", sorted(SEARCHES))
@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
def test_search_matches_frozen_loop(graph_name, search):
    graph = GRAPHS[graph_name]()
    public, reference, options = SEARCHES[search]
    for target in _targets(graph.num_nodes):
        for seed in range(4):
            rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            result = public(graph, target, seed=rng, **options)
            expected = reference(graph, target, seed=reference_rng, **options)
            case = f"target={target} seed={seed}"
            assert np.array_equal(result.assignment, expected.assignment), case
            assert np.array_equal(result.centers, expected.centers), case
            assert np.array_equal(result.distance, expected.distance), case
            assert rng.random() == reference_rng.random(), case


def test_default_tau_matches_frozen_formula():
    for n in [*range(5001), 65_536, 10**6, 2 * 10**6, 10**9, 2**40]:
        graph = SimpleNamespace(num_nodes=n)
        assert default_tau(graph) == reference_default_tau(graph), n

