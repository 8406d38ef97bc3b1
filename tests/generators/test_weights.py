"""Tests for the generators' ``weights=`` option and ``attach_weights``."""

from __future__ import annotations

import numpy as np
import pytest

from repro.generators import (
    attach_weights,
    barabasi_albert_graph,
    cycle_graph,
    erdos_renyi_graph,
    expander_with_path,
    gnm_graph,
    mesh_graph,
    path_graph,
    random_geometric_graph,
    random_regular_graph,
    rmat_graph,
    road_network_graph,
    torus_graph,
)
from repro.graph.csr import CSRGraph

WEIGHTED_BUILDERS = {
    "mesh": lambda w: mesh_graph(6, 6, weights=w, seed=1),
    "torus": lambda w: torus_graph(5, 5, weights=w, seed=2),
    "path": lambda w: path_graph(9, weights=w, seed=3),
    "cycle": lambda w: cycle_graph(8, weights=w, seed=4),
    "erdos-renyi": lambda w: erdos_renyi_graph(60, 0.08, seed=5, weights=w),
    "gnm": lambda w: gnm_graph(40, 80, seed=6, weights=w),
    "regular": lambda w: random_regular_graph(30, 4, seed=7, weights=w),
    "ba": lambda w: barabasi_albert_graph(80, 3, seed=8, weights=w),
    "rmat": lambda w: rmat_graph(6, 4, seed=9, weights=w),
    "geometric": lambda w: random_geometric_graph(80, 0.2, seed=10, weights=w),
    "road": lambda w: road_network_graph(10, 10, seed=11, weights=w),
    "expander-path": lambda w: expander_with_path(64, seed=12, weights=w),
}


@pytest.mark.parametrize("name", sorted(WEIGHTED_BUILDERS))
@pytest.mark.parametrize("kind", ["uniform", "degree"])
def test_generators_emit_weighted_csr(name, kind):
    graph = WEIGHTED_BUILDERS[name](kind)
    assert graph.is_weighted
    assert graph.weights.shape == graph.indices.shape
    if graph.weights.size:
        assert graph.weights.min() > 0


@pytest.mark.parametrize("name", sorted(WEIGHTED_BUILDERS))
def test_weights_none_keeps_unweighted(name):
    graph = WEIGHTED_BUILDERS[name](None)
    assert not graph.is_weighted
    assert graph.weights is None


def test_weighted_topology_matches_unweighted():
    plain = mesh_graph(7, 5)
    weighted = mesh_graph(7, 5, weights="uniform", seed=0)
    assert np.array_equal(plain.indptr, weighted.indptr)
    assert np.array_equal(plain.indices, weighted.indices)


def test_seeded_weights_are_reproducible():
    a = road_network_graph(8, 8, seed=3, weights="uniform")
    b = road_network_graph(8, 8, seed=3, weights="uniform")
    assert np.array_equal(a.weights, b.weights)
    c = road_network_graph(8, 8, seed=4, weights="uniform")
    assert not np.array_equal(a.weights, c.weights)


def test_attach_weights_symmetric_per_edge():
    graph = mesh_graph(5, 5)
    weighted = attach_weights(graph, "uniform", seed=1)
    edges = weighted.edges()
    for u, v in edges[:20]:
        assert weighted.edge_weight(int(u), int(v)) == weighted.edge_weight(int(v), int(u))


def test_attach_weights_range():
    weighted = attach_weights(mesh_graph(6, 6), "uniform", low=2.0, high=3.0, seed=0)
    assert weighted.weights.min() >= 2.0
    assert weighted.weights.max() <= 3.0


def test_degree_correlated_weights_favor_hubs():
    graph = barabasi_albert_graph(300, 3, seed=2)
    weighted = attach_weights(graph, "degree", seed=2)
    edges, weights = weighted.edge_list()
    degrees = graph.degree()
    strength = np.sqrt(degrees[edges[:, 0]] * degrees[edges[:, 1]])
    top = strength >= np.quantile(strength, 0.9)
    assert weights[top].mean() > weights[~top].mean()


def test_attach_weights_empty_graph():
    weighted = attach_weights(CSRGraph.empty(4), "uniform", seed=0)
    assert weighted.is_weighted
    assert weighted.num_edges == 0


def test_attach_weights_rejects_unknown_kind():
    with pytest.raises(ValueError):
        attach_weights(mesh_graph(3, 3), "gaussian")
    with pytest.raises(ValueError):
        attach_weights(mesh_graph(3, 3), "uniform", low=0.0)
