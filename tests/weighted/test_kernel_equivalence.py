"""Golden equivalence: vectorized weighted kernels vs. frozen heapq loops.

Pins ``dijkstra`` and multi-source ``kernels.delta_stepping`` outputs *bit
for bit* against the pre-refactor implementations kept frozen in
``frozen_heapq.py`` (the weighted analogue of the growth goldens), across
seeded generator graphs including disconnected and single-node cases.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.generators import (
    attach_weights,
    barabasi_albert_graph,
    mesh_graph,
    path_graph,
    road_network_graph,
)
from repro.graph import kernels
from repro.graph.builders import disjoint_union
from repro.graph.csr import CSRGraph
from repro.graph.traversal import dijkstra

from frozen_heapq import (  # rootless test layout: pytest puts this dir on sys.path
    frozen_dijkstra,
    frozen_multi_source_dijkstra,
)


def _graphs():
    return {
        "mesh-uniform": mesh_graph(14, 14, weights="uniform", seed=11),
        "mesh-degree": mesh_graph(12, 12, weights="degree", seed=12),
        "ba-uniform": barabasi_albert_graph(400, 4, seed=5, weights="uniform"),
        "road-uniform": road_network_graph(20, 20, seed=6, weights="uniform"),
        "disconnected": attach_weights(
            disjoint_union([mesh_graph(7, 7), mesh_graph(5, 5), path_graph(3)]),
            "uniform",
            seed=13,
        ),
        "single-node": attach_weights(path_graph(1), "uniform", seed=14),
        "unit-path": attach_weights(path_graph(9), "uniform", low=1.0, high=1.0),
        # Mean weight 18/7: delta_stepping's bucket boundary 7 * (18/7)
        # rounds onto the bucket minimum 18 itself and must be widened.
        "path-bucket-boundary": CSRGraph.from_edges([(i, i + 1) for i in range(7)], weights=[3, 3, 3, 3, 2, 2, 2]),
    }


GRAPHS = _graphs()


def multi_source_dijkstra(graph, sources):
    """``(distances, owners)`` from the kernel, on deduplicated sources."""
    sources = np.unique(np.asarray(sources, dtype=np.int64))
    return kernels.delta_stepping(graph.indptr, graph.indices, graph.weights, sources)


def _source_sets(graph):
    n = graph.num_nodes
    yield [0]
    if n > 1:
        yield [0, n // 2, n - 1]


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_multi_source_dijkstra_matches_frozen_heapq(name):
    graph = GRAPHS[name]
    for sources in _source_sets(graph):
        ref_dist, ref_owner = frozen_multi_source_dijkstra(graph, sources)
        distances, owners = multi_source_dijkstra(graph, sources)
        assert np.array_equal(ref_dist, distances), (name, sources)
        assert np.array_equal(ref_owner, owners), (name, sources)


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_dijkstra_matches_frozen_heapq(name):
    graph = GRAPHS[name]
    assert np.array_equal(frozen_dijkstra(graph, 0), dijkstra(graph, 0)), name


def test_empty_source_set():
    graph = GRAPHS["mesh-uniform"]
    distances, owners = multi_source_dijkstra(graph, [])
    assert not np.any(np.isfinite(distances))
    assert np.all(owners == -1)


def test_source_out_of_range():
    graph = GRAPHS["mesh-uniform"]
    with pytest.raises(IndexError):
        dijkstra(graph, graph.num_nodes)
    with pytest.raises(IndexError):
        dijkstra(graph, -1)
