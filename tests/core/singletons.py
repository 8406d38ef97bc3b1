"""The degenerate clustering that makes every node its own center."""

from __future__ import annotations

import numpy as np

from repro.core.clustering import Clustering


def singleton_clustering(num_nodes: int) -> Clustering:
    """Every node a cluster of one: the quotient graph is the graph itself."""
    ids = np.arange(num_nodes, dtype=np.int64)
    return Clustering(
        num_nodes=num_nodes,
        assignment=ids.copy(),
        centers=ids.copy(),
        distance=np.zeros(num_nodes, dtype=np.int64),
        algorithm="singletons",
    )
