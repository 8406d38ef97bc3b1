"""R-MAT (recursive matrix) generator.

R-MAT graphs reproduce the skewed degree distributions and community-like
structure of large social graphs and are the standard synthetic stand-in for
crawled networks such as the paper's Twitter subgraph (Graph500 uses the same
model).  We generate directed samples and let ``CSRGraph.from_edges`` fold
them into an undirected graph (every edge mirrored, self-loops and
duplicates dropped), mirroring the paper's symmetrization of the Twitter
crawl.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.generators.streaming import rmat_edge_chunks
from repro.generators.weights import maybe_attach_weights
from repro.graph.csr import CSRGraph
from repro.utils.rng import SeedLike, as_rng

__all__ = ["rmat_graph"]


def rmat_graph(
    scale: int,
    edge_factor: int = 16,
    *,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    seed: SeedLike = None,
    connected_only: bool = False,
    weights: Optional[str] = None,
    weight_range: Tuple[float, float] = (1.0, 10.0),
) -> CSRGraph:
    """Generate an R-MAT graph with ``2**scale`` nodes.

    Parameters
    ----------
    scale:
        log2 of the number of nodes.
    edge_factor:
        Number of sampled (directed) edges per node.
    a, b, c:
        Quadrant probabilities (the fourth is ``1 - a - b - c``); defaults are
        the Graph500 parameters.
    connected_only:
        If True, return the largest connected component only (relabelled).
    """
    rng = as_rng(seed)
    num_nodes = 1 << scale
    # The whole sample as one chunk of the streaming sampler (which validates
    # the parameters): the same draws, in the same order, from ``rng``.
    sample, _ = next(
        rmat_edge_chunks(scale, edge_factor, a=a, b=b, c=c, seed=rng, chunk_edges=num_nodes * edge_factor)
    )
    graph = CSRGraph.from_edges(sample, num_nodes=num_nodes)
    if connected_only:
        from repro.graph.components import largest_component

        graph, _ = largest_component(graph)
    return maybe_attach_weights(graph, weights, weight_range=weight_range, rng=rng)
