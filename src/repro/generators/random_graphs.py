"""Classic random-graph models: Erdős–Rényi and random regular (expanders).

Every generator accepts ``weights=`` (``"uniform"`` / ``"degree"``, see
:func:`repro.generators.attach_weights`) to emit a weighted graph directly in
CSR arrays from the same seeded RNG.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.generators.weights import maybe_attach_weights
from repro.graph import kernels
from repro.graph.csr import CSRGraph
from repro.utils.rng import SeedLike, as_rng

__all__ = ["erdos_renyi_graph", "random_regular_graph", "gnm_graph"]


def erdos_renyi_graph(
    num_nodes: int,
    probability: float,
    *,
    seed: SeedLike = None,
    weights: Optional[str] = None,
    weight_range: Tuple[float, float] = (1.0, 10.0),
) -> CSRGraph:
    """G(n, p) random graph.

    Sampled by drawing the number of edges from a binomial distribution and
    then sampling that many node pairs, which is exact up to collisions (that
    are removed) and far faster than enumerating all ``n^2`` pairs.
    """
    if num_nodes < 0:
        raise ValueError("num_nodes must be non-negative")
    if not (0.0 <= probability <= 1.0):
        raise ValueError("probability must lie in [0, 1]")
    rng = as_rng(seed)
    graph = _erdos_renyi_topology(num_nodes, probability, rng)
    return maybe_attach_weights(graph, weights, weight_range=weight_range, rng=rng)


def _erdos_renyi_topology(
    num_nodes: int, probability: float, rng: np.random.Generator
) -> CSRGraph:
    possible = num_nodes * (num_nodes - 1) // 2
    if possible == 0 or probability == 0.0:
        return CSRGraph.empty(num_nodes)
    target = int(rng.binomial(possible, probability))
    if target == 0:
        return CSRGraph.empty(num_nodes)
    if probability >= 0.25 or possible <= 4096:
        # Dense regime: enumerate all pairs and sample exactly `target` of them.
        iu, iv = np.triu_indices(num_nodes, k=1)
        chosen = rng.choice(possible, size=target, replace=False)
        pairs = np.stack([iu[chosen], iv[chosen]], axis=1)
        return CSRGraph.from_edges(pairs, num_nodes=num_nodes)
    # Sparse regime: oversample pairs to compensate for duplicates / self loops,
    # then trim to the target count.  The distinct pairs come sorted, as
    # ``lo << 32 | hi`` keys order them.
    oversample = int(target * 1.2) + 16
    u = rng.integers(0, num_nodes, size=oversample)
    v = rng.integers(0, num_nodes, size=oversample)
    keys = (np.minimum(u, v) << np.int64(32)) | np.maximum(u, v)
    keys, _ = kernels.min_per_key(keys[u != v], None)
    if keys.size > target:
        keys = keys[rng.choice(keys.size, size=target, replace=False)]
    pairs = np.stack([keys >> np.int64(32), keys & np.int64(0xFFFFFFFF)], axis=1)
    return CSRGraph.from_edges(pairs, num_nodes=num_nodes)


def gnm_graph(
    num_nodes: int,
    num_edges: int,
    *,
    seed: SeedLike = None,
    weights: Optional[str] = None,
    weight_range: Tuple[float, float] = (1.0, 10.0),
) -> CSRGraph:
    """G(n, m): exactly ``num_edges`` distinct edges chosen uniformly."""
    if num_nodes < 0 or num_edges < 0:
        raise ValueError("num_nodes and num_edges must be non-negative")
    possible = num_nodes * (num_nodes - 1) // 2
    if num_edges > possible:
        raise ValueError(f"num_edges={num_edges} exceeds the {possible} possible edges")
    rng = as_rng(seed)
    chosen: set = set()
    edges = np.zeros((num_edges, 2), dtype=np.int64)
    count = 0
    while count < num_edges:
        batch = max(64, (num_edges - count) * 2)
        u = rng.integers(0, num_nodes, size=batch)
        v = rng.integers(0, num_nodes, size=batch)
        for a, b in zip(u, v):
            if a == b:
                continue
            key = (int(min(a, b)), int(max(a, b)))
            if key in chosen:
                continue
            chosen.add(key)
            edges[count] = key
            count += 1
            if count == num_edges:
                break
    graph = CSRGraph.from_edges(edges, num_nodes=num_nodes)
    return maybe_attach_weights(graph, weights, weight_range=weight_range, rng=rng)


def random_regular_graph(
    num_nodes: int,
    degree: int,
    *,
    seed: SeedLike = None,
    max_retries: int = 50,
    weights: Optional[str] = None,
    weight_range: Tuple[float, float] = (1.0, 10.0),
) -> CSRGraph:
    """Random ``degree``-regular graph from the configuration model.

    Each draw is a random perfect matching of half-edges; the first draw with
    no self-loops or parallel edges is returned.  A draw is simple with
    probability about ``exp(-(degree**2 - 1) / 4)``, only about 2.4% at
    degree 4, so ``max_retries`` draws often all fail.  The last draw is then
    returned simplified (self-loops and parallel edges dropped), and that
    graph is *not* regular: some nodes have fewer than ``degree``
    neighbours.  Constant degree random regular graphs are expanders with
    high probability, which is exactly the structure used by the paper's
    expander-plus-path example.
    """
    if num_nodes <= 0:
        raise ValueError("num_nodes must be positive")
    if degree < 0 or degree >= num_nodes:
        raise ValueError("degree must satisfy 0 <= degree < num_nodes")
    if (num_nodes * degree) % 2 != 0:
        raise ValueError("num_nodes * degree must be even")
    if degree == 0:
        graph = CSRGraph.empty(num_nodes)
        return maybe_attach_weights(graph, weights, weight_range=weight_range, rng=seed)
    rng = as_rng(seed)
    stubs = np.repeat(np.arange(num_nodes, dtype=np.int64), degree)
    graph = None
    for _ in range(max_retries):
        permuted = rng.permutation(stubs)
        pairs = permuted.reshape(-1, 2)
        low = np.minimum(pairs[:, 0], pairs[:, 1])
        high = np.maximum(pairs[:, 0], pairs[:, 1])
        # Parallel edges share a packed key, so one sort puts them side by side.
        keys = np.sort(low * num_nodes + high)
        if not np.any(low == high) and not np.any(keys[1:] == keys[:-1]):
            graph = CSRGraph.from_edges(pairs, num_nodes=num_nodes)
            break
    if graph is None:
        # Fall back to the simplified multigraph (near-regular, still an
        # expander in practice); callers that need exact regularity can retry
        # with a different seed.
        graph = CSRGraph.from_edges(pairs, num_nodes=num_nodes)
    return maybe_attach_weights(graph, weights, weight_range=weight_range, rng=rng)
