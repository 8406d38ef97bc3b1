"""BFS-based diameter estimation — baseline of Table 4 / Figure 1.

A breadth-first search from any node ``s`` yields ``ecc(s) ≤ ∆ ≤ 2·ecc(s)``,
so BFS is a 2-approximation for the diameter.  The practical variant (and the
one we meter here) is the *double sweep*: BFS from a seed node, then BFS again
from the farthest node found; the second eccentricity is a lower bound that is
usually very close to ∆, and twice the first eccentricity is a certified upper
bound.

In a round-synchronous distributed setting each BFS level is one round and the
aggregate communication is ``O(m)`` (every edge is traversed once per BFS), so
BFS needs ``Θ(∆)`` rounds — the quantity that makes it slow on long-diameter
graphs and that our MR accounting captures.

:func:`mr_bfs_diameter` *executes* every level as a structured MR round: the
map phase gathers one ``(target, source)`` claim per arc leaving the frontier
(plus the frontier's own bookkeeping pairs) directly into an
:class:`~repro.mapreduce.backends.ArrayPairs` batch, and the ``first``
segment reducer keeps one claimant per contested node — the same
arbitrary-but-deterministic tie-break as
:func:`repro.graph.kernels.claim_first`.  With ``backend="serial"`` the round
runs through the flattened per-pair tuple path (the bit-compatibility
reference); ``backend="vectorized"`` evaluates it with zero per-key Python
calls.  Estimates and metrics are backend-independent.

The in-memory sweeps of :func:`bfs_diameter` run through the
direction-optimizing :func:`repro.graph.kernels.frontier_expansion` (push or
pull per level, bit-identical either way); the MR path deliberately stays a
push-only per-level plan, since its per-round accounting *is* the metered
quantity — every arc leaving the frontier is charged whatever the local
execution strategy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.graph import kernels
from repro.graph.csr import CSRGraph
from repro.graph.traversal import multi_source_bfs
from repro.mapreduce.backends import ArrayPairs
from repro.mapreduce.cost import DEFAULT_COST_MODEL, CostModel
from repro.mapreduce.engine import BackendSpec, MREngine
from repro.mapreduce.metrics import MRMetrics
from repro.mapreduce.model import MRModel
from repro.utils.rng import SeedLike, as_rng

__all__ = ["BFSDiameterResult", "bfs_diameter", "mr_bfs_diameter"]


@dataclass(frozen=True)
class BFSDiameterResult:
    """Diameter estimate produced by the double-sweep BFS baseline.

    Attributes
    ----------
    estimate:
        The reported estimate (the double-sweep eccentricity — a lower bound
        that is typically within a few percent of ∆ on real graphs; this is
        the number a practitioner reports, mirroring Table 4).
    lower_bound / upper_bound:
        Certified bounds: ``estimate`` and ``2 * ecc(first sweep source)``.
    num_bfs:
        Number of BFS traversals performed (2 for a double sweep).
    num_levels:
        Total number of BFS levels across the traversals — the MR round count.
    metrics / simulated_time:
        Present only when produced by :func:`mr_bfs_diameter`.
    """

    estimate: int
    lower_bound: int
    upper_bound: int
    num_bfs: int
    num_levels: int
    metrics: Optional[MRMetrics] = None
    simulated_time: Optional[float] = None


def bfs_diameter(
    graph: CSRGraph, *, seed: SeedLike = None, start: Optional[int] = None
) -> BFSDiameterResult:
    """Double-sweep BFS diameter estimation (in-memory, no MR accounting)."""
    n = graph.num_nodes
    if n == 0:
        raise ValueError("graph must be non-empty")
    rng = as_rng(seed)
    if start is None:
        start = int(rng.integers(0, n))
    first = multi_source_bfs(graph, [start])
    reachable = np.flatnonzero(first.distances >= 0)
    ecc_first = int(first.distances[reachable].max())
    farthest = int(reachable[np.argmax(first.distances[reachable])])
    second = multi_source_bfs(graph, [farthest])
    reachable2 = np.flatnonzero(second.distances >= 0)
    ecc_second = int(second.distances[reachable2].max())
    return BFSDiameterResult(
        estimate=ecc_second,
        lower_bound=ecc_second,
        upper_bound=2 * ecc_first,
        num_bfs=2,
        num_levels=first.num_levels + second.num_levels,
    )


def _structured_bfs(
    engine: MREngine,
    indptr: np.ndarray,
    indices: np.ndarray,
    num_nodes: int,
    source: int,
) -> Tuple[np.ndarray, int]:
    """One BFS, every level executed as a structured MR round.

    Each round ships one claim ``(target, source)`` per arc leaving the
    frontier plus one bookkeeping pair per frontier node — the communication
    volume of a round-synchronous distributed BFS, including the final
    fruitless expansion attempt.  The ``first`` reducer keeps the first
    claimant per node (claims arrive in adjacency-gather order, matching
    :func:`repro.graph.kernels.claim_first`); nodes already visited discard
    their round output driver-side, exactly like the kernel's unvisited
    filter.  Returns ``(distances, num_productive_levels)``.
    """
    distances = np.full(num_nodes, -1, dtype=np.int64)
    distances[source] = 0
    frontier = np.asarray([source], dtype=np.int64)
    level = 0
    while frontier.size:
        src, dst, _ = kernels.gather_neighbors(indptr, indices, frontier)
        batch = ArrayPairs(np.concatenate((frontier, dst)), np.concatenate((frontier, src)))
        claimed = engine.run_structured_round(batch, "first", label="bfs-level")
        fresh = claimed.keys[distances[claimed.keys] < 0]
        if fresh.size == 0:
            break
        level += 1
        distances[fresh] = level
        frontier = np.sort(fresh)
    return distances, level


def mr_bfs_diameter(
    graph: CSRGraph,
    *,
    seed: SeedLike = None,
    start: Optional[int] = None,
    model: Optional[MRModel] = None,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    backend: BackendSpec = "vectorized",
) -> BFSDiameterResult:
    """Double-sweep BFS with every level executed as a structured MR round.

    Each BFS level is one round whose communication volume is the number of
    adjacency entries scanned at that level plus the frontier bookkeeping (so
    the aggregate over a full BFS is ``2m`` arc messages plus ``O(n)``).
    ``backend`` selects the engine's execution backend: the
    ``vectorized`` default runs the segment fast path, ``serial`` the
    per-pair tuple path (the bit-compatibility reference); estimates and
    metrics are identical on every backend.
    """
    n = graph.num_nodes
    if n == 0:
        raise ValueError("graph must be non-empty")
    rng = as_rng(seed)
    if start is None:
        start = int(rng.integers(0, n))
    engine = MREngine(model=model if model is not None else MRModel(enforce=False), backend=backend)
    first_dist, first_levels = _structured_bfs(engine, graph.indptr, graph.indices, n, int(start))
    reachable = np.flatnonzero(first_dist >= 0)
    ecc_first = int(first_dist[reachable].max())
    farthest = int(reachable[np.argmax(first_dist[reachable])])
    second_dist, second_levels = _structured_bfs(engine, graph.indptr, graph.indices, n, farthest)
    reachable2 = np.flatnonzero(second_dist >= 0)
    ecc_second = int(second_dist[reachable2].max())

    return BFSDiameterResult(
        estimate=ecc_second,
        lower_bound=ecc_second,
        upper_bound=2 * ecc_first,
        num_bfs=2,
        num_levels=first_levels + second_levels,
        metrics=engine.metrics,
        simulated_time=cost_model.simulated_time(engine.metrics),
    )
