"""BFS-based diameter estimation — baseline of Table 4 / Figure 1.

A breadth-first search from any node ``s`` yields ``ecc(s) ≤ ∆ ≤ 2·ecc(s)``,
so BFS is a 2-approximation for the diameter.  The practical variant (and the
one we charge here) is the *double sweep*: BFS from a seed node, then BFS again
from the farthest node found; the second eccentricity is a lower bound that is
usually very close to ∆, and twice the first eccentricity is a certified upper
bound.

In a round-synchronous distributed setting each BFS level is one round and the
aggregate communication is ``O(m)`` (every edge is traversed once per BFS), so
BFS needs ``Θ(∆)`` rounds — the quantity that makes it slow on long-diameter
graphs and that our MR accounting captures.

Each sweep of :func:`mr_bfs_diameter` runs
:func:`repro.graph.traversal.bfs_distances` and charges one MR round per
level, the fruitless expansion of the deepest level included.  A level's
round ships one bookkeeping pair per node at that level plus one claim per
arc leaving it — the push-equivalent volume, whichever direction the kernel
ran — exactly as :func:`repro.core.mr_algorithms.charge_clustering_rounds`
charges CLUSTER's growing steps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.traversal import bfs_distances
from repro.mapreduce.cost import DEFAULT_COST_MODEL, CostModel
from repro.mapreduce.engine import MREngine
from repro.mapreduce.metrics import MRMetrics
from repro.utils.rng import SeedLike, as_rng

__all__ = ["BFSDiameterResult", "mr_bfs_diameter"]


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
        The charged MR rounds and their simulated time.
    """

    estimate: int
    lower_bound: int
    upper_bound: int
    num_bfs: int
    num_levels: int
    metrics: MRMetrics
    simulated_time: float


def _charged_bfs(engine: MREngine, graph: CSRGraph, source: int) -> np.ndarray:
    """One BFS sweep, charged to ``engine`` as one MR round per level.

    Level ``l``'s round carries ``|F_l| + arcs(F_l)`` pairs for the nodes
    ``F_l`` at distance ``l``; the deepest level's round finds nothing new.
    Returns the distances (``-1`` for unreachable nodes).
    """
    distances = bfs_distances(graph, source)
    reached = distances >= 0
    pairs = np.bincount(distances[reached], weights=graph.degrees[reached] + 1)
    # Float sums of integers are exact below 2**53 pairs per round.
    engine.charge_rounds(pairs.astype(np.int64))
    return distances


def mr_bfs_diameter(
    graph: CSRGraph,
    *,
    seed: SeedLike = None,
    cost_model: CostModel = DEFAULT_COST_MODEL,
) -> BFSDiameterResult:
    """Double-sweep BFS with every level charged as one MR round.

    The first sweep starts at a node drawn from ``seed``.  Each BFS level is
    one round whose communication volume is the number of adjacency entries
    scanned at that level plus the frontier bookkeeping (so the aggregate
    over a full BFS is ``2m`` arc messages plus ``n``), charged on an
    unbounded :class:`~repro.mapreduce.model.MRModel`.

    Raises ``ValueError`` for an empty graph, and for a disconnected one
    (the first sweep reaches fewer than ``n`` nodes), whose diameter is
    infinite.
    """
    n = graph.num_nodes
    if n == 0:
        raise ValueError("graph must be non-empty")
    start = int(as_rng(seed).integers(0, n))
    engine = MREngine()
    first = _charged_bfs(engine, graph, start)
    if np.any(first < 0):
        raise ValueError("graph is disconnected; its diameter is infinite")
    farthest = int(np.argmax(first))
    second = _charged_bfs(engine, graph, farthest)
    ecc_first = int(first[farthest])
    ecc_second = int(second.max())

    return BFSDiameterResult(
        estimate=ecc_second,
        lower_bound=ecc_second,
        upper_bound=2 * ecc_first,
        num_bfs=2,
        num_levels=ecc_first + ecc_second,
        metrics=engine.metrics,
        simulated_time=cost_model.simulated_time(engine.metrics),
    )
