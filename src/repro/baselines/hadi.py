"""HADI / ANF — neighborhood-function-based diameter estimation (baseline).

ANF (Palmer, Gibbons, Faloutsos, KDD 2002) approximates the neighborhood
function ``N(t)`` — the number of node pairs at distance at most ``t`` — by
keeping a Flajolet–Martin (FM) sketch per node and, for ``∆`` iterations,
replacing every node's sketch with the bitwise OR of its own and its
neighbours' sketches.  HADI (Kang et al., TKDD 2011) is the MapReduce
implementation of ANF: every iteration is one round that shuffles ``Θ(m)``
sketches, which is why HADI is slow on long-diameter graphs (Θ(∆) rounds
*and* Θ(m) communication per round) — the behaviour the paper's Table 4
demonstrates and that our MR accounting reproduces.

The diameter estimate is the first iteration ``t`` at which the estimated
neighborhood function stops increasing (within a small tolerance), i.e. the
(estimated) effective diameter at 100%; like the original HADI it tends to
slightly *underestimate* the true diameter.

Every sketch-propagation iteration is one MR round.  The CSR rows already
group its pairs by receiving node (each node's own sketch plus one sketch per
arc of its row), so the round is one ``np.bitwise_or.reduceat`` over the
gathered neighbour sketches, ORed into each node's own sketch, and it is
charged ``n + 2m`` shuffled pairs through
:meth:`~repro.mapreduce.engine.MREngine.charge_rounds` — the way
:func:`repro.core.mr_algorithms.charge_clustering_rounds` charges CLUSTER.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.graph.csr import CSRGraph
from repro.mapreduce.cost import DEFAULT_COST_MODEL, CostModel
from repro.mapreduce.engine import MREngine
from repro.mapreduce.metrics import MRMetrics
from repro.utils.rng import SeedLike, as_rng

__all__ = ["HADIResult", "hadi_diameter", "fm_estimate", "make_fm_sketches"]

_FM_CORRECTION = 0.77351  # Flajolet–Martin magic constant


@dataclass(frozen=True)
class HADIResult:
    """Result of the HADI/ANF diameter estimation.

    Attributes
    ----------
    estimate:
        Estimated diameter (iteration at which the neighborhood function
        saturates).
    neighborhood_function:
        ``neighborhood_function[t]`` ≈ number of pairs within distance t
        (index 0 is the number of nodes).
    iterations:
        Number of sketch-propagation iterations executed (MR rounds).
    metrics / simulated_time:
        MR accounting (always present; HADI is inherently an MR algorithm).
    """

    estimate: int
    neighborhood_function: List[float]
    iterations: int
    metrics: MRMetrics
    simulated_time: float


def make_fm_sketches(
    num_items: int, *, num_registers: int = 32, rng: Optional[np.random.Generator] = None
) -> np.ndarray:
    """Initial FM sketches: one geometric bit per (item, register).

    Returns a ``uint64`` array of shape ``(num_items, num_registers)`` where
    each entry has exactly one bit set; bit ``b`` is chosen with probability
    ``2^{-(b+1)}`` (clamped to the 64-bit register width).
    """
    if rng is None:
        rng = np.random.default_rng()
    if num_items < 0 or num_registers < 1:
        raise ValueError("num_items must be >= 0 and num_registers >= 1")
    geometric = rng.geometric(0.5, size=(num_items, num_registers)) - 1
    geometric = np.minimum(geometric, 63).astype(np.uint64)
    return (np.uint64(1) << geometric).astype(np.uint64)


def fm_estimate(sketches: np.ndarray) -> np.ndarray:
    """Estimate the cardinality represented by each row of OR-ed FM sketches.

    The estimator is ``2^{mean lowest-zero-bit} / 0.77351`` (Flajolet–Martin),
    averaged over the registers of the row.
    """
    if sketches.ndim != 2:
        raise ValueError("sketches must be a 2-d array (items x registers)")
    # The lowest zero bit of x is isolated by ~x & (x + 1); it is a power of
    # two, so its exponent (the number of trailing ones of x) is an exact
    # float64 log2.  All-ones registers wrap to 0 and are clamped to 64.
    lowest_zero = (~sketches) & (sketches + np.uint64(1))
    trailing = np.full(sketches.shape, 64.0)
    nonzero = lowest_zero != 0
    trailing[nonzero] = np.log2(lowest_zero[nonzero].astype(np.float64))
    mean_r = trailing.mean(axis=1)
    return (2.0 ** mean_r) / _FM_CORRECTION


def hadi_diameter(
    graph: CSRGraph,
    *,
    num_registers: int = 32,
    max_iterations: Optional[int] = None,
    seed: SeedLike = None,
    cost_model: CostModel = DEFAULT_COST_MODEL,
) -> HADIResult:
    """Estimate the diameter of ``graph`` with HADI/ANF.

    The process counts as saturated once the neighborhood function grows by
    at most 0.1% in an iteration.  Rounds are charged on an unbounded
    :class:`~repro.mapreduce.model.MRModel`.

    Parameters
    ----------
    num_registers:
        Number of FM registers per node (more registers ⇒ lower variance,
        proportionally more communication).
    max_iterations:
        Safety cap on iterations (defaults to ``n``).
    """
    n = graph.num_nodes
    if n == 0:
        raise ValueError("graph must be non-empty")
    rng = as_rng(seed)
    engine = MREngine()
    limit = max_iterations if max_iterations is not None else n

    sketches = make_fm_sketches(n, num_registers=num_registers, rng=rng)
    neighborhood = [float(n)]  # N(0) = n (every node reaches itself)
    estimate = 0
    indices = graph.indices
    # Each row's arcs are contiguous, so the non-empty rows' offsets are the
    # reduceat segment starts; zero-degree nodes keep their own sketch.
    rows = np.flatnonzero(graph.degrees)
    starts = graph.indptr[rows]

    for t in range(1, limit + 1):
        sketches[rows] |= np.bitwise_or.reduceat(sketches[indices], starts, axis=0)
        total_pairs = float(fm_estimate(sketches).sum())
        neighborhood.append(total_pairs)
        previous = neighborhood[-2]
        if previous > 0 and (total_pairs - previous) / previous <= 1e-3:
            estimate = t - 1
            break
        estimate = t
    iterations = len(neighborhood) - 1
    # One round per iteration: every node's own sketch plus one per arc.
    engine.charge_rounds(np.full(iterations, n + indices.size))
    return HADIResult(
        estimate=estimate,
        neighborhood_function=neighborhood,
        iterations=iterations,
        metrics=engine.metrics,
        simulated_time=cost_model.simulated_time(engine.metrics),
    )
