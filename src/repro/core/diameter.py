"""Decomposition-based diameter approximation (Section 4 of the paper).

The estimator:

1. decompose the graph with CLUSTER(τ) (the "simplified version" used in the
   paper's experiments) or CLUSTER2(τ) (the variant with the full theoretical
   guarantees),
2. build the quotient graph of the decomposition,
3. compute the quotient diameter, and
4. report

   * ``∆_C`` — the unweighted quotient diameter, a **lower bound** on ∆,
   * ``∆'  = 2·R·(∆_C + 1) + ∆_C`` — the unweighted **upper bound**,
   * ``∆'' = 2·R + ∆'_C`` — the tighter upper bound from the weighted
     quotient graph (this is the number reported in Tables 3 and 4).

Corollary 1 guarantees ``∆_C ≤ ∆ ≤ ∆' = O(∆ log³ n)`` with high probability
when CLUSTER2 is used; the experiments show the weighted bound is below
``2∆`` in practice.

On a weighted graph (the paper's §7 outlook) the same chain bounds the
weighted diameter: a weighted double sweep gives the lower bound and
``2·R_w + ∆'_C`` — the weighted radius plus the diameter of the quotient
weighted with center-to-center path lengths — the upper bound.

:func:`estimate_diameter` is a thin wrapper over the
:class:`~repro.core.pipeline.DecompositionPipeline` (which caches the
decomposition and quotient stages for reuse) that decomposes with CLUSTER;
use the pipeline directly for CLUSTER2 or when you need the intermediates.
Every estimate carries both upper bounds, ``∆'`` and ``∆''``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

from repro.core.clustering import Clustering
from repro.graph.csr import CSRGraph
from repro.utils.rng import SeedLike

__all__ = ["DiameterEstimate", "estimate_diameter", "diameter_upper_bounds"]


@dataclass(frozen=True)
class DiameterEstimate:
    """Result of the decomposition-based diameter estimation.

    Attributes
    ----------
    lower_bound:
        ``∆_C`` — unweighted quotient diameter (a true lower bound on ∆); on
        a weighted graph, the weighted double-sweep bound.
    upper_bound:
        The estimate reported by the algorithm: the weighted bound ``∆''``.
    upper_bound_unweighted:
        ``∆' = 2·R·(∆_C + 1) + ∆_C``, or ``None`` on a weighted graph.
    upper_bound_weighted:
        ``∆'' = 2·R + ∆'_C``, set on every graph (on a weighted graph
        ``∆'_C`` is the diameter of the quotient weighted with
        center-to-center path lengths).
    radius:
        Maximum cluster radius ``R`` of the decomposition used (the weighted
        radius on a weighted graph).
    num_clusters / num_quotient_edges:
        Size of the quotient graph (the ``n_C`` / ``m_C`` columns of Table 3).
    clustering:
        The decomposition itself (for further inspection).
    """

    lower_bound: Union[int, float]
    upper_bound: float
    upper_bound_unweighted: Optional[int]
    upper_bound_weighted: float
    radius: Union[int, float]
    num_clusters: int
    num_quotient_edges: int
    clustering: Clustering

    def contains(self, true_diameter: float) -> bool:
        """True if ``lower_bound <= true_diameter <= upper_bound`` (up to float rounding)."""
        return self.lower_bound <= true_diameter + 1e-9 and true_diameter <= self.upper_bound + 1e-9

    def approximation_ratio(self, true_diameter: float) -> float:
        """``upper_bound / true_diameter`` (∞ for a zero diameter)."""
        if true_diameter == 0:
            return math.inf
        return float(self.upper_bound) / float(true_diameter)


def diameter_upper_bounds(lower_bound: float, radius: int, weighted_quotient_diameter: float) -> tuple:
    """Compute (∆', ∆'') from the quotient diameters and the cluster radius."""
    unweighted_upper = int(2 * radius * (int(lower_bound) + 1) + int(lower_bound))
    return unweighted_upper, float(2 * radius + weighted_quotient_diameter)


def estimate_diameter(
    graph: CSRGraph,
    *,
    tau: Optional[int] = None,
    target_clusters: Optional[int] = None,
    seed: SeedLike = None,
    clustering: Optional[Clustering] = None,
) -> DiameterEstimate:
    """Estimate the diameter of a connected graph via graph decomposition.

    Decomposes with CLUSTER, the simplified pipeline of the paper's
    experiments (CLUSTER2 runs through
    ``DecompositionPipeline(graph, PipelineConfig(method="cluster2"))``), and
    always reports the tighter ``∆''`` bound of the weighted quotient.

    Parameters
    ----------
    graph:
        Connected undirected graph.  On a weighted graph the estimate bounds
        the weighted diameter (see the module docstring).
    tau:
        Granularity parameter.  Exactly one of ``tau`` / ``target_clusters`` /
        ``clustering`` may be provided; with none,
        :func:`~repro.core.cluster.default_tau` is used.
    target_clusters:
        Ask for a decomposition with approximately this many clusters instead
        of fixing τ (matches the experimental protocol of §6.2).
    clustering:
        Reuse an existing decomposition instead of computing one.

    Returns
    -------
    DiameterEstimate
    """
    from repro.core.pipeline import DecompositionPipeline, PipelineConfig

    provided = sum(x is not None for x in (tau, target_clusters, clustering))
    if provided > 1:
        raise ValueError("provide at most one of tau, target_clusters, clustering")
    config = PipelineConfig(tau=tau, target_clusters=target_clusters, seed=seed)
    return DecompositionPipeline(graph, config, clustering=clustering).diameter()
