"""MR-model drivers for the decomposition-based algorithms (Section 5).

The in-memory implementations in :mod:`repro.core.cluster` /
:mod:`repro.core.diameter` record a complete execution trace (one entry per
parallel growing step, one per outer iteration).  The drivers in this module
replay that trace against the MR(M_G, M_L) accounting of
:mod:`repro.mapreduce`, charging

* one round per cluster-growing step (Lemma 3: a growing step is a constant
  number of sort / prefix-sum operations, i.e. ``O(1)`` rounds when
  ``M_L = Ω(n^ε)``), with a communication volume equal to the adjacency
  entries scanned by that step,
* one round per outer iteration for the center-selection / coverage-count
  bookkeeping, with communication proportional to the uncovered set,
* ``O(log_{M_L} m)`` rounds to build the quotient graph (a sort of the edge
  multiset by cluster pair), and
* a single round with a single reducer to compute the quotient diameter
  (Theorem 4's small-quotient regime), the one round checked against the
  engine's :class:`~repro.mapreduce.model.MRModel`: a quotient larger than
  the local memory ``M_L`` raises
  :class:`~repro.mapreduce.model.MRConstraintViolation` under an enforcing
  model and is recorded in ``model.violations`` otherwise.

This is what turns the paper's Table 4 / Figure 1 "time" columns into
measurable quantities on a single machine: rounds, shuffled pairs, and the
simulated time of :class:`repro.mapreduce.cost.CostModel`.  The replay only
charges rounds — it executes none;
:meth:`repro.core.pipeline.DecompositionPipeline.mr_report` is the one place
that runs it, and :func:`mr_estimate_diameter` is its functional front end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.clustering import Clustering
from repro.core.diameter import DiameterEstimate
from repro.graph.csr import CSRGraph
from repro.mapreduce.cost import DEFAULT_COST_MODEL, CostModel
from repro.mapreduce.engine import MREngine
from repro.mapreduce.metrics import MRMetrics
from repro.mapreduce.model import MRModel, rounds_for_primitive
from repro.utils.rng import SeedLike

__all__ = [
    "MRExecutionReport",
    "charge_clustering_rounds",
    "charge_quotient_rounds",
    "mr_estimate_diameter",
]


@dataclass(frozen=True)
class MRExecutionReport:
    """Outcome of an algorithm executed under MR accounting.

    Attributes
    ----------
    estimate:
        The diameter estimate (weighted bounds for a weighted decomposition;
        ``None`` for pure decomposition runs).
    clustering:
        The decomposition produced (unweighted or weighted).
    metrics:
        Round / communication counters.
    simulated_time:
        Seconds under the configured :class:`CostModel`.
    """

    estimate: Optional[DiameterEstimate]
    clustering: Clustering
    metrics: MRMetrics
    simulated_time: float

    @property
    def rounds(self) -> int:
        return self.metrics.rounds

    @property
    def shuffled_pairs(self) -> int:
        return self.metrics.shuffled_pairs


def charge_clustering_rounds(engine: MREngine, clustering: Clustering) -> None:
    """Replay a clustering execution trace as MR rounds on ``engine``.

    Works on any decomposition carrying the unified growth trace (``num_nodes``,
    ``iterations``, ``step_log``) produced by the shared
    :class:`~repro.core.growth_engine.GrowthEngine`, weighted or not.
    A weighted growing round is still a constant number of MR rounds: the
    min-weight tie-break replaces the arbitrary claim sort with a sort keyed
    by accumulated distance, which Lemma 3's sort/prefix-sum argument covers
    unchanged.

    The replay itself is array-native: the whole trace is charged through
    :meth:`~repro.mapreduce.engine.MREngine.charge_rounds` (one charged round
    per array entry, whole-array sum/max counter updates), so replaying a
    long weighted trace costs two array reductions, not thousands of
    metric-record calls.
    """
    ml = engine.model.local_memory
    primitive_rounds = rounds_for_primitive(
        max(1, 2 * clustering.num_nodes), ml
    )
    # Outer iterations: center selection + coverage counting (a prefix sum),
    # `primitive_rounds` charged rounds per iteration.
    uncovered = np.fromiter(
        (iteration.uncovered_before for iteration in clustering.iterations),
        dtype=np.int64,
        count=len(clustering.iterations),
    )
    engine.charge_rounds(np.repeat(uncovered, primitive_rounds))
    # Growing steps: one (constant number of) round(s) each; communication is
    # the adjacency volume actually scanned by the step.
    scanned = np.fromiter(
        (step.arcs_scanned + step.frontier_size for step in clustering.step_log),
        dtype=np.int64,
        count=len(clustering.step_log),
    )
    engine.charge_rounds(scanned)


def charge_quotient_rounds(engine: MREngine, graph: CSRGraph, *, num_quotient_edges: int) -> None:
    """Charge the rounds for building the quotient graph and computing its diameter.

    The quotient-diameter round is checked against ``engine.model``; on the
    default unbounded model the check never objects.
    """
    ml = engine.model.local_memory
    # Building the quotient graph: a sort of the 2m arcs by cluster pair.
    engine.charge_rounds(
        np.full(rounds_for_primitive(max(1, graph.num_directed_edges), ml), graph.num_directed_edges)
    )
    # Quotient diameter on a single reducer: the quotient graph (2 * m_C arcs)
    # must fit in local memory; this is the Theorem 4 requirement.
    quotient_arcs = 2 * num_quotient_edges
    engine.model.check_round(max_reducer_input=quotient_arcs, live_pairs=quotient_arcs)
    engine.charge_rounds([quotient_arcs])


def mr_estimate_diameter(
    graph: CSRGraph,
    *,
    tau: Optional[int] = None,
    target_clusters: Optional[int] = None,
    seed: SeedLike = None,
    model: Optional[MRModel] = None,
    cost_model: CostModel = DEFAULT_COST_MODEL,
) -> MRExecutionReport:
    """Full decomposition-based diameter estimation under MR accounting.

    This is the driver behind the CLUSTER columns of the Table 4 and Figure 1
    reproductions: the returned report carries both the diameter estimate and
    the rounds / communication / simulated-time metrics.  Implemented as the
    :class:`~repro.core.pipeline.DecompositionPipeline`'s MR accounting pass
    with CLUSTER (``DecompositionPipeline(graph, method="cluster2").mr_report()``
    accounts for CLUSTER2).  The quotient-diameter round is checked against
    ``model``; see :func:`charge_quotient_rounds`.
    """
    from repro.core.pipeline import DecompositionPipeline, PipelineConfig

    pipeline = DecompositionPipeline(
        graph, PipelineConfig(tau=tau, target_clusters=target_clusters, seed=seed)
    )
    return pipeline.mr_report(model=model, cost_model=cost_model)
