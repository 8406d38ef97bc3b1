"""End-to-end decomposition pipeline: decompose → quotient → diameter bounds.

Every consumer of the decomposition machinery — the diameter-approximation
experiments (Tables 3/4, Figure 1), the MR-accounting drivers, and the
serving plane (:meth:`repro.serving.GraphService.build` decomposes through
this pipeline and hands the clustering to
:func:`~repro.core.oracle.build_distance_oracle`) — runs the same chain:

1. **decompose** the graph with a growth-engine algorithm (CLUSTER, CLUSTER2,
   MPX, or the single-batch baseline, selected by
   :attr:`PipelineConfig.method`),
2. build the **quotient** graph of the decomposition once (the weighted
   flavour; the unweighted one is its CSR without weights),
3. compute the **diameter bounds** ``∆_C ≤ ∆ ≤ ∆''`` of Section 4 — or, on a
   weighted graph, the §7 weighted bounds — and
4. optionally account for the run in the MR(M_G, M_L) model
   (:meth:`DecompositionPipeline.mr_report`), checking the quotient-diameter
   round against the given :class:`~repro.mapreduce.model.MRModel`.

:class:`DecompositionPipeline` implements that chain once, with every
intermediate result cached on the pipeline object so repeated or partial
queries (e.g. the same decomposition under several quotient flavours, or a
diameter estimate followed by MR-round accounting) never recompute a stage.
Per-stage wall-clock timings are recorded in :attr:`DecompositionPipeline.timings`;
with ``REPRO_KERNEL_STATS=1`` each stage additionally records its frontier-kernel
counter deltas (levels by direction, edges scanned, direction switches — see
:mod:`repro.graph.kernels`) in :attr:`DecompositionPipeline.kernel_stats`, and
:meth:`PipelineResult.summary` flattens them as ``ks_<stage>_<counter>`` columns.

:func:`repro.core.diameter.estimate_diameter` and
:func:`repro.core.mr_algorithms.mr_estimate_diameter` are thin wrappers over
this pipeline, so the experiment harness and the CLI drive one API.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.core.clustering import Clustering
from repro.core.quotient import build_quotient_graph, quotient_diameter
from repro.graph import kernels
from repro.graph.csr import CSRGraph
from repro.mapreduce.cost import DEFAULT_COST_MODEL, CostModel
from repro.mapreduce.engine import MREngine
from repro.mapreduce.model import MRModel
from repro.utils.rng import SeedLike, as_rng

__all__ = ["PipelineConfig", "PipelineResult", "DecompositionPipeline"]

#: Decomposition algorithms selectable by :attr:`PipelineConfig.method`.
PIPELINE_METHODS = ("cluster", "cluster2", "mpx", "single-batch", "weighted")


@dataclass(frozen=True)
class PipelineConfig:
    """Configuration of a :class:`DecompositionPipeline`.

    Attributes
    ----------
    method:
        Decomposition algorithm: ``"cluster"`` (Algorithm 1, the simplified
        version used in the paper's experiments), ``"cluster2"`` (Algorithm 2,
        full guarantees), ``"mpx"`` (the random-shift baseline),
        ``"single-batch"`` (all centers up front — the ablation strawman), or
        ``"weighted"`` (CLUSTER on a weighted graph, i.e. the §7 hop-bounded
        weighted decomposition; an unweighted input is lifted to unit edge
        weights).  On a weighted graph every method grows with the min-weight
        tie-break and the diameter stage reports weighted bounds.
    tau:
        Granularity parameter for cluster/cluster2 (default:
        :func:`repro.core.diameter.default_tau`).
    target_clusters:
        Tune the granularity (τ or β) so the decomposition lands near this
        cluster count instead of fixing it a priori (the §6 protocol).  At
        most one of ``tau`` / ``target_clusters`` may be set; ``"mpx"``
        without a target runs at β = 0.1.
    seed:
        Randomness for the decomposition stage.

    The diameter stage always reports the tighter ``∆''`` upper bound of the
    weighted quotient (the number used in Tables 3 and 4), and MR accounting
    always checks the quotient-diameter round against the engine's
    :class:`~repro.mapreduce.model.MRModel` (Theorem 4: the quotient must fit
    in one reducer's local memory).
    """

    method: str = "cluster"
    tau: Optional[int] = None
    target_clusters: Optional[int] = None
    seed: SeedLike = None

    def __post_init__(self) -> None:
        if self.method not in PIPELINE_METHODS:
            raise ValueError(
                f"unknown pipeline method {self.method!r}; choose from {PIPELINE_METHODS}"
            )
        if self.tau is not None and self.target_clusters is not None:
            raise ValueError("provide at most one of tau, target_clusters")


@dataclass(frozen=True)
class PipelineResult:
    """Materialized output of a full pipeline run.

    ``estimate`` is the Section 4 diameter estimate; ``timings`` maps stage
    names to seconds spent computing them.  The entries are disjoint — each
    covers only its own work, and cache hits cost nothing.  Both quotient
    flavours share one build, timed under the flavour asked for first: in
    :meth:`DecompositionPipeline.diameter` of an unweighted decomposition
    ``quotient[unweighted]`` covers the build and the hop diameter, and
    ``quotient[weighted]`` only the weighted diameter.
    """

    method: str
    clustering: Clustering
    estimate: "DiameterEstimate"  # noqa: F821 - forward ref, resolved lazily
    timings: Dict[str, float] = field(default_factory=dict)
    #: per-stage kernel counter deltas (``REPRO_KERNEL_STATS=1`` runs only)
    kernel_stats: Optional[Dict[str, Dict[str, int]]] = None

    def summary(self) -> dict:
        """Compact row used by the experiment tables.

        When the run collected kernel counters (``REPRO_KERNEL_STATS=1``)
        each stage's deltas are flattened in as ``ks_<stage>_<counter>``
        columns; otherwise the row is unchanged.
        """
        row = {
            "method": self.method,
            "num_clusters": self.clustering.num_clusters,
            "radius": self.estimate.radius,
            "lower_bound": self.estimate.lower_bound,
            "upper_bound": self.estimate.upper_bound,
            "quotient_edges": self.estimate.num_quotient_edges,
            **{f"t_{stage}": round(secs, 4) for stage, secs in sorted(self.timings.items())},
        }
        if self.kernel_stats:
            for stage, counters in sorted(self.kernel_stats.items()):
                for counter, value in sorted(counters.items()):
                    row[f"ks_{stage}_{counter}"] = value
        return row


class _StageScope:
    """Times one pipeline stage; with ``REPRO_KERNEL_STATS=1`` it also diffs
    the kernel counters so each stage's frontier activity (levels by
    direction, edges scanned, switches, msbfs sweeps) lands next to its
    wall-clock in :attr:`DecompositionPipeline.kernel_stats`."""

    __slots__ = ("pipeline", "stage", "start", "before")

    def __init__(self, pipeline: "DecompositionPipeline", stage: str) -> None:
        self.pipeline = pipeline
        self.stage = stage

    def __enter__(self) -> "_StageScope":
        self.start = time.perf_counter()
        self.before = (
            kernels.kernel_stats_snapshot() if kernels.kernel_stats_enabled() else None
        )
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        elapsed = time.perf_counter() - self.start
        timings = self.pipeline.timings
        timings[self.stage] = timings.get(self.stage, 0.0) + elapsed
        if self.before is not None and exc_type is None:
            after = kernels.kernel_stats_snapshot()
            aggregate = self.pipeline.kernel_stats.setdefault(self.stage, {})
            for counter, value in after.items():
                aggregate[counter] = aggregate.get(counter, 0) + value - self.before[counter]
        return False


class DecompositionPipeline:
    """Configurable decompose → quotient → diameter chain with stage caching.

    Usage::

        pipe = DecompositionPipeline(graph, PipelineConfig(method="cluster", tau=4, seed=0))
        clustering = pipe.decompose()        # stage 1 (cached)
        estimate = pipe.diameter()           # stages 2+3 (cached)
        report = pipe.mr_report()            # MR accounting over cached stages
        result = pipe.run()                  # everything, as a PipelineResult

    An existing decomposition can be injected to skip stage 1 (e.g. to price
    several quotient flavours of one clustering)::

        pipe = DecompositionPipeline(graph, clustering=my_clustering)
    """

    def __init__(
        self,
        graph,
        config: Optional[PipelineConfig] = None,
        *,
        clustering: Optional[Clustering] = None,
        **overrides,
    ) -> None:
        config = config if config is not None else PipelineConfig()
        if overrides:
            config = dataclasses.replace(config, **overrides)
        if config.method == "weighted" and not graph.is_weighted:
            graph = CSRGraph(indptr=graph.indptr, indices=graph.indices, weights=np.ones(graph.indices.size))
        self.graph = graph
        self.config = config
        self.timings: Dict[str, float] = {}
        self.kernel_stats: Dict[str, Dict[str, int]] = {}
        self._clustering: Optional[Clustering] = clustering
        self._quotients: Dict[bool, CSRGraph] = {}
        self._quotient_diameters: Dict[bool, float] = {}
        self._estimate = None

    # ------------------------------------------------------------------ #
    # Stage 1: decomposition
    # ------------------------------------------------------------------ #
    def decompose(self) -> Clustering:
        """Run (or return the cached) decomposition stage."""
        if self._clustering is None:
            with _StageScope(self, "decompose"):
                self._clustering = self._run_decomposition()
        return self._clustering

    def _run_decomposition(self) -> Clustering:
        from repro.baselines.mpx import mpx_decomposition, mpx_with_target_clusters
        from repro.core.cluster import cluster, cluster_with_target_clusters, single_batch_decomposition
        from repro.core.cluster2 import cluster2
        from repro.core.diameter import default_tau

        cfg = self.config
        rng = as_rng(cfg.seed)
        if cfg.method == "mpx":
            if cfg.target_clusters is not None:
                return mpx_with_target_clusters(self.graph, cfg.target_clusters, seed=rng)
            return mpx_decomposition(self.graph, 0.1, seed=rng)
        if cfg.method == "single-batch":
            num_centers = cfg.target_clusters if cfg.target_clusters is not None else (
                cfg.tau if cfg.tau is not None else default_tau(self.graph)
            )
            return single_batch_decomposition(self.graph, num_centers, seed=rng)
        if cfg.target_clusters is not None:
            pilot = cluster_with_target_clusters(self.graph, cfg.target_clusters, seed=rng)
            if cfg.method == "cluster2":
                # §6.2 protocol at a target granularity: reuse the tuned
                # CLUSTER run as the pilot estimating R_ALG, then run the
                # geometric refinement.
                return cluster2(self.graph, 1, seed=rng, pilot=pilot).clustering
            return pilot
        tau = cfg.tau if cfg.tau is not None else default_tau(self.graph)
        if cfg.method == "cluster2":
            return cluster2(self.graph, tau, seed=rng).clustering
        return cluster(self.graph, tau, seed=rng)

    # ------------------------------------------------------------------ #
    # Stage 2: quotient graph(s)
    # ------------------------------------------------------------------ #
    def quotient(self, *, weighted: bool = True) -> CSRGraph:
        """Build (or return the cached) quotient graph of the decomposition.

        Both flavours come from one :func:`~repro.core.quotient.build_quotient_graph`
        call.  The ``weighted=True`` flavour carries the center-to-center path
        lengths (weighted growth distances plus edge weights for a weighted
        decomposition); the ``weighted=False`` flavour is the same CSR
        without weights, the hop-metric quotient.  The build is timed under
        the flavour asked for first.
        """
        if not self._quotients:
            clustering = self.decompose()
            with _StageScope(self, f"quotient[{'weighted' if weighted else 'unweighted'}]"):
                full = build_quotient_graph(self.graph, clustering, weighted=True)
            self._quotients = {True: full, False: full.unweighted()}
        return self._quotients[weighted]

    def quotient_diameter(self, *, weighted: bool = True) -> float:
        """Diameter of the (cached) quotient graph.

        The time is accumulated into the flavour's ``quotient[...]`` timing
        entry, so the stage timings partition the pipeline's wall-clock.
        """
        if weighted not in self._quotient_diameters:
            quotient = self.quotient(weighted=weighted)
            key = f"quotient[{'weighted' if weighted else 'unweighted'}]"
            with _StageScope(self, key):
                self._quotient_diameters[weighted] = quotient_diameter(quotient)
        return self._quotient_diameters[weighted]

    # ------------------------------------------------------------------ #
    # Stage 3: diameter bounds
    # ------------------------------------------------------------------ #
    def diameter(self):
        """Compute (or return the cached) diameter estimate.

        Unweighted decompositions report the Section 4 bounds; weighted
        decompositions report the §7 weighted bounds (weighted double-sweep
        lower bound, ``2·R_w + ∆'_C`` upper bound).  Both come back as a
        :class:`~repro.core.diameter.DiameterEstimate`.
        """
        from repro.core.diameter import DiameterEstimate, diameter_upper_bounds

        if self._estimate is None:
            clustering = self.decompose()
            if clustering.is_weighted:
                self._estimate = self._weighted_diameter(clustering)
                return self._estimate
            radius = clustering.max_radius
            lower = self.quotient_diameter(weighted=False)
            weighted_diam = self.quotient_diameter(weighted=True)
            num_quotient_edges = self.quotient(weighted=False).num_edges
            # Sub-stages above record their own timings; "diameter" covers
            # only the bound assembly so the stage entries stay disjoint.
            with _StageScope(self, "diameter"):
                unweighted_upper, weighted_upper = diameter_upper_bounds(
                    lower, radius, weighted_diam
                )
                self._estimate = DiameterEstimate(
                    lower_bound=int(lower),
                    upper_bound=weighted_upper,
                    upper_bound_unweighted=unweighted_upper,
                    upper_bound_weighted=weighted_upper,
                    radius=radius,
                    num_clusters=clustering.num_clusters,
                    num_quotient_edges=num_quotient_edges,
                    clustering=clustering,
                )
        return self._estimate

    def _weighted_diameter(self, clustering):
        """Assemble the §7 weighted diameter bounds from the cached stages."""
        from repro.core.diameter import DiameterEstimate
        from repro.graph.traversal import double_sweep

        quotient = self.quotient(weighted=True)
        quotient_diam = self.quotient_diameter(weighted=True)
        with _StageScope(self, "diameter"):
            lower, _, _ = double_sweep(self.graph, rng=as_rng(self.config.seed))
            upper = 2.0 * clustering.weighted_radius + quotient_diam
            return DiameterEstimate(
                lower_bound=lower,
                upper_bound=upper,
                upper_bound_unweighted=None,
                upper_bound_weighted=upper,
                radius=clustering.weighted_radius,
                num_clusters=clustering.num_clusters,
                num_quotient_edges=quotient.num_edges,
                clustering=clustering,
            )

    # ------------------------------------------------------------------ #
    # MR accounting over the cached stages
    # ------------------------------------------------------------------ #
    def mr_report(
        self,
        *,
        model: Optional[MRModel] = None,
        cost_model: CostModel = DEFAULT_COST_MODEL,
    ):
        """Account for the pipeline's execution in the MR(M_G, M_L) model.

        Charges the decomposition's growth trace (one round per growing step,
        Lemma 3) plus the quotient-build and quotient-diameter rounds against
        a charge-only :class:`~repro.mapreduce.engine.MREngine`; returns an
        :class:`~repro.core.mr_algorithms.MRExecutionReport`.  The
        quotient-diameter round is checked against ``model`` (default: an
        unbounded one, which never objects); the model's ``enforce`` decides
        whether an oversized quotient raises or is recorded.
        """
        from repro.core.mr_algorithms import (
            MRExecutionReport,
            charge_clustering_rounds,
            charge_quotient_rounds,
        )

        estimate = self.diameter()
        # Prerequisite stages above record their own timings; "mr-accounting"
        # covers only the round-charging replay.
        with _StageScope(self, "mr-accounting"):
            engine = MREngine(model=model if model is not None else MRModel(enforce=False))
            charge_clustering_rounds(engine, estimate.clustering)
            charge_quotient_rounds(engine, self.graph, num_quotient_edges=estimate.num_quotient_edges)
        return MRExecutionReport(
            estimate=estimate,
            clustering=estimate.clustering,
            metrics=engine.metrics,
            simulated_time=cost_model.simulated_time(engine.metrics),
        )

    # ------------------------------------------------------------------ #
    def run(self) -> PipelineResult:
        """Execute every stage and return the materialized result."""
        estimate = self.diameter()
        return PipelineResult(
            method=self.config.method,
            clustering=self.decompose(),
            estimate=estimate,
            timings=dict(self.timings),
            kernel_stats=(
                {stage: dict(counters) for stage, counters in self.kernel_stats.items()}
                if self.kernel_stats
                else None
            ),
        )
