"""Experiment configuration: granularities, seeds, and cost-model constants.

The paper's experimental protocol (Section 6):

* Table 2 targets a decomposition granularity of roughly ``n / 1000`` clusters
  for the small-diameter (social) graphs and ``n / 100`` for the
  large-diameter (road / mesh) graphs.
* Table 3 uses two granularities per graph, a *coarser* and a *finer* one.
* Table 4 and Figure 1 use the finer granularity.

Our stand-in graphs are two to three orders of magnitude smaller than the
paper's, so the divisors are scaled down accordingly (the *ratio* between the
coarser and finer granularity and between the social and road regimes is
preserved); everything is centralized here so a single edit re-scales the
whole harness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, ClassVar

from repro.experiments.datasets import DATASETS, canonical_index
from repro.mapreduce.cost import CostModel
from repro.utils.rng import spawn_rngs

if TYPE_CHECKING:  # imported lazily at runtime to keep config import-light
    import numpy as np

    from repro.core.pipeline import DecompositionPipeline

__all__ = ["ExperimentConfig", "DEFAULT_CONFIG", "granularity_for", "dataset_rng"]


@dataclass(frozen=True)
class ExperimentConfig:
    """Settings of the experiment harness.

    ``decomposition_method`` is the one field: the decomposition algorithm
    used by the pipeline-driven experiments (``cluster`` / ``cluster2`` /
    ``mpx`` / ``single-batch`` / ``weighted``; the CLI's ``--method`` flag).
    With ``weighted`` the pipeline experiment attaches seeded uniform edge
    weights to the benchmark graphs (via
    :func:`repro.generators.attach_weights`) and runs the §7 hop-bounded
    weighted decomposition end to end.  The paper-table reproductions always
    pin their own methods.

    The protocol's constants are class attributes, the same on every
    instance:

    seed:
        Master seed; every driver derives per-run seeds from it.
    social_divisor / road_divisor:
        Target number of clusters = ``n / divisor`` (finer granularity).
    coarse_factor:
        The coarser granularity of Table 3 uses ``divisor * coarse_factor``.
    cost_model:
        Round-latency / per-pair cost used to convert MR metrics to seconds.
    hadi_registers:
        FM registers per node for the HADI baseline.
    tail_multipliers:
        The ``c`` values of Figure 1 (tail length = c × diameter).
    """

    seed: ClassVar[int] = 20150613
    social_divisor: ClassVar[int] = 50
    road_divisor: ClassVar[int] = 20
    coarse_factor: ClassVar[int] = 4
    # Round latency dominates for round-bound algorithms (BFS); the per-pair
    # cost is chosen so that HADI's Θ(m)-per-round shuffle is clearly visible,
    # as it is on the paper's cluster (HADI is the slowest method there).
    cost_model: ClassVar[CostModel] = CostModel(round_latency=1.0, pair_cost=5.0e-5)
    hadi_registers: ClassVar[int] = 16
    tail_multipliers: ClassVar[tuple] = (0, 1, 2, 4, 6, 8, 10)
    decomposition_method: str = "cluster"

    def divisor(self, regime: str) -> int:
        """Granularity divisor for a dataset regime."""
        return self.social_divisor if regime == "social" else self.road_divisor

    def pipeline(self, graph, **overrides) -> "DecompositionPipeline":
        """Build a :class:`~repro.core.pipeline.DecompositionPipeline` wired
        with this config's decomposition method.

        Keyword overrides are forwarded to
        :class:`~repro.core.pipeline.PipelineConfig` (``tau``,
        ``target_clusters``, ``seed``, ``method``, ...), so experiment drivers
        and serving workloads construct every pipeline the same way.
        """
        from repro.core.pipeline import DecompositionPipeline, PipelineConfig

        base = PipelineConfig(method=self.decomposition_method)
        return DecompositionPipeline(graph, base, **overrides)


DEFAULT_CONFIG = ExperimentConfig()


def dataset_rng(
    name: str, *, offset: int = 0, config: ExperimentConfig = DEFAULT_CONFIG
) -> "np.random.Generator":
    """Per-dataset RNG for an experiment driver.

    Derived from ``config.seed + offset`` (one ``offset`` per experiment) and
    the dataset's :func:`~repro.experiments.datasets.canonical_index`, so a
    dataset's stream depends only on the experiment and the dataset itself —
    never on which other datasets run in the same batch.  ``SeedSequence``
    children are index-stable, which makes this identical to the historical
    ``spawn_rngs(seed + offset, len(all_names))[i]`` derivation when the full
    registry runs, while also making restricted runs and suite cells
    reproduce the exact same per-dataset rows.
    """
    index = canonical_index(name)
    return spawn_rngs(config.seed + offset, index + 1)[index]


def granularity_for(
    dataset: str, num_nodes: int, *, coarse: bool = False, config: ExperimentConfig = DEFAULT_CONFIG
) -> int:
    """Target number of clusters for ``dataset`` at the chosen granularity."""
    spec = DATASETS[dataset]
    divisor = config.divisor(spec.regime)
    if coarse:
        divisor *= config.coarse_factor
    return max(4, num_nodes // divisor)
