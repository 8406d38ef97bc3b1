"""Benchmark dataset registry (stand-ins for the paper's Table 1 graphs).

The paper evaluates on six graphs: a symmetrized Twitter crawl, the
LiveJournal social network, three SNAP road networks (CA/PA/TX) and a
synthetic 1000×1000 mesh.  The crawled datasets are not redistributable and
are far beyond laptop scale, so — per the substitution policy in DESIGN.md —
we use synthetic stand-ins that reproduce the *regimes* the experiments
depend on:

=================  ==========================  =================================
paper dataset      regime                      stand-in generator
=================  ==========================  =================================
twitter            small ∆, heavy-tailed deg.  R-MAT (Graph500 parameters)
livejournal        small ∆, heavy-tailed deg.  Barabási–Albert
roads-CA/PA/TX     large ∆, sparse, low b      perturbed-grid road networks
mesh1000           known doubling dim. b = 2   exact k×k mesh
=================  ==========================  =================================

Two scales are provided: ``"default"`` (used by the benchmark harness) and
``"small"`` (used by the test-suite and for quick smoke runs).  All generators
are seeded, so every experiment is reproducible bit-for-bit.

Built graphs are memoized through a :class:`~repro.experiments.store.DatasetCache`
— the built graphs in memory, with an optional ``.snap`` disk layer.  The cache is
memory-only by default (set ``REPRO_DATASET_CACHE`` or call
:func:`configure_dataset_cache` to add the disk layer); the suite runner
points it at the artifact store's ``datasets/`` directory so one build is
shared across runs and worker processes.  Tests use
:func:`clear_dataset_cache` for isolation.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.experiments.store import REFERENCE_SWEEPS, DatasetCache
from repro.generators import (
    barabasi_albert_graph,
    mesh_graph,
    rmat_graph,
    road_network_graph,
)
from repro.graph.components import largest_component
from repro.graph.csr import CSRGraph
from repro.graph.traversal import double_sweep
from repro.utils.rng import as_rng

__all__ = [
    "DatasetSpec",
    "DATASETS",
    "dataset_names",
    "canonical_index",
    "load_dataset",
    "reference_diameter",
    "dataset_cache",
    "configure_dataset_cache",
    "clear_dataset_cache",
]


@dataclass(frozen=True)
class DatasetSpec:
    """One benchmark dataset.

    Attributes
    ----------
    name:
        Registry key (matches the paper's dataset naming with a ``-like``
        suffix for the synthetic stand-ins).
    paper_name:
        The dataset of the paper this one stands in for.
    regime:
        ``"social"`` (small diameter, high expansion) or ``"road"`` / ``"mesh"``
        (large diameter, low doubling dimension).
    builders:
        Mapping scale → zero-argument callable producing the graph.
    paper_row:
        The (nodes, edges, diameter) row of the paper's Table 1, for the
        side-by-side comparison in EXPERIMENTS.md.
    dims:
        Mapping scale → ``(rows, cols)`` for the grid-based generators
        (road networks and the mesh); ``None`` for the social graphs.  For
        the exact mesh this yields the analytic diameter
        ``(rows - 1) + (cols - 1)``.
    """

    name: str
    paper_name: str
    regime: str
    builders: Dict[str, Callable[[], CSRGraph]]
    paper_row: Tuple[int, int, int]
    dims: Optional[Dict[str, Tuple[int, int]]] = None

    def build(self, scale: str = "default") -> CSRGraph:
        if scale not in self.builders:
            raise KeyError(f"dataset {self.name!r} has no scale {scale!r}")
        return self.builders[scale]()


def _social_twitter(scale_exp: int, edge_factor: int, seed: int) -> Callable[[], CSRGraph]:
    def build() -> CSRGraph:
        return rmat_graph(scale_exp, edge_factor, seed=seed, connected_only=True)

    return build


def _social_livejournal(n: int, m: int, seed: int) -> Callable[[], CSRGraph]:
    def build() -> CSRGraph:
        return barabasi_albert_graph(n, m, seed=seed)

    return build


def _road(rows: int, cols: int, seed: int) -> Callable[[], CSRGraph]:
    def build() -> CSRGraph:
        return road_network_graph(rows, cols, seed=seed)

    return build


def _mesh(rows: int, cols: int) -> Callable[[], CSRGraph]:
    def build() -> CSRGraph:
        return mesh_graph(rows, cols)

    return build


DATASETS: Dict[str, DatasetSpec] = {
    "twitter-like": DatasetSpec(
        name="twitter-like",
        paper_name="twitter",
        regime="social",
        builders={
            "default": _social_twitter(13, 16, seed=101),
            "small": _social_twitter(10, 8, seed=101),
        },
        paper_row=(39_774_960, 684_451_342, 16),
    ),
    "livejournal-like": DatasetSpec(
        name="livejournal-like",
        paper_name="livejournal",
        regime="social",
        builders={
            "default": _social_livejournal(8000, 8, seed=102),
            "small": _social_livejournal(1500, 5, seed=102),
        },
        paper_row=(3_997_962, 34_681_189, 21),
    ),
    "roads-CA-like": DatasetSpec(
        name="roads-CA-like",
        paper_name="roads-CA",
        regime="road",
        builders={
            "default": _road(120, 120, seed=103),
            "small": _road(42, 42, seed=103),
        },
        paper_row=(1_965_206, 2_766_607, 849),
        dims={"default": (120, 120), "small": (42, 42)},
    ),
    "roads-PA-like": DatasetSpec(
        name="roads-PA-like",
        paper_name="roads-PA",
        regime="road",
        builders={
            "default": _road(95, 95, seed=104),
            "small": _road(36, 36, seed=104),
        },
        paper_row=(1_088_092, 1_541_898, 786),
        dims={"default": (95, 95), "small": (36, 36)},
    ),
    "roads-TX-like": DatasetSpec(
        name="roads-TX-like",
        paper_name="roads-TX",
        regime="road",
        builders={
            "default": _road(110, 105, seed=105),
            "small": _road(40, 38, seed=105),
        },
        paper_row=(1_379_917, 1_921_660, 1_054),
        dims={"default": (110, 105), "small": (40, 38)},
    ),
    "mesh": DatasetSpec(
        name="mesh",
        paper_name="mesh1000",
        regime="mesh",
        builders={
            "default": _mesh(100, 100),
            "small": _mesh(30, 30),
        },
        paper_row=(1_000_000, 1_998_000, 1_998),
        dims={"default": (100, 100), "small": (30, 30)},
    ),
}


def dataset_names() -> List[str]:
    """Names of the registered datasets, in registry order."""
    return list(DATASETS)


def canonical_index(name: str) -> int:
    """Stable position of ``name`` in the full registry order.

    Per-dataset seeds are derived from this index, so a dataset's rows do not
    depend on which *other* datasets are selected for a run — the property
    that makes suite cells independent and cache keys subset-stable.
    """
    try:
        return list(DATASETS).index(name)
    except ValueError:
        raise KeyError(f"unknown dataset {name!r}; available: {sorted(DATASETS)}") from None


# ---------------------------------------------------------------------- #
# Cached loading
# ---------------------------------------------------------------------- #
_CACHE = DatasetCache(directory=os.environ.get("REPRO_DATASET_CACHE"))


def dataset_cache() -> DatasetCache:
    """The process-wide dataset cache behind :func:`load_dataset`."""
    return _CACHE


def configure_dataset_cache(directory=None) -> DatasetCache:
    """Replace the process-wide cache (e.g. to add or move the disk layer)."""
    global _CACHE
    _CACHE = DatasetCache(directory=directory)
    return _CACHE


def clear_dataset_cache() -> None:
    """Drop the in-memory graphs/diameters (tests call this for isolation);
    disk entries stay."""
    _CACHE.clear()


def load_dataset(name: str, scale: str = "default") -> CSRGraph:
    """Build (and memoize) a benchmark graph; always returns its largest component."""
    if name not in DATASETS:
        raise KeyError(f"unknown dataset {name!r}; available: {sorted(DATASETS)}")

    def build() -> CSRGraph:
        graph, _ = largest_component(DATASETS[name].build(scale))
        return graph

    return _CACHE.graph(name, scale, build)


def reference_diameter(name: str, scale: str = "default") -> int:
    """Reference ("true") diameter of a benchmark graph.

    For the exact mesh the analytic value ``(rows - 1) + (cols - 1)`` is
    returned directly (the corner-to-corner distance of the grid).  All other
    graphs use the best lower bound over four double sweeps from random
    starts; on road networks the double sweep is within a node or two
    of exact, and the paper itself notes that its "true diameter" column comes
    from approximate-but-accurate algorithms.
    """
    if name not in DATASETS:
        raise KeyError(f"unknown dataset {name!r}; available: {sorted(DATASETS)}")
    spec = DATASETS[name]
    if spec.regime == "mesh" and spec.dims is not None and scale in spec.dims:
        rows, cols = spec.dims[scale]
        return (rows - 1) + (cols - 1)

    def compute() -> int:
        graph = load_dataset(name, scale)
        rng = as_rng(1234)
        best = 0
        for _ in range(REFERENCE_SWEEPS):
            lower, _, _ = double_sweep(graph, rng=rng)
            best = max(best, lower)
        return best

    return _CACHE.diameter(name, scale, compute)
