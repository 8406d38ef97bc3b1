"""The :class:`GraphService`: one decomposition, millions of batched queries.

Serving state is a handful of aligned arrays, all derived from a single
decomposition run: :meth:`GraphService.build` decomposes through
:class:`~repro.core.pipeline.DecompositionPipeline`, the serving plane's one
decomposition path.  A graph an existing pipeline already decomposed needs no
second run: :func:`build_distance_oracle(graph, clustering)
<repro.core.oracle.build_distance_oracle>` builds the oracle on that
clustering.  The arrays are:

* per-node: cluster ``assignment``, ``center_distance`` (float64), owned by
  the underlying :class:`~repro.core.oracle.DistanceOracle`;
* per-cluster: ``centers``, growth ``radii``, and the precomputed
  eccentricity-bound vectors folded out of the quotient APSP matrices (the
  unweighted APSP runs :func:`~repro.graph.kernels.msbfs_levels`, one BFS
  over a whole tile of cluster sources, so oracle builds do not loop one BFS
  per cluster).

Every query method takes whole id arrays and answers with aligned result
arrays — the hot path is index gathers and ufuncs only.  Queries served:

===================  =====================================================
method               answer per queried entry
===================  =====================================================
query_distance       ``(lower, upper)`` bounds on ``dist(u, v)``
query_same_cluster   whether ``u`` and ``v`` share a cluster
query_eccentricity   ``(lower, upper)`` bounds on the eccentricity of ``u``
query_centers        ``(center node, center-distance upper bound)`` of ``u``
answer               a mixed batch of the four kinds above, in batch order,
                     as two ``float64`` columns (see :meth:`~GraphService.answer`)
===================  =====================================================

The eccentricity bounds come from the decomposition alone: for a node ``u``
in cluster ``A`` with center distance ``d_u``,

    ``ecc(u) ≥ max_B hop_Q(A, B) · w_min``   (every path to a node of ``B``
    crosses at least ``hop_Q(A, B)`` inter-cluster edges), and

    ``ecc(u) ≤ d_u + max_B ( upper_Q(A, B) + radius(B) )``   (route through
    the two centers, then anywhere inside ``B``).
"""

from __future__ import annotations

import time
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.oracle import DistanceOracle, build_distance_oracle, default_oracle_tau
from repro.core.pipeline import DecompositionPipeline, PipelineConfig
from repro.graph import kernels
from repro.graph.csr import CSRGraph
from repro.utils.validation import check_node_batch

__all__ = ["GraphService", "SERVICE_METHODS", "QUERY_KINDS", "PAIR_KINDS", "check_query_kinds"]

#: Query kinds a service answers, in wire order: code ``i`` ↔ ``QUERY_KINDS[i]``.
QUERY_KINDS = ("distance", "same-cluster", "eccentricity", "center")

#: The kinds that take a pair ``(u, v)``: codes below ``len(PAIR_KINDS)``.
#: The other kinds read ``u`` only.
PAIR_KINDS = QUERY_KINDS[:2]

#: Decomposition methods the serving plane supports (a subset of
#: :data:`repro.core.pipeline.PIPELINE_METHODS`; ``"auto"`` resolves to
#: ``"weighted"`` for weighted graphs and ``"cluster2"`` otherwise).
SERVICE_METHODS = ("cluster", "cluster2", "weighted")


def resolve_method(graph: CSRGraph, method: str) -> str:
    """Resolve ``"auto"`` and validate an explicit service method."""
    if method == "auto":
        return "weighted" if graph.is_weighted else "cluster2"
    if method not in SERVICE_METHODS:
        raise ValueError(
            f"unknown service method {method!r}; choose from {SERVICE_METHODS} or 'auto'"
        )
    return method


def check_query_kinds(kinds) -> np.ndarray:
    """Validate a 1-d integer array of codes into :data:`QUERY_KINDS`.

    Returns the codes as an array, in their own dtype.  Raises ``ValueError``
    for non-1-d input or an unknown code (naming the first one and its
    position) and ``TypeError`` for a non-integer dtype.
    """
    codes = np.asarray(kinds)
    if codes.ndim != 1:
        raise ValueError(f"kinds must be a 1-d array of query kind codes, got shape {codes.shape}")
    if codes.size == 0:
        return codes
    if not np.issubdtype(codes.dtype, np.integer):
        raise TypeError(f"kinds must be an integer array, got dtype {codes.dtype}")
    if codes.min() < 0 or codes.max() >= len(QUERY_KINDS):
        position = int(np.argmax((codes < 0) | (codes >= len(QUERY_KINDS))))
        raise ValueError(
            f"unknown query kind code {int(codes[position])} at position {position}; "
            f"codes are 0..{len(QUERY_KINDS) - 1} for {QUERY_KINDS}"
        )
    return codes


class GraphService:
    """Batched distance-oracle serving plane over one precomputed decomposition.

    Construct through :meth:`build` (run the decomposition once),
    :func:`repro.serving.load_snapshot` (cold-start from a persisted
    snapshot), or :meth:`load_or_build` (snapshot hit or build-and-save).
    """

    def __init__(
        self,
        graph: CSRGraph,
        oracle: DistanceOracle,
        *,
        method: str,
        tau: int,
        seed=None,
        snapshot_key: Optional[str] = None,
        timings: Optional[Dict[str, float]] = None,
    ) -> None:
        if graph.num_nodes != oracle.num_nodes:
            raise ValueError("graph and oracle refer to different node sets")
        self.graph = graph
        self.oracle = oracle
        self.method = method
        self.tau = int(tau)
        self.seed = seed
        self.timings: Dict[str, float] = dict(timings or {})
        #: kernel counter totals of the build (``REPRO_KERNEL_STATS=1`` builds
        #: only; None otherwise and for snapshot-loaded services)
        self.kernel_stats: Optional[Dict[str, int]] = None
        self._snapshot_key = snapshot_key
        clustering = oracle.clustering
        self.assignment = oracle.assignment
        self.center_distance = oracle.center_distance
        self.centers = np.ascontiguousarray(clustering.centers, dtype=np.int64)
        radii = np.zeros(clustering.num_clusters, dtype=np.float64)
        np.maximum.at(radii, self.assignment, self.center_distance)
        self.cluster_radii = radii
        self._ecc_lower_by_cluster = oracle.lower_matrix.max(axis=1)
        self._ecc_upper_by_cluster = (oracle.upper_matrix + radii[None, :]).max(axis=1)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def build(
        cls,
        graph: CSRGraph,
        *,
        tau: Optional[int] = None,
        seed=None,
        method: str = "auto",
    ) -> "GraphService":
        """Run the full precompute once and return a ready-to-serve instance.

        The decomposition stage runs through a
        :class:`~repro.core.pipeline.DecompositionPipeline`, the serving
        plane's one decomposition path, and
        :func:`~repro.core.oracle.build_distance_oracle` builds on its
        clustering.  ``seed`` must be an ``int`` or ``None`` if the service
        is to be snapshotted (the snapshot content key covers graph + tau +
        seed).
        """
        if graph.num_nodes == 0:
            raise ValueError("graph must be non-empty")
        method = resolve_method(graph, method)
        if tau is None:
            tau = default_oracle_tau(graph.num_nodes)
        timings: Dict[str, float] = {}
        stats_before = (
            kernels.kernel_stats_snapshot() if kernels.kernel_stats_enabled() else None
        )
        pipeline = DecompositionPipeline(graph, PipelineConfig(method=method, tau=tau, seed=seed))
        clustering = pipeline.decompose()
        graph = pipeline.graph  # method="weighted" lifts to unit weights
        timings.update(pipeline.timings)
        start = time.perf_counter()
        oracle = build_distance_oracle(graph, clustering)
        timings["oracle"] = time.perf_counter() - start
        service = cls(graph, oracle, method=method, tau=tau, seed=seed, timings=timings)
        if stats_before is not None:
            after = kernels.kernel_stats_snapshot()
            service.kernel_stats = {
                counter: after[counter] - stats_before[counter] for counter in after
            }
        return service

    @classmethod
    def load_or_build(
        cls,
        store,
        graph: CSRGraph,
        *,
        tau: Optional[int] = None,
        seed=None,
        method: str = "auto",
    ) -> Tuple["GraphService", bool]:
        """Serve from a stored snapshot when one matches, else build and save.

        ``store`` is an :class:`~repro.experiments.store.ArtifactStore` or a
        plain snapshot directory.  Returns ``(service, loaded)`` where
        ``loaded`` tells whether the precomputed state came off disk (the
        cold-start path: no decomposition, no APSP).  Any change to the graph
        arrays, ``tau``, ``seed``, or ``method`` changes the content key and
        forces a rebuild.

        A snapshot that exists but fails to load (torn write, flipped bit,
        stale schema) degrades gracefully: a ``RuntimeWarning`` is emitted,
        the corrupt file is removed, and the service is rebuilt and re-saved
        — cold starts never abort on damaged cache state.
        """
        import warnings

        from repro.serving import snapshot as snap

        method = resolve_method(graph, method)
        if tau is None:
            tau = default_oracle_tau(graph.num_nodes)
        key = snap.snapshot_key(graph, tau=tau, seed=seed, method=method)
        path = snap.snapshot_path(store, key)
        if path.exists():
            try:
                service = snap.load_snapshot(path)
                return service, True
            except ValueError as exc:
                warnings.warn(
                    f"oracle snapshot {path} is corrupt ({exc}); rebuilding",
                    RuntimeWarning,
                    stacklevel=2,
                )
                path.unlink(missing_ok=True)
        service = cls.build(graph, tau=tau, seed=seed, method=method)
        snap.save_snapshot(service, store)
        return service, False

    def save_snapshot(self, store):
        """Persist the precomputed state; see :func:`repro.serving.save_snapshot`."""
        from repro.serving.snapshot import save_snapshot

        return save_snapshot(self, store)

    # ------------------------------------------------------------------ #
    # Batched queries (the serving hot path: gathers and ufuncs only)
    # ------------------------------------------------------------------ #
    def query_distance(self, us, vs) -> Tuple[np.ndarray, np.ndarray]:
        """Batched ``(lower, upper)`` distance bounds; see
        :meth:`repro.core.oracle.DistanceOracle.query_batch`."""
        return self.oracle.query_batch(us, vs)

    def query_same_cluster(self, us, vs) -> np.ndarray:
        """Whether each aligned pair lies in the same cluster (bool array)."""
        n = self.num_nodes
        us = check_node_batch(us, n, "us")
        vs = check_node_batch(vs, n, "vs")
        if us.shape != vs.shape:
            raise ValueError(
                f"us and vs must have the same length, got {us.size} and {vs.size}"
            )
        return self.assignment[us] == self.assignment[vs]

    def query_eccentricity(self, nodes) -> Tuple[np.ndarray, np.ndarray]:
        """Per-node ``(lower, upper)`` eccentricity bounds (float64 arrays)."""
        idx = check_node_batch(nodes, self.num_nodes, "nodes")
        return self._eccentricity(self.assignment[idx], self.center_distance[idx])

    def query_centers(self, nodes) -> Tuple[np.ndarray, np.ndarray]:
        """Per-node k-center assignment: ``(center node id, distance bound)``.

        The distance is the growth distance to the own cluster center — an
        upper bound on (and within the growth forest, a realizable path
        length to) the true center distance, i.e. exactly the k-center
        assignment radius the decomposition guarantees.
        """
        idx = check_node_batch(nodes, self.num_nodes, "nodes")
        return self.centers[self.assignment[idx]], self.center_distance[idx]

    def answer(self, kinds, us, vs) -> Tuple[np.ndarray, np.ndarray]:
        """Answer a mixed batch in order, as two aligned ``float64`` columns.

        ``kinds`` holds codes into :data:`QUERY_KINDS`; ``vs`` is read only
        where the kind takes a pair (:data:`PAIR_KINDS`).  Row ``i`` is:

        ============  ================================  =================
        kind          ``a[i]``                          ``b[i]``
        ============  ================================  =================
        distance      lower bound                       upper bound
        same-cluster  ``1.0`` or ``0.0``                ``0.0``
        eccentricity  lower bound                       upper bound
        center        center node id                    center distance
        ============  ================================  =================

        each bit-identical to what the kind's ``query_*`` method returns.
        The batch is validated once and each endpoint's cluster id and center
        distance are gathered once.  Every row evaluates every kind's formula
        into a ``(kinds, rows)`` table per column, and keeps its own kind's
        entry by one gather.
        """
        kinds = check_query_kinds(kinds)
        n = self.num_nodes
        us = check_node_batch(us, n, "us")
        vs = np.asarray(vs)
        if not kinds.shape == us.shape == vs.shape:
            raise ValueError(
                f"kinds, us and vs must have the same length, got {kinds.size}, {us.size} and {vs.size}"
            )
        # A unary row reads its u twice, so vs is validated only where it is read.
        vs = check_node_batch(np.where(kinds < len(PAIR_KINDS), vs, us), n, "vs")
        cu, cv = self.assignment[us], self.assignment[vs]
        du = self.center_distance[us]
        a = np.empty((len(QUERY_KINDS), kinds.size))
        b = np.empty_like(a)
        a[0], b[0] = self.oracle.bounds(cu, cv, du, self.center_distance[vs], us == vs)
        a[1], b[1] = cu == cv, 0.0
        a[2], b[2] = self._eccentricity(cu, du)
        a[3], b[3] = self.centers[cu], du
        pick = kinds.astype(np.int64) * kinds.size + np.arange(kinds.size)
        return np.take(a, pick), np.take(b, pick)

    def _eccentricity(self, cluster_ids, center_distance) -> Tuple[np.ndarray, np.ndarray]:
        """Eccentricity bounds from gathered cluster ids and center distances."""
        return (
            self._ecc_lower_by_cluster[cluster_ids],
            center_distance + self._ecc_upper_by_cluster[cluster_ids],
        )

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def num_nodes(self) -> int:
        return self.graph.num_nodes

    @property
    def num_clusters(self) -> int:
        return self.oracle.num_clusters

    @property
    def is_weighted(self) -> bool:
        return self.oracle.is_weighted

    @property
    def space_entries(self) -> int:
        return self.oracle.space_entries

    @property
    def snapshot_key(self) -> str:
        """Content hash of the precomputed state (graph + tau + seed + method)."""
        if self._snapshot_key is None:
            from repro.serving.snapshot import snapshot_key

            self._snapshot_key = snapshot_key(
                self.graph, tau=self.tau, seed=self.seed, method=self.method
            )
        return self._snapshot_key

    def stats(self) -> dict:
        """Compact dict for logs and the ``serve`` CLI banner.

        Builds run under ``REPRO_KERNEL_STATS=1`` include a ``kernel_stats``
        entry with the build's frontier-kernel counter totals.
        """
        stats = {
            "num_nodes": self.num_nodes,
            "num_edges": self.graph.num_edges,
            "num_clusters": self.num_clusters,
            "method": self.method,
            "tau": self.tau,
            "weighted": self.is_weighted,
            "space_entries": self.space_entries,
            "snapshot_key": self.snapshot_key,
        }
        if self.kernel_stats is not None:
            stats["kernel_stats"] = dict(self.kernel_stats)
        return stats

    def __repr__(self) -> str:
        return (
            f"GraphService(n={self.num_nodes}, m={self.graph.num_edges}, "
            f"k={self.num_clusters}, method={self.method!r}, tau={self.tau})"
        )
