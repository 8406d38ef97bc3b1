"""The four workloads, and the process that measures one of them.

``python -m benchmarks.e2e run`` starts this module once per workload, in a
fresh interpreter, so the peak RSS it reports belongs to that workload alone.
A run sets its input up several times (``setup_s`` is the median), warms up,
then repeats the measured *pass* until ``--seconds`` are spent, and checks
the outputs outside the timed sections.  Every time is taken at reference
speed (see :class:`Speed`).  Its last stdout line is a JSON record for the
parent.

The layers are timed from outside: every span is opened here, around a call
into a public function, or by :func:`benchmarks.e2e.tracing.instrument`
during traced passes only.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from benchmarks._memory import process_peak_rss
from benchmarks.e2e import spec
from benchmarks.e2e.tracing import NULL_TRACER, Tracer, instrument, instrument_service
from repro.experiments.config import DEFAULT_CONFIG
from repro.graph import kernels

#: The digests ``--seed 1`` must reproduce, per workload and size.
DIGESTS_JSON = Path(__file__).with_name("digests.json")
PINNED_SEED = 1


def _sha256(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


class Speed:
    """Times work at a reference machine speed.

    The machine is shared, and its speed drifts by 20-40% over tens of
    seconds as its neighbours' load comes and goes (CPU time drifts with
    wall time), in phases longer than a run.  So each unit of measured work
    (one set-up, one pipeline, one oracle build or replay, one experiment of
    the suite grid) is closed by :meth:`lap`, which runs a *slice* of fixed
    work that uses no code of this repository.  A unit's time at reference
    speed is its wall time × ``REFERENCE_S`` ÷ the mean of the slices before
    and after it.  The slice is single-threaded, so the units must be too.

    A slice is a third each of Python bytecode (dict lookups in a loop),
    numpy calls on 20k-element arrays and numpy calls on 256-element arrays
    (where numpy's per-call overhead dominates): in slow phases the first
    slows more than the workloads and the numpy calls less, and together
    they slow about as much.  Over ten seeds each this cut the spread of a
    run's time from 17-47% to 2-6%.
    """

    #: one slice's wall time on an unloaded 2-vCPU Intel Xeon VM
    REFERENCE_S = 0.013

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._data = rng.integers(0, 5000, 20_000)
        self._table = {key: key for key in range(5000)}
        self._small = rng.random(256)
        self._order = rng.integers(0, 256, 256)
        self._out = np.empty(256)
        #: wall time of every slice
        self.slices: List[float] = []
        self._slice()
        self._mark = time.perf_counter()

    def _slice(self) -> None:
        start = time.perf_counter()
        for step in range(15):
            np.unique(self._data[(self._data + step) % 7 == 0])
        for _ in range(1500):
            np.minimum(self._small[self._order], self._small, out=self._out)
            (self._out < 0.5).nonzero()
        total = 0
        for key in range(60_000):
            total += self._table[key % 5000]
        self.slices.append(time.perf_counter() - start)

    def skip(self) -> None:
        """Start the next unit now: what ran since the last lap is not timed."""
        self._mark = time.perf_counter()

    def lap(self) -> float:
        """End the current unit of work; returns its time at reference speed."""
        wall = time.perf_counter() - self._mark
        self._slice()
        self._mark = time.perf_counter()
        return wall * 2 * self.REFERENCE_S / (self.slices[-2] + self.slices[-1])

    def factor(self) -> float:
        """The machine's median speed over the run, relative to the reference."""
        return self.REFERENCE_S / _median(self.slices)


def _no_lap() -> float:
    return 0.0


class Workload:
    """One workload: inputs made from a seed, a measured pass, and its checks.

    ``run_pass(tracer, lap)`` calls ``lap()`` after each unit of its work
    (see :class:`Speed`); the unit's time at reference speed is returned.  It
    returns a dict with ``ops`` (operations attempted), ``failed``
    (operations that failed), ``digest`` (a hash of every output) and
    optionally ``rates`` (ops per second of the time spent executing them;
    the pass time is used otherwise).
    """

    name = ""
    #: rebind in-layer call sites during traced passes
    instrumented = True
    #: whether the inputs depend on ``--seed`` (else the digest is pinned for every seed)
    uses_seed = True

    def __init__(self, seed: int, quick: bool, workdir: Path) -> None:
        self.seed = seed
        self.quick = quick
        self.workdir = workdir
        #: per-layer metrics measured during set-up: name -> one value per set-up
        self.setup_layer: Dict[str, List[float]] = {}

    def setup(self, index: int) -> None:
        raise NotImplementedError

    def warmup(self) -> None:
        """Untimed work that fills caches before the first measured pass."""

    def run_pass(self, tracer, lap) -> Dict:
        raise NotImplementedError

    def check(self, first: Dict) -> Tuple[int, List[str]]:
        """``(failed ops, messages)`` for invariant violations in the first pass."""
        return 0, []

    def layer_metrics(self, tracer: Tracer, repeat: int, out: Dict) -> Dict[str, float]:
        return {}

    def close(self) -> None:
        """Release what the workload holds before peak RSS is read."""


# ---------------------------------------------------------------------- #
# rmat-social / road-long: the decomposition pipeline on a corpus of seeds
# ---------------------------------------------------------------------- #
@dataclasses.dataclass
class _PipelineRecord:
    seed: int
    clustering: object
    estimate: object
    quotient_edges: int
    mr: object


class PipelineCorpus(Workload):
    """``DEFAULT_CONFIG.pipeline(target_clusters=n // divisor)`` over many seeds.

    One pass runs every pipeline stage through its public method, for each of
    ``count`` decomposition seeds derived from ``--seed``, on one seeded
    graph.  One decomposition's cost swings by about a fifth with its seed
    (the tuned cluster count and the quotient's shape move with it), so a
    pass sums a corpus of seeds and a run's time is steady across seeds.
    """

    divisor = 50
    count = 1

    def __init__(self, seed, quick, workdir) -> None:
        super().__init__(seed, quick, workdir)
        self.count = 2 if quick else self.count
        self.seeds = [seed * 1000 + index for index in range(self.count)]
        self.graph = None

    def _pipeline_records(self, tracer, seeds, lap=_no_lap) -> List[_PipelineRecord]:
        records = []
        for seed in seeds:
            with tracer.span("pipeline", seed=seed):
                pipe = DEFAULT_CONFIG.pipeline(
                    self.graph,
                    target_clusters=max(4, self.graph.num_nodes // self.divisor),
                    seed=seed,
                )
                with tracer.span("stage.decompose"):
                    clustering = pipe.decompose()
                with tracer.span("stage.quotient", weighted=False):
                    pipe.quotient(weighted=False)
                with tracer.span("stage.quotient", weighted=True):
                    quotient = pipe.quotient(weighted=True)
                with tracer.span("stage.quotient_diameter", weighted=False):
                    pipe.quotient_diameter(weighted=False)
                with tracer.span("stage.quotient_diameter", weighted=True):
                    pipe.quotient_diameter(weighted=True)
                with tracer.span("stage.diameter"):
                    estimate = pipe.diameter()
                with tracer.span("stage.mr_report"):
                    report = pipe.mr_report()
            records.append(
                _PipelineRecord(seed, clustering, estimate, quotient.num_edges, report.metrics)
            )
            lap()
        return records

    def warmup(self) -> None:
        self._pipeline_records(NULL_TRACER, self.seeds[:1])

    def run_pass(self, tracer, lap) -> Dict:
        records = self._pipeline_records(tracer, self.seeds, lap)
        digest = _sha256(
            [
                [r.seed, r.clustering.num_clusters, r.estimate.lower_bound,
                 r.estimate.upper_bound, r.quotient_edges, r.mr.rounds]
                for r in records
            ]
        )
        return {"ops": len(records), "failed": 0, "digest": digest, "records": records}

    def check(self, first: Dict) -> Tuple[int, List[str]]:
        from repro.graph.traversal import double_sweep
        from repro.utils.rng import as_rng

        failed, errors = 0, []
        n = self.graph.num_nodes
        sweep_lower, _, _ = double_sweep(self.graph, rng=as_rng(self.seed))
        for record in first["records"]:
            clustering, estimate = record.clustering, record.estimate
            k = clustering.num_clusters
            assignment = np.asarray(clustering.assignment)
            centers = np.asarray(clustering.centers)
            problems = []
            if (
                assignment.size != n
                or assignment.min() < 0
                or assignment.max() >= k
                or np.bincount(assignment, minlength=k).min() == 0
                or not np.array_equal(assignment[centers], np.arange(k))
                or np.asarray(clustering.distance)[centers].any()
            ):
                problems.append("clusters do not partition the nodes around their centers")
            if estimate.radius != clustering.max_radius:
                problems.append(f"radius {estimate.radius} != max_radius {clustering.max_radius}")
            if not estimate.lower_bound <= estimate.upper_bound:
                problems.append(f"lower {estimate.lower_bound} > upper {estimate.upper_bound}")
            if not sweep_lower <= estimate.upper_bound:
                problems.append(f"double-sweep lower bound {sweep_lower} > upper {estimate.upper_bound}")
            failed += bool(problems)
            errors.extend(f"pipeline seed {record.seed}: {p}" for p in problems)
        return failed, errors

    def layer_metrics(self, tracer, repeat, out) -> Dict[str, float]:
        records = out["records"]
        return {
            "decompose.s": tracer.total("stage.decompose", repeat),
            "decompose.clusters": sum(r.clustering.num_clusters for r in records),
            "decompose.radius": max(r.clustering.max_radius for r in records),
            "mr.accounting_s": tracer.total("stage.mr_report", repeat),
            "mr.rounds": sum(r.mr.rounds for r in records),
            "mr.shuffled_pairs": sum(r.mr.shuffled_pairs for r in records),
            "pipeline.bound_ratio": _median(
                [
                    r.estimate.upper_bound / r.estimate.lower_bound
                    for r in records
                    if r.estimate.lower_bound > 0
                ]
            ),
        }

    def close(self) -> None:
        self.graph = None


class RmatSocial(PipelineCorpus):
    """Small-diameter social regime, read through the out-of-core path."""

    name = "rmat-social"
    divisor = DEFAULT_CONFIG.social_divisor
    count = 16

    def setup(self, index: int) -> None:
        from repro.generators.streaming import rmat_to_snapshot

        scale, chunk = (10, 1 << 12) if self.quick else (15, 1 << 17)
        previous = self.workdir / f"rmat-{index - 1}.snap"
        self.graph = None
        previous.unlink(missing_ok=True)
        path = self.workdir / f"rmat-{index}.snap"
        start = time.perf_counter()
        self.graph, _ = rmat_to_snapshot(
            path, scale, 16, seed=self.seed, chunk_edges=chunk,
            connected_only=True, mmap=True, tmp_dir=self.workdir,
        )
        self.setup_layer.setdefault("ingest.snapshot_s", []).append(time.perf_counter() - start)
        self.setup_layer["ingest.snapshot_bytes"] = [path.stat().st_size]


class RoadLong(PipelineCorpus):
    """Long-diameter road regime, in memory."""

    name = "road-long"
    divisor = DEFAULT_CONFIG.road_divisor
    count = 24

    def setup(self, index: int) -> None:
        from repro.generators import road_network_graph
        from repro.graph.components import largest_component

        side = 16 if self.quick else 50
        self.graph, _ = largest_component(road_network_graph(side, side, seed=self.seed))


# ---------------------------------------------------------------------- #
# serve-road: GraphService build plus replayed query batches
# ---------------------------------------------------------------------- #
class ServeRoad(Workload):
    """Build a ``GraphService`` (CLUSTER2, τ = 256) and replay a query log.

    The oracle build writes two k×k quotient APSP matrices (k ≈ 860, so each
    is larger than L2); replay only gathers from them.  A pass is one build,
    one warm-up replay and three timed replays by one closed-loop client.

    The served graph and the oracle's decomposition seed are fixed; ``--seed``
    draws the query log.  The build takes time about proportional to k^1.5,
    and k moves by about 6% with the graph's and the decomposition's seed, so
    a seeded graph made the build time differ by 12% between seeds.
    """

    name = "serve-road"
    replays = 3
    #: seed of the served graph and of its oracle's decomposition
    dataset_seed = PINNED_SEED

    def __init__(self, seed, quick, workdir) -> None:
        super().__init__(seed, quick, workdir)
        self.side, self.tau, self.queries, self.batch = (
            (24, 4, 20_000, 1024) if quick else (300, 256, 2_000_000, 8192)
        )
        self.graph = self.log = None

    def setup(self, index: int) -> None:
        from repro.generators import road_network_graph
        from repro.graph.components import largest_component
        from repro.serving import synthetic_workload

        self.graph = self.log = None
        self.graph, _ = largest_component(
            road_network_graph(self.side, self.side, seed=self.dataset_seed)
        )
        self.log = synthetic_workload(self.graph.num_nodes, self.queries, seed=self.seed)

    def run_pass(self, tracer, lap) -> Dict:
        from repro.serving import GraphService, replay

        with tracer.span("serve.build"):
            svc = GraphService.build(self.graph, tau=self.tau, seed=self.dataset_seed)
        lap()
        traced = (
            instrument_service(tracer, svc) if tracer is not NULL_TRACER else contextlib.nullcontext()
        )
        reports, rates = [], []
        with traced:
            for index in range(1 + self.replays):
                with tracer.span("serve.replay", warmup=index == 0):
                    report = replay(svc, self.log, batch_size=self.batch)
                seconds = lap()
                if index:
                    reports.append(report)
                    rates.append(len(self.log) / seconds)
        checksums = {report.checksum for report in reports}
        return {
            "ops": len(self.log) * len(reports),
            "failed": 0 if len(checksums) == 1 else len(self.log) * len(reports),
            "digest": reports[0].checksum,
            "rates": rates,
            "service": svc,
            "reports": reports,
        }

    def check(self, first: Dict) -> Tuple[int, List[str]]:
        svc, log = first["service"], self.log
        errors = []
        pairs = log.kinds == 0
        us, vs = log.us[pairs], log.vs[pairs]
        lower, upper = svc.query_distance(us, vs)
        bad = int(np.count_nonzero(lower > upper))
        unary = log.kinds == 2
        ecc_lower, ecc_upper = svc.query_eccentricity(log.us[unary])
        bad += int(np.count_nonzero(ecc_lower > ecc_upper))
        if bad:
            errors.append(f"{bad} answers have lower > upper")
        sample = min(64, us.size)
        hops = kernels.msbfs_levels(self.graph.indptr, self.graph.indices, us[:sample])
        truth = hops[np.arange(sample), vs[:sample]]
        outside = np.flatnonzero((truth < lower[:sample]) | (truth > upper[:sample]))
        if outside.size:
            i = int(outside[0])
            errors.append(
                f"{outside.size}/{sample} sampled pairs outside [lower, upper]; e.g. "
                f"d({us[i]}, {vs[i]}) = {truth[i]} vs [{lower[i]}, {upper[i]}]"
            )
        return bad + int(outside.size), errors

    def layer_metrics(self, tracer, repeat, out) -> Dict[str, float]:
        svc, reports = out["service"], out["reports"]
        metrics = {
            "oracle.decompose_s": tracer.total("oracle.decompose", repeat),
            "oracle.build_s": tracer.total("oracle.build", repeat),
            "oracle.apsp_s": tracer.total("quotient.apsp", repeat),
            "oracle.clusters": svc.num_clusters,
            "oracle.space_entries": svc.space_entries,
            "serving.batch_p50_ms": _median([r.latency_ms["p50"] for r in reports]),
            "serving.batch_p99_ms": _median([r.latency_ms["p99"] for r in reports]),
            "serving.batches": sum(r.num_batches for r in reports),
        }
        replays = [s for s in tracer.named("serve.replay", repeat) if not s["attrs"]["warmup"]]
        queries = [q for s in replays for q in tracer.children(s)]
        for kind in ("distance", "same_cluster", "eccentricity", "centers"):
            spans = [q for q in queries if q["attrs"]["kind"] == kind]
            size = sum(q["attrs"]["size"] for q in spans)
            seconds = sum(tracer.seconds(q) for q in spans)
            metrics[f"serving.{kind}_ns_per_query"] = seconds / size * 1e9 if size else 0.0
        metrics["serving.dispatch_overhead_s"] = sum(tracer.seconds(s) for s in replays) - sum(
            tracer.seconds(q) for q in queries
        )
        return metrics

    def close(self) -> None:
        self.graph = self.log = None


# ---------------------------------------------------------------------- #
# suite-small: the declarative experiment grid, serial
# ---------------------------------------------------------------------- #
class SuiteSmall(Workload):
    """``SuiteRunner(store).run([experiment], scale="small", include_hadi=True)``.

    The six small datasets and their reference diameters are prewarmed into
    a fresh store's ``datasets/`` during set-up; a pass runs all 46 cells
    (no resume) through a new runner, one ``run`` call per experiment, each
    a unit of work at reference speed (see :class:`Speed`).  The runner is
    serial (``jobs=1``), so the cells run in this process: with two pool
    workers on a 2-vCPU machine the workers slowed each other by ~40% and
    the grid's time followed no single-threaded calibration slice.

    The grid always runs under ``DEFAULT_CONFIG``, whatever ``--seed`` is:
    under other config seeds some figure1 cells never return, because
    ``kernels.delta_stepping`` loops forever when a bucket boundary rounds
    down onto the bucket's minimum distance.
    """

    name = "suite-small"
    instrumented = False
    uses_seed = False

    def __init__(self, seed, quick, workdir) -> None:
        super().__init__(seed, quick, workdir)
        self.datasets = ("livejournal-like",) if quick else None
        self.store = None

    def setup(self, index: int) -> None:
        from repro.experiments.datasets import (
            clear_dataset_cache,
            dataset_cache,
            dataset_names,
            load_dataset,
            reference_diameter,
        )
        from repro.experiments.store import ArtifactStore

        self.store = ArtifactStore(self.workdir / f"store-{index}")
        dataset_cache().set_directory(self.store.datasets_dir)
        clear_dataset_cache()
        for name in self.datasets or dataset_names():
            load_dataset(name, "small")
            reference_diameter(name, "small")

    def _grid(self, tracer, lap, datasets) -> Dict:
        from repro.experiments.suite import DEFAULT_EXPERIMENTS, SuiteRunner

        outcomes = []
        with tracer.span("suite.run"):
            with SuiteRunner(store=self.store, jobs=1) as runner:
                start = time.perf_counter()
                for experiment in DEFAULT_EXPERIMENTS:
                    with tracer.span("suite.experiment", experiment=experiment):
                        result = runner.run(
                            [experiment], scale="small", datasets=datasets,
                            include_hadi=not self.quick,
                        )
                    outcomes.extend(result.outcomes)
                    lap()
                wall = time.perf_counter() - start
        return {"outcomes": outcomes, "run_wall": wall}

    def warmup(self) -> None:
        # The grid on one dataset imports what every experiment runs.
        self._grid(NULL_TRACER, _no_lap, ("livejournal-like",))

    def run_pass(self, tracer, lap) -> Dict:
        from repro.experiments.suite import deterministic_view

        out = self._grid(tracer, lap, self.datasets)
        rows = [[o.cell.cell_id, deterministic_view(o.rows)] for o in out["outcomes"]]
        out.update(
            ops=len(out["outcomes"]),
            failed=sum(o.status == "failed" for o in out["outcomes"]),
            digest=_sha256(rows),
        )
        return out

    def check(self, first: Dict) -> Tuple[int, List[str]]:
        # failed cells are already counted by run_pass
        return 0, [
            f"cell {o.cell.cell_id} failed after {o.attempts} attempt(s)"
            for o in first["outcomes"]
            if o.status == "failed"
        ]

    def layer_metrics(self, tracer, repeat, out) -> Dict[str, float]:
        outcomes = out["outcomes"]
        busy = sum(o.elapsed_s for o in outcomes)
        metrics = {
            "suite.cell_busy_s": busy,
            "suite.pool_efficiency": busy / out["run_wall"],
            "suite.longest_cell_s": max(o.elapsed_s for o in outcomes),
            "suite.cells_failed": sum(o.status == "failed" for o in outcomes),
            "suite.attempts": sum(o.attempts for o in outcomes),
        }
        for outcome in outcomes:
            key = f"suite.exp.{outcome.cell.experiment}_s"
            metrics[key] = metrics.get(key, 0.0) + outcome.elapsed_s
        return metrics


WORKLOADS = {cls.name: cls for cls in (RmatSocial, RoadLong, ServeRoad, SuiteSmall)}


# ---------------------------------------------------------------------- #
# Measurement
# ---------------------------------------------------------------------- #
def _generic_layer_metrics(tracer: Tracer, repeat: int, stats: Dict[str, int]) -> Dict[str, float]:
    """Quotient and kernel metrics, from the spans every workload may open."""
    apsp = tracer.named("quotient.apsp", repeat)
    built = [s for s in tracer.named("quotient.build", repeat) if s["attrs"]["weighted"]]
    delta = tracer.named("kernels.delta_stepping", repeat)
    msbfs = tracer.named("kernels.msbfs_levels", repeat)
    return {
        "quotient.build_unweighted_s": tracer.total("quotient.build", repeat, weighted=False),
        "quotient.build_weighted_s": tracer.total("quotient.build", repeat, weighted=True),
        "quotient.diameter_unweighted_s": tracer.total("quotient.diameter", repeat, weighted=False),
        "quotient.diameter_weighted_s": tracer.total("quotient.diameter", repeat, weighted=True),
        "quotient.nodes": sum(s["attrs"]["nodes"] for s in built),
        "quotient.edges": sum(s["attrs"]["edges"] for s in built),
        "quotient.apsp_calls": len(apsp),
        # computed, not measured: the float64 k×k matrix each call allocates
        "quotient.apsp_matrix_bytes": sum(8 * s["attrs"]["nodes"] ** 2 for s in apsp),
        "kernels.delta_stepping.calls": len(delta),
        "kernels.delta_stepping.s": sum(tracer.seconds(s) for s in delta),
        "kernels.msbfs.calls": len(msbfs),
        "kernels.msbfs.s": sum(tracer.seconds(s) for s in msbfs),
        "kernels.msbfs_sweeps": stats.get("msbfs_sweeps", 0),
        "kernels.msbfs_edges_scanned": stats.get("msbfs_edges_scanned", 0),
        "kernels.push_levels": stats.get("push_levels", 0),
        "kernels.pull_levels": stats.get("pull_levels", 0),
        "kernels.edges_scanned": stats.get("edges_scanned", 0),
    }


def _coverage(tracer: Tracer) -> float:
    """Share of the operation spans' time covered by their child spans."""
    covered = total = 0.0
    for root in tracer.named("repeat"):
        for op in tracer.children(root):
            total += tracer.seconds(op)
            covered += sum(tracer.seconds(child) for child in tracer.children(op))
    return covered / total if total else 0.0


@contextlib.contextmanager
def _kernel_counters(enabled: bool, into: Dict[str, int]):
    if not enabled:
        yield
        return
    kernels.enable_kernel_stats(True)
    try:
        yield
    finally:
        into.update(kernels.kernel_stats_snapshot())
        kernels.enable_kernel_stats(False)


def measure(workload: Workload, *, seconds: float, repeats: int, trace: bool) -> Dict:
    """Set up, warm up, run passes for ``seconds``, check; return the record.

    In a traced run every second pass is traced (the others measure the
    same code untraced in the same process), which gives the overhead of
    tracing; per-layer metrics are medians over the traced passes.
    """
    # At least three set-ups, and more (up to 30) while they add up to less
    # than a second, so a millisecond set-up still has a steady median.
    budget = 0.0 if workload.quick else 1.0
    speed = Speed()
    setups: List[float] = []
    while len(setups) < 3 or (sum(setups) < budget and len(setups) < 30):
        workload.setup(len(setups))
        setups.append(speed.lap())
    workload.warmup()

    tracer = Tracer(workload.name) if trace else None
    passes: List[Dict] = []
    failed, errors = 0, []
    minimum = max(repeats, 2 if trace else 1)
    started = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        active = tracer if traced else NULL_TRACER
        if traced:
            tracer.repeat = len(passes)
        counters: Dict[str, int] = {}
        laps: List[float] = []

        def lap() -> float:
            laps.append(speed.lap())
            return laps[-1]

        patched = instrument(tracer) if traced and workload.instrumented else contextlib.nullcontext()
        with patched, _kernel_counters(traced and workload.instrumented, counters):
            start = time.perf_counter()
            speed.skip()
            with active.span("repeat"):
                out = workload.run_pass(active, lap)
            lap()
            wall = time.perf_counter() - start
        run = sum(laps)
        summary = {
            "wall": wall,
            "run": run,
            "traced": traced,
            "ops": out["ops"],
            "failed": out["failed"],
            "digest": out["digest"],
            "rates": out.get("rates", [out["ops"] / run]),
        }
        if traced:
            summary["layer"] = {
                **_generic_layer_metrics(tracer, tracer.repeat, counters),
                **workload.layer_metrics(tracer, tracer.repeat, out),
            }
        if not passes:
            failed, errors = workload.check(out)
        passes.append(summary)
        # A pass's outputs die before the next pass starts, so the peak RSS
        # is one pass's, whatever the number of passes.
        del out
        walls = [p["wall"] for p in passes]
        if len(passes) >= minimum and time.perf_counter() - started + _median(walls) > seconds:
            break

    failed += sum(p["failed"] for p in passes)
    for index, summary in enumerate(passes):
        if summary["digest"] != passes[0]["digest"]:
            errors.append(f"pass {index} output digest differs from pass 0")
            failed += summary["ops"]
    if errors and not failed:
        failed = 1
    workload.close()

    untraced = [p for p in passes if not p["traced"]]
    traced_passes = [p for p in passes if p["traced"]]
    record = {
        "workload": workload.name,
        "seed": workload.seed,
        "quick": workload.quick,
        "attempted": sum(p["ops"] for p in passes),
        "failed": failed,
        "errors": errors,
        "digest": passes[0]["digest"],
        "passes": [[round(p["run"], 6), p["traced"]] for p in passes],
        "speed": speed.factor(),
        "e2e": {
            "setup_s": _median(setups),
            "run_s": _median([p["run"] for p in untraced]),
            "ops_per_s": _median([rate for p in untraced for rate in p["rates"]]),
        },
        "layer": None,
    }
    if trace:
        layer = {
            name: _median([p["layer"].get(name, 0.0) for p in traced_passes])
            for name in sorted({key for p in traced_passes for key in p["layer"]})
        }
        layer.update({key: _median(values) for key, values in workload.setup_layer.items()})
        layer["trace.coverage"] = _coverage(tracer)
        layer["trace.overhead_pct"] = 100.0 * (
            _median([p["run"] for p in traced_passes]) / _median([p["run"] for p in untraced]) - 1.0
        )
        layer["machine.speed"] = speed.factor()
        record["layer"] = layer
        record["tracer"] = tracer
    return record


def _pinned_digest(name: str, quick: bool) -> Optional[str]:
    try:
        pinned = json.loads(DIGESTS_JSON.read_text())
    except (OSError, ValueError):
        return None
    return pinned.get(name, {}).get("quick" if quick else "full")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e.workloads")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--repeats", type=int, default=1)
    parser.add_argument("--trace", type=Path, help="trace, writing the spans into this directory")
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)

    declared = spec.load()
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-"))
    workload = WORKLOADS[args.workload](args.seed, args.quick, workdir)
    try:
        record = measure(
            workload, seconds=args.seconds, repeats=args.repeats, trace=args.trace is not None
        )
    except Exception:
        traceback.print_exc()
        return 1
    record["e2e"]["peak_rss_mb"] = process_peak_rss() / 1e6
    tracer = record.pop("tracer", None)
    if tracer is not None:
        stem = f"{args.workload}-seed{args.seed}{'-quick' if args.quick else ''}"
        record["trace_files"] = [str(p) for p in tracer.write(args.trace, stem)]

    pinned = (
        _pinned_digest(args.workload, args.quick)
        if args.seed == PINNED_SEED or not workload.uses_seed
        else None
    )
    if pinned is not None and pinned != record["digest"]:
        record["errors"].append(f"output digest {record['digest']} != pinned {pinned}")
        record["failed"] = max(record["failed"], 1)
    record["digest_pinned"] = pinned is not None

    # Every declared metric is reported; a layer this workload does not
    # exercise reads 0.  A measured name BENCHMARK.json lacks is a bug.
    for group, key in (("end_to_end", "e2e"), ("per_layer", "layer")):
        if record[key] is None:
            continue
        names = spec.units(declared, group)
        undeclared = sorted(set(record[key]) - set(names))
        if undeclared:
            raise SystemExit(f"{args.workload}: {undeclared} are not declared in BENCHMARK.json {group}")
        record[key] = {name: float(record[key].get(name, 0.0)) for name in names}
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
