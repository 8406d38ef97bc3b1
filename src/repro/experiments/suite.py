"""Declarative experiment suite: cells, registry, and the parallel runner.

The paper's evaluation (Sections 6–7) is a grid of *(experiment × dataset ×
params)* measurements.  This module makes that grid explicit:

* :class:`ExperimentCell` — one independent unit of work (e.g. "Table 2 on
  ``mesh``"), content-hashed from its spec plus the full
  :class:`~repro.experiments.config.ExperimentConfig` so any change to the
  harness configuration invalidates exactly the affected artifacts.
* ``EXPERIMENTS`` — the registry mapping experiment names to
  :class:`ExperimentDef` entries: a cell *builder* (which cells exist for a
  request) and a cell *runner* (module-level and picklable, so cells can be
  shipped to worker processes).
* :class:`SuiteRunner` — executes any selection of cells either serially (the
  bit-compatibility reference) or in parallel on a
  :class:`~repro.mapreduce.pool.SupervisedPool` (forked lazily on first use,
  reused across runs, released by ``close()`` / the context manager).  Both
  modes run the same cell task, retry loop included.  Cells derive every
  random stream from their own spec
  (:func:`~repro.experiments.config.dataset_rng`), so parallel execution is
  bit-identical to serial — the pool returns results in task order and no
  state is shared between cells.

With an :class:`~repro.experiments.store.ArtifactStore` attached, every
computed cell is persisted as machine-readable JSON and a run manifest is
written; ``resume=True`` serves unchanged cells from the store and recomputes
only edited/new ones (a changed config, scale, or cell spec changes the
content key).  Every row returned by the suite is JSON-normalized, so cached
and freshly computed results compare equal.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import signal
import threading
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import faults
from repro.experiments import (
    ablations,
    figure1,
    pipeline_stages,
    scale as scale_tier,
    table1,
    table2,
    table3,
    table4,
)
from repro.experiments.config import DEFAULT_CONFIG, ExperimentConfig
from repro.experiments.datasets import DATASETS, dataset_cache, dataset_names, load_dataset
from repro.experiments.store import ArtifactStore, to_jsonable
from repro.mapreduce.pool import SupervisedPool, WorkerLostError, fork_available
from repro.utils.logging import get_logger

_LOG = get_logger("experiments.suite")

__all__ = [
    "ExperimentCell",
    "ExperimentDef",
    "SuiteRequest",
    "SuiteRunner",
    "SuiteResult",
    "CellOutcome",
    "EXPERIMENTS",
    "DEFAULT_EXPERIMENTS",
    "CellTimeoutError",
    "build_cells",
    "run_cell",
    "deterministic_view",
    "MEASURED_COLUMNS",
    "SUITE_SCHEMA",
]

SUITE_SCHEMA = 1

# Row keys starting with this prefix are wall-clock measurements (pipeline
# stage timings).  Everything else in a row is seed-deterministic and covered
# by the serial/parallel/resume bit-identity guarantee; wall-clock columns are
# reported as measured and excluded from that guarantee.
WALL_CLOCK_PREFIX = "t_"

# Exact-name measured columns (in addition to the ``t_`` prefix): values that
# depend on the executing process or the state of caches rather than on the
# cell spec, e.g. the scale tier's peak-RSS readings.
MEASURED_COLUMNS = frozenset({"peak_rss_bytes", "reused_snapshot"})


def deterministic_view(rows: Sequence[Dict]) -> List[Dict]:
    """Rows with measured (wall-clock / memory / cache-state) columns removed.

    This is the projection the cross-mode equivalence tests compare: every
    remaining column is a pure function of the cell spec and config, so
    serial, parallel, and resumed runs must agree on it bit-for-bit.
    """
    return [
        {
            key: value
            for key, value in row.items()
            if not key.startswith(WALL_CLOCK_PREFIX) and key not in MEASURED_COLUMNS
        }
        for row in rows
    ]


# ---------------------------------------------------------------------- #
# Cells
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class ExperimentCell:
    """One independent unit of the evaluation grid.

    ``params`` is a tuple of ``(key, value)`` pairs for axes beyond the
    dataset (e.g. the ablation part, or whether Table 4 includes HADI); it
    must be JSON-representable so the cell can be hashed and persisted.
    """

    experiment: str
    dataset: Optional[str] = None
    params: Tuple[Tuple[str, object], ...] = ()

    @property
    def cell_id(self) -> str:
        parts = [self.experiment]
        if self.dataset is not None:
            parts.append(self.dataset)
        parts.extend(f"{key}={value}" for key, value in self.params)
        return "/".join(parts)

    def param(self, key: str, default=None):
        return dict(self.params).get(key, default)

    def content_key(self, scale: str, config: ExperimentConfig) -> str:
        """Content hash identifying this cell's result.

        Covers the cell spec, the dataset scale, and the *entire* experiment
        config (conservative: a knob irrelevant to this experiment still
        invalidates the artifact — correctness over cache hits) plus the
        suite schema version, bumped when result semantics change.
        """
        spec = {
            "schema": SUITE_SCHEMA,
            "experiment": self.experiment,
            "dataset": self.dataset,
            "params": [[key, value] for key, value in self.params],
            "scale": scale,
            "config": dataclasses.asdict(config),
        }
        blob = json.dumps(to_jsonable(spec), sort_keys=True)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:20]


@dataclass(frozen=True)
class SuiteRequest:
    """What to run: scale, optional dataset restriction, and the config."""

    scale: str = "default"
    datasets: Optional[Tuple[str, ...]] = None
    include_hadi: bool = True
    config: ExperimentConfig = DEFAULT_CONFIG

    def selected(self, default: Optional[Sequence[str]] = None) -> List[str]:
        """The dataset names this request selects (intersection-preserving)."""
        if self.datasets is not None:
            return list(self.datasets)
        return list(default) if default is not None else dataset_names()


@dataclass(frozen=True)
class ExperimentDef:
    """Registry entry: how an experiment decomposes into cells and runs one."""

    name: str
    title: str
    build_cells: Callable[[SuiteRequest], List[ExperimentCell]]
    run_cell: Callable[[ExperimentCell, str, ExperimentConfig], List[Dict]]


# ---------------------------------------------------------------------- #
# Cell builders
# ---------------------------------------------------------------------- #
def _per_dataset_cells(experiment: str, request: SuiteRequest, default=None, params=()):
    return [
        ExperimentCell(experiment, name, tuple(params))
        for name in request.selected(default)
    ]


def _table1_cells(request: SuiteRequest) -> List[ExperimentCell]:
    return _per_dataset_cells("table1", request)


def _table2_cells(request: SuiteRequest) -> List[ExperimentCell]:
    return _per_dataset_cells("table2", request)


def _table3_cells(request: SuiteRequest) -> List[ExperimentCell]:
    return _per_dataset_cells("table3", request)


def _table4_cells(request: SuiteRequest) -> List[ExperimentCell]:
    return _per_dataset_cells(
        "table4", request, params=(("hadi", bool(request.include_hadi)),)
    )


def _figure1_cells(request: SuiteRequest) -> List[ExperimentCell]:
    return _per_dataset_cells("figure1", request, default=figure1.DEFAULT_DATASETS)


def _pipeline_cells(request: SuiteRequest) -> List[ExperimentCell]:
    return _per_dataset_cells("pipeline", request)


def _ablations_cells(request: SuiteRequest) -> List[ExperimentCell]:
    """Ablations decompose into their parts: A1, A2, A3, E6, then A4."""
    cells: List[ExperimentCell] = []

    def part(name: str) -> Tuple[Tuple[str, str], ...]:
        return (("part", name),)

    for name in request.selected():
        cells.append(ExperimentCell("ablations", name, part("batch_policy")))
    if request.datasets is None or "mesh" in request.datasets:
        cells.append(ExperimentCell("ablations", "mesh", part("tau_sweep")))
    for name in request.selected(ablations.CLUSTER2_DATASETS):
        cells.append(ExperimentCell("ablations", name, part("cluster2")))
    cells.append(ExperimentCell("ablations", None, part("expander_path")))
    for name in request.selected(ablations.KCENTER_DATASETS):
        cells.append(ExperimentCell("ablations", name, part("kcenter")))
    return cells


def _scale_cells(request: SuiteRequest) -> List[ExperimentCell]:
    """One cell per R-MAT scale point of the requested tier.

    Scale cells carry their graph in ``params`` (not ``dataset``): the graphs
    come from :data:`~repro.experiments.scale.SCALE_GRAPHS`, not the benchmark
    registry, so dataset restriction and the parent's dataset loads don't apply.
    """
    return [
        ExperimentCell("scale", None, (("graph", name),))
        for name in scale_tier.scale_graph_names(request.scale)
    ]


# ---------------------------------------------------------------------- #
# Cell runners (module-level, picklable; each returns a list of row dicts)
# ---------------------------------------------------------------------- #
def _run_table1_cell(cell, scale, config):
    return [table1.table1_row(cell.dataset, scale=scale, config=config)]


def _run_table2_cell(cell, scale, config):
    return [table2.table2_row(cell.dataset, scale=scale, config=config)]


def _run_table3_cell(cell, scale, config):
    return [table3.table3_row(cell.dataset, scale=scale, config=config)]


def _run_table4_cell(cell, scale, config):
    include_hadi = bool(cell.param("hadi", True))
    return [
        table4.table4_row(cell.dataset, scale=scale, config=config, include_hadi=include_hadi)
    ]


def _run_figure1_cell(cell, scale, config):
    return figure1.figure1_rows(cell.dataset, scale=scale, config=config)


def _run_pipeline_cell(cell, scale, config):
    return [pipeline_stages.pipeline_row(cell.dataset, scale=scale, config=config)]


def _run_ablations_cell(cell, scale, config):
    part = cell.param("part")
    if part == "batch_policy":
        return [ablations.batch_policy_row(cell.dataset, scale=scale, config=config)]
    if part == "tau_sweep":
        return ablations.run_tau_sweep(dataset=cell.dataset, scale=scale, config=config)
    if part == "cluster2":
        return [ablations.cluster_vs_cluster2_row(cell.dataset, scale=scale, config=config)]
    if part == "expander_path":
        return [ablations.run_expander_path_example(config=config)]
    if part == "kcenter":
        return ablations.kcenter_rows(cell.dataset, scale=scale, config=config)
    raise KeyError(f"unknown ablation part {part!r}")


def _run_scale_cell(cell, scale, config):
    return [scale_tier.scale_row(cell.param("graph"), scale=scale, config=config)]


EXPERIMENTS: Dict[str, ExperimentDef] = {
    definition.name: definition
    for definition in (
        ExperimentDef(
            "table1",
            "Table 1 — benchmark graph characteristics (stand-ins; paper_* columns: original)",
            _table1_cells,
            _run_table1_cell,
        ),
        ExperimentDef(
            "table2",
            "Table 2 — CLUSTER vs MPX decomposition quality",
            _table2_cells,
            _run_table2_cell,
        ),
        ExperimentDef(
            "table3",
            "Table 3 — diameter approximation quality (coarser / finer clustering)",
            _table3_cells,
            _run_table3_cell,
        ),
        ExperimentDef(
            "table4",
            "Table 4 — diameter estimation cost: CLUSTER vs BFS vs HADI (MR accounting)",
            _table4_cells,
            _run_table4_cell,
        ),
        ExperimentDef(
            "figure1",
            "Figure 1 — cost vs tail length (CLUSTER flat, BFS linear)",
            _figure1_cells,
            _run_figure1_cell,
        ),
        ExperimentDef(
            "pipeline",
            "Pipeline — decompose → quotient → diameter bounds, per-stage timings + MR cost",
            _pipeline_cells,
            _run_pipeline_cell,
        ),
        ExperimentDef(
            "ablations",
            "Ablations — batch policy, tau sweep, CLUSTER2, expander+path, k-center",
            _ablations_cells,
            _run_ablations_cell,
        ),
        ExperimentDef(
            "scale",
            "Scale — out-of-core pipeline on streamed R-MAT snapshots (time + peak RSS)",
            _scale_cells,
            _run_scale_cell,
        ),
    )
}

# The experiments a plain ``run()`` / ``--experiment all`` executes.  The
# ``scale`` tier is deliberately opt-in: its default cell streams a >=10M-edge
# R-MAT graph to disk, which would dominate every routine suite invocation.
DEFAULT_EXPERIMENTS: Tuple[str, ...] = tuple(
    name for name in EXPERIMENTS if name != "scale"
)


def build_cells(
    experiments: Sequence[str], request: SuiteRequest
) -> List[ExperimentCell]:
    """All cells of the named experiments, in deterministic suite order."""
    cells: List[ExperimentCell] = []
    for name in experiments:
        if name not in EXPERIMENTS:
            raise KeyError(
                f"unknown experiment {name!r}; available: {sorted(EXPERIMENTS)}"
            )
        cells.extend(EXPERIMENTS[name].build_cells(request))
    return cells


def run_cell(
    cell: ExperimentCell,
    scale: str = "default",
    config: ExperimentConfig = DEFAULT_CONFIG,
) -> List[Dict]:
    """Execute one cell and return its JSON-normalized rows."""
    definition = EXPERIMENTS[cell.experiment]
    return to_jsonable(definition.run_cell(cell, scale, config))


def _seed_shared_datasets(shared) -> None:
    """Point this process's dataset cache at the parent's snapshot directory.

    ``shared`` is ``None`` or ``{"dataset_dir": path}`` (see
    ``SuiteRunner._share_datasets``): disk-resident datasets are opened as
    read-only mmap views, so all workers share one physical copy through the
    page cache.  A user-pinned cache directory is left alone.
    """
    if not shared:
        return
    from pathlib import Path

    cache = dataset_cache()
    target = Path(shared["dataset_dir"])
    if not cache.pinned and cache.directory != target:
        cache.set_directory(target)


class CellTimeoutError(Exception):
    """A cell ran past the suite's per-cell wall-clock budget."""


@contextmanager
def _cell_alarm(timeout: Optional[float]):
    """Raise :class:`CellTimeoutError` in the running cell after ``timeout``.

    ``SIGALRM``-based, so it interrupts a cell stuck in a pure-Python loop.
    Pool tasks run in the worker's main thread, where signal delivery works;
    anywhere else (a non-main thread, a platform without ``setitimer``) the
    budget silently degrades to unenforced rather than breaking execution.
    """
    usable = (
        timeout is not None
        and timeout > 0
        and hasattr(signal, "setitimer")
        and threading.current_thread() is threading.main_thread()
    )
    if not usable:
        yield
        return

    def _on_alarm(signum, frame):
        raise CellTimeoutError(f"cell exceeded the {timeout:g}s timeout")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, float(timeout))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _execute_cell_task(task) -> Tuple[str, object, float, int]:
    """Run one cell within its retry budget: the serial loop body and the pool task.

    ``task`` is ``(cell, scale, config, shared, timeout, retries)``.
    ``shared`` is what :func:`_seed_shared_datasets` consumes — never
    arrays: a parallel run's workers inherit memory-only datasets through
    fork, and disk-resident ones come from the directory.  Every attempt runs
    under the ``timeout`` alarm, and a failing attempt is retried up to
    ``retries`` times.  Returns ``("ok", rows, elapsed, attempts)`` or
    ``("failed", traceback_text, elapsed, attempts)``: a failing or timed-out
    cell becomes data instead of an exception, so one bad cell can never
    abort the surrounding suite run.
    """
    cell, scale, config, shared, timeout, retries = task
    _seed_shared_datasets(shared)
    for attempt in range(1, retries + 2):
        start = time.perf_counter()
        try:
            with _cell_alarm(timeout):
                faults.inject(f"suite.cell:{cell.cell_id}")
                start = time.perf_counter()
                rows = run_cell(cell, scale, config)
            return ("ok", rows, time.perf_counter() - start, attempt)
        except Exception:
            error = traceback.format_exc(limit=20)
            _LOG.warning("cell %s attempt %d/%d failed", cell.cell_id, attempt, retries + 1)
    return ("failed", error, time.perf_counter() - start, retries + 1)


# ---------------------------------------------------------------------- #
# Runner
# ---------------------------------------------------------------------- #
@dataclass
class CellOutcome:
    """One cell's result within a suite run.

    ``status`` is ``"computed"``, ``"cached"``, or ``"failed"`` —
    quarantined after exhausting the runner's per-cell retry budget, with
    the last traceback in ``error`` and the attempt count in ``attempts``.
    Failed cells are *not* persisted to the store, so a later ``--resume``
    run re-executes exactly them.
    """

    cell: ExperimentCell
    key: str
    status: str  # "computed" | "cached" | "failed"
    rows: List[Dict]
    elapsed_s: float
    attempts: int = 1
    error: Optional[str] = None


@dataclass
class SuiteResult:
    """All cell outcomes of one :meth:`SuiteRunner.run`, plus the manifest."""

    outcomes: List[CellOutcome]
    manifest: Dict

    @property
    def computed(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.status == "computed")

    @property
    def cached(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.status == "cached")

    @property
    def failed(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.status == "failed")

    def rows_for(self, experiment: str) -> List[Dict]:
        """Concatenated rows of one experiment, in suite (cell) order."""
        rows: List[Dict] = []
        for outcome in self.outcomes:
            if outcome.cell.experiment == experiment:
                rows.extend(outcome.rows)
        return rows

    def outcomes_for(self, experiment: str) -> List[CellOutcome]:
        return [o for o in self.outcomes if o.cell.experiment == experiment]


class SuiteRunner:
    """Executes suite cells serially or over a persistent forked worker pool.

    Parameters
    ----------
    store:
        Optional :class:`~repro.experiments.store.ArtifactStore`.  When set,
        computed cells are persisted, a run manifest is written, and the
        process-wide dataset cache gains the store's ``datasets/`` disk layer
        (shared with forked workers).
    config:
        The :class:`~repro.experiments.config.ExperimentConfig` threaded into
        every cell (and into every content key).
    jobs:
        Worker processes.  ``1`` (the default) runs serially in-process — the
        bit-compatibility reference.  More than one uses :attr:`pool`, a
        lazily forked :class:`~repro.mapreduce.pool.SupervisedPool` reused
        across :meth:`run` calls until :meth:`close` (also via the context
        manager); platforms without ``fork`` degrade to serial execution
        with identical results.
        Parallel runs build or load each required dataset exactly once, in
        the parent, before the pool forks (see :meth:`_share_datasets`).
    resume:
        Serve cells whose content key already exists in the store instead of
        recomputing them.  Requires ``store``.
    cell_timeout:
        Wall-clock budget in seconds for one attempt of a cell; a cell
        running past it is interrupted (``SIGALRM``) and treated like a
        failed attempt.  ``None`` (the default) disables it.
    cell_retries:
        How many times a failing cell is re-executed before being
        quarantined as ``status="failed"`` (the run itself never aborts).
        A cell whose pool worker dies is resubmitted up to ``cell_retries +
        1`` times, so one crash never quarantines a cell, and is then
        quarantined too.
    """

    def __init__(
        self,
        *,
        store: Optional[ArtifactStore] = None,
        config: ExperimentConfig = DEFAULT_CONFIG,
        jobs: int = 1,
        resume: bool = False,
        cell_timeout: Optional[float] = None,
        cell_retries: int = 1,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if resume and store is None:
            raise ValueError("resume=True requires an artifact store")
        if cell_retries < 0:
            raise ValueError(f"cell_retries must be >= 0, got {cell_retries}")
        if cell_timeout is not None and not cell_timeout > 0:
            raise ValueError(
                f"cell_timeout must be a positive number of seconds or None, got {cell_timeout}"
            )
        self.store = store
        self.config = config
        self.jobs = int(jobs)
        self.resume = bool(resume)
        self.cell_timeout = cell_timeout
        self.cell_retries = int(cell_retries)
        # The cell task catches its own failures, so the pool charges a cell
        # only for a lost worker; one extra resubmission means a single
        # crash never quarantines a cell, whatever cell_retries is.
        self.pool = SupervisedPool(self.jobs, retries=self.cell_retries + 1)
        self._fork_available = fork_available()
        # (name, scale) keys the parent had loaded when the pool forked.
        self._inherited: frozenset = frozenset()

    def _share_datasets(self, cells, scale: str):
        """Load every dataset the cells need in the parent, once each.

        Two regimes, picked per run:

        * **Disk-resident** (the dataset cache has a snapshot directory,
          e.g. because this runner attached the store's ``datasets/``): the
          parent builds/persists each graph once; workers then open the same
          snapshot as read-only ``np.memmap`` views, so all processes share
          one physical copy through the OS page cache.  Tasks carry the
          directory.
        * **Memory-only cache**: workers forked after the loads inherit the
          graphs through fork.  A pool forked before the parent loaded one
          of them is closed, so it forks again with the graph resident
          instead of leaving its workers to rebuild it.
        """
        needed = {}
        for cell in cells:
            if cell.dataset in DATASETS:
                needed[(cell.dataset, scale)] = None
        for name, cell_scale in needed:
            load_dataset(name, cell_scale)
        cache = dataset_cache()
        if cache.directory is not None:
            return {"dataset_dir": str(cache.directory)}
        if self.pool.pids and not needed.keys() <= self._inherited:
            self.pool.close()
        if not self.pool.pids:
            self._inherited = frozenset(needed)
        return None

    def close(self) -> None:
        """Shut down the worker pool; it is forked again lazily if needed."""
        self.pool.close()

    def __enter__(self) -> "SuiteRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    def run(
        self,
        experiments: Optional[Sequence[str]] = None,
        *,
        scale: str = "default",
        datasets: Optional[Sequence[str]] = None,
        include_hadi: bool = True,
    ) -> SuiteResult:
        """Execute the selected experiments' cells; returns all outcomes.

        Raises ``KeyError`` for unknown experiment or dataset names.  The
        outcome order (and therefore row order) is the deterministic suite
        order, independent of ``jobs`` and of which cells were cached.
        """
        names = list(experiments) if experiments is not None else list(DEFAULT_EXPERIMENTS)
        if datasets is not None:
            for dataset in datasets:
                if dataset not in DATASETS:
                    raise KeyError(
                        f"unknown dataset {dataset!r}; available: {sorted(DATASETS)}"
                    )
        request = SuiteRequest(
            scale=scale,
            datasets=tuple(datasets) if datasets is not None else None,
            include_hadi=include_hadi,
            config=self.config,
        )
        cells = build_cells(names, request)

        # Share built graphs across runs and workers through the store. The
        # disk layer must be attached before the pool forks so workers
        # inherit it; a cache the user pinned to an explicit directory
        # (env var / configure_dataset_cache) is left alone, but a layer a
        # previous runner attached is repointed at *this* run's store.
        cache = dataset_cache()
        if self.store is not None and not cache.pinned:
            target = self.store.datasets_dir
            if cache.directory != target:
                cache.set_directory(target)

        start = time.perf_counter()
        outcomes: List[Optional[CellOutcome]] = []
        pending: List[Tuple[int, ExperimentCell, str]] = []
        for cell in cells:
            key = cell.content_key(scale, self.config)
            cached = (
                self.store.load_cell(cell.experiment, key)
                if (self.resume and self.store is not None)
                else None
            )
            if cached is not None:
                outcomes.append(
                    CellOutcome(cell, key, "cached", cached["rows"], float(cached.get("elapsed_s", 0.0)))
                )
            else:
                outcomes.append(None)
                pending.append((len(outcomes) - 1, cell, key))

        if pending:
            parallel = self.jobs > 1 and self._fork_available and len(pending) > 1
            # A parallel run loads every needed dataset once, in the parent.
            shared = self._share_datasets([c for _, c, _ in pending], scale) if parallel else None
            tasks = [
                (cell, scale, self.config, shared, self.cell_timeout, self.cell_retries)
                for _, cell, _ in pending
            ]
            if parallel:
                results = self.pool.map(_execute_cell_task, tasks)
            else:
                results = [_execute_cell_task(task) for task in tasks]
            for (index, cell, key), result in zip(pending, results):
                if isinstance(result, WorkerLostError):
                    outcome = CellOutcome(
                        cell, key, "failed", [], 0.0, attempts=self.pool.retries + 1, error=str(result)
                    )
                else:
                    status, payload, elapsed, attempts = result
                    if status == "ok":
                        outcome = CellOutcome(cell, key, "computed", payload, elapsed, attempts)
                    else:
                        outcome = CellOutcome(
                            cell, key, "failed", [], elapsed, attempts, error=str(payload)
                        )
                outcomes[index] = outcome
                if outcome.status == "failed":
                    _LOG.warning(
                        "cell %s quarantined after %d attempt(s)",
                        cell.cell_id,
                        outcome.attempts,
                    )
                # Failed cells are never persisted: their absence from the
                # store is what makes --resume re-execute exactly them.
                if outcome.status == "computed" and self.store is not None:
                    self.store.save_cell(
                        cell.experiment,
                        key,
                        {
                            "cell_id": cell.cell_id,
                            "experiment": cell.experiment,
                            "dataset": cell.dataset,
                            "params": [[k, v] for k, v in cell.params],
                            "scale": scale,
                            "elapsed_s": round(outcome.elapsed_s, 4),
                            "rows": outcome.rows,
                        },
                    )

        final: List[CellOutcome] = [outcome for outcome in outcomes if outcome is not None]
        manifest = self._manifest(final, request, names, time.perf_counter() - start)
        if self.store is not None:
            self.store.write_manifest(manifest)
        return SuiteResult(final, manifest)

    # ------------------------------------------------------------------ #
    def _manifest(
        self,
        outcomes: List[CellOutcome],
        request: SuiteRequest,
        experiments: List[str],
        total_elapsed: float,
    ) -> Dict:
        return {
            "schema": SUITE_SCHEMA,
            "created_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "scale": request.scale,
            "datasets": list(request.datasets) if request.datasets is not None else None,
            "include_hadi": request.include_hadi,
            "experiments": list(experiments),
            "jobs": self.jobs,
            "resume": self.resume,
            "config": dataclasses.asdict(self.config),
            "computed": sum(1 for o in outcomes if o.status == "computed"),
            "cached": sum(1 for o in outcomes if o.status == "cached"),
            "failed": sum(1 for o in outcomes if o.status == "failed"),
            "cell_timeout": self.cell_timeout,
            "cell_retries": self.cell_retries,
            "total_elapsed_s": round(total_elapsed, 3),
            "cells": [
                {
                    "cell_id": outcome.cell.cell_id,
                    "experiment": outcome.cell.experiment,
                    "dataset": outcome.cell.dataset,
                    "params": [[k, v] for k, v in outcome.cell.params],
                    "key": outcome.key,
                    "status": outcome.status,
                    "rows": len(outcome.rows),
                    "elapsed_s": round(outcome.elapsed_s, 4),
                    "attempts": outcome.attempts,
                    "error": outcome.error,
                }
                for outcome in outcomes
            ],
        }
