"""Command-line entry point regenerating every table and figure of the paper.

A thin CLI over the declarative suite (:mod:`repro.experiments.suite`).
Usage (after installing the package)::

    python -m repro.experiments table1
    python -m repro.experiments table2 --scale small
    python -m repro.experiments table4 --no-hadi --datasets mesh roads-CA-like
    python -m repro.experiments figure1 --csv
    python -m repro.experiments suite --scale small --jobs 4 --out results
    python -m repro.experiments suite --resume --out results   # only new/changed cells
    python -m repro.experiments report --out results           # re-render, no recompute
    python -m repro.experiments serve --datasets mesh --scale small --out results
    python -m repro.experiments serve --query-log queries.log --out results
    python -m repro.experiments serve --snapshot results/snapshots/<key>.npz

The ``serve`` subcommand drives the :mod:`repro.serving` plane: it builds the
dataset's :class:`~repro.serving.GraphService` (or cold-starts it from a
content-hashed snapshot under ``--out DIR``), replays a query-log file or a
synthetic mixed workload in batches, and reports latency percentiles,
queries/sec, and the SHA-256 of every served answer (so two runs can assert
they answered identically).

Every experiment decomposes into independent cells (experiment × dataset ×
params) executed serially by default or in parallel with ``--jobs N``
(bit-identical rows either way).  With ``--out DIR`` an artifact store
persists per-cell JSON results plus a run manifest; ``--resume`` serves
unchanged cells from the store, and ``report`` regenerates the tables purely
from stored artifacts.  Cells that keep failing after their retry budget
(``--cell-retries``, optionally under a ``--cell-timeout`` wall clock) are
quarantined into the manifest instead of aborting the run; the process exits
1 so CI notices, and a later ``--resume`` re-executes exactly those cells.  Output is an aligned text table (or CSV with
``--csv``) whose columns mirror the corresponding artifact in the paper;
EXPERIMENTS.md records a captured run side by side with the published
numbers.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import Dict, List, Optional, Sequence

from repro.analysis.tables import render_csv, render_stored_tables, render_table
from repro.experiments.config import DEFAULT_CONFIG, ExperimentConfig
from repro.experiments.store import ArtifactStore
from repro.experiments.suite import DEFAULT_EXPERIMENTS, EXPERIMENTS, SuiteRunner
from repro.utils.logging import enable_verbose

__all__ = ["main", "EXPERIMENTS", "build_parser"]

_TITLES = {name: definition.title for name, definition in EXPERIMENTS.items()}


def _config_for(args) -> ExperimentConfig:
    """The harness config with the CLI's ``--method`` selection applied."""
    method = getattr(args, "method", None)
    if method is None:
        return DEFAULT_CONFIG
    return dataclasses.replace(DEFAULT_CONFIG, decomposition_method=method)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be a positive number, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the tables and figures of the SPAA 2015 paper.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["all", "suite", "report", "serve"],
        help="which artifact to regenerate ('suite' = the full grid through "
             "the cell runner; 'report' = re-render tables from a stored run; "
             "'serve' = build/load a GraphService snapshot and replay a query "
             "workload against it)",
    )
    parser.add_argument("--scale", default="default", choices=["default", "small", "xl"],
                        help="dataset scale (small = quick smoke run; xl = the "
                             "out-of-core 'scale' tier's ~1e8-edge frontier)")
    parser.add_argument("--datasets", nargs="*", default=None,
                        help="restrict to these dataset names")
    parser.add_argument("--no-hadi", action="store_true",
                        help="skip the HADI baseline in table4 (it is slow by design)")
    parser.add_argument("--method", default=None,
                        choices=["cluster", "cluster2", "mpx", "single-batch", "weighted"],
                        help="decomposition method for the pipeline experiment "
                             "(default: cluster; 'weighted' runs the §7 hop-bounded "
                             "weighted decomposition on weighted generator outputs)")
    parser.add_argument("--jobs", type=_positive_int, default=1,
                        help="execute cells over N worker processes "
                             "(default: 1 = serial; rows are bit-identical either way)")
    parser.add_argument("--out", default=None, metavar="DIR",
                        help="artifact store directory: persist per-cell JSON results, "
                             "the run manifest, and the dataset cache")
    parser.add_argument("--resume", action="store_true",
                        help="serve unchanged cells from the artifact store "
                             "(requires --out); only new/changed cells — including "
                             "previously quarantined failures — recompute")
    parser.add_argument("--cell-timeout", type=_positive_float, default=None, metavar="SECONDS",
                        help="wall-clock budget per cell attempt; a cell that "
                             "exceeds it counts as one failed attempt "
                             "(default: no timeout)")
    parser.add_argument("--cell-retries", type=_non_negative_int, default=1, metavar="N",
                        help="re-run a failing cell up to N times (and resubmit "
                             "one whose pool worker died up to N+1 times) before "
                             "quarantining it into the manifest (default: 1)")
    parser.add_argument("--csv", action="store_true", help="emit CSV instead of a text table")
    parser.add_argument("--verbose", action="store_true", help="enable progress logging")
    serve = parser.add_argument_group("serve", "options for the 'serve' subcommand")
    serve.add_argument("--snapshot", default=None, metavar="FILE",
                       help="cold-start the service directly from this oracle "
                            "snapshot file (skips the dataset build entirely; "
                            "a corrupt or truncated file exits 2)")
    serve.add_argument("--queries", type=_positive_int, default=100_000,
                       help="size of the synthetic workload when no --query-log "
                            "is given (default: 100000)")
    serve.add_argument("--batch-size", type=_positive_int, default=8192,
                       help="queries dispatched per vectorized batch (default: 8192)")
    serve.add_argument("--query-log", default=None, metavar="FILE",
                       help="replay this query-log file instead of a synthetic workload")
    serve.add_argument("--save-log", default=None, metavar="FILE",
                       help="write the replayed workload as a query-log file")
    serve.add_argument("--tau", type=_positive_int, default=None,
                       help="decomposition granularity for the service "
                            "(default: the oracle's sqrt(n)/log^2 n)")
    serve.add_argument("--oracle-seed", type=int, default=0,
                       help="decomposition seed for the service (part of the "
                            "snapshot content key; default: 0)")
    return parser


def _run_serve(args) -> int:
    """Build or cold-start a GraphService and replay a workload against it."""
    from repro.experiments.datasets import load_dataset
    from repro.serving import (
        GraphService,
        load_query_log,
        replay,
        save_query_log,
        synthetic_workload,
    )
    from repro.serving.snapshot import load_snapshot as load_oracle_snapshot
    from repro.serving.snapshot import snapshot_path

    if args.snapshot is not None:
        # Direct cold start: one file, no dataset build, no store lookup.
        # Any damage (torn write, bit flip, wrong schema) is one line + rc 2.
        try:
            service = load_oracle_snapshot(args.snapshot)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        graph = service.graph
        print(f"serve: snapshot={args.snapshot} "
              f"nodes={graph.num_nodes} edges={graph.num_edges}")
        print("snapshot: loaded directly (cold start, no decomposition)")
    else:
        name = (args.datasets or ["mesh"])[0]
        method = args.method if args.method is not None else "auto"
        try:
            graph = load_dataset(name, scale=args.scale)
        except KeyError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 2
        print(f"serve: dataset={name} scale={args.scale} "
              f"nodes={graph.num_nodes} edges={graph.num_edges}")

        try:
            if args.out is not None:
                store = ArtifactStore(args.out)
                service, loaded = GraphService.load_or_build(
                    store, graph, tau=args.tau, seed=args.oracle_seed, method=method
                )
                origin = "loaded (cold start, no decomposition)" if loaded else "built and saved"
                location = snapshot_path(store, service.snapshot_key)
                print(f"snapshot: {origin} — {location}")
            else:
                service = GraphService.build(
                    graph, tau=args.tau, seed=args.oracle_seed, method=method
                )
                print("snapshot: none (in-memory build; pass --out DIR to persist)")
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    stats = service.stats()
    print(f"service: {stats['num_clusters']} clusters, method={stats['method']}, "
          f"tau={stats['tau']}, {stats['space_entries']:,} stored entries, "
          f"key={stats['snapshot_key']}")

    if args.query_log is not None:
        try:
            log = load_query_log(args.query_log)
        except (OSError, ValueError) as exc:
            print(f"error: cannot load query log {args.query_log!r}: {exc}", file=sys.stderr)
            return 2
        print(f"workload: query log {args.query_log} ({len(log)} queries)")
    else:
        log = synthetic_workload(graph.num_nodes, args.queries, seed=args.oracle_seed)
        print(f"workload: synthetic mixed ({len(log)} queries, "
              f"seed={args.oracle_seed})")
    if args.save_log is not None:
        save_query_log(log, args.save_log)
        print(f"workload: saved to {args.save_log}")

    report = replay(service, log, batch_size=args.batch_size)
    for line in report.summary_lines():
        print(line)
    return 0


def _render(args, name: str, rows: List[Dict], summary: str) -> None:
    if args.csv:
        sys.stdout.write(render_csv(rows))
    else:
        sys.stdout.write(render_table(rows, title=_TITLES.get(name, name)))
        sys.stdout.write(summary)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.verbose:
        enable_verbose()
    if args.resume and args.out is None:
        parser.error("--resume requires --out DIR")
    if args.experiment == "serve":
        return _run_serve(args)
    if args.experiment == "report":
        if args.out is None:
            parser.error("report requires --out DIR (a stored suite run)")
        try:
            sys.stdout.write(
                render_stored_tables(ArtifactStore(args.out), csv=args.csv, titles=_TITLES)
            )
        except FileNotFoundError:
            print(f"no manifest found under {args.out!r}; run the suite first", file=sys.stderr)
            return 2
        return 0

    # 'all'/'suite' run the default grid; the out-of-core 'scale' tier streams
    # a >=10M-edge graph to disk per run, so it only executes when named.
    names = (
        sorted(DEFAULT_EXPERIMENTS)
        if args.experiment in ("all", "suite")
        else [args.experiment]
    )
    store = ArtifactStore(args.out) if args.out is not None else None
    runner = SuiteRunner(
        store=store,
        config=_config_for(args),
        jobs=args.jobs,
        resume=args.resume,
        cell_timeout=args.cell_timeout,
        cell_retries=args.cell_retries,
    )
    try:
        with runner:
            result = runner.run(
                names,
                scale=args.scale,
                datasets=args.datasets,
                include_hadi=not args.no_hadi,
            )
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    for name in names:
        outcomes = result.outcomes_for(name)
        computed = sum(1 for o in outcomes if o.status == "computed")
        failed = sum(1 for o in outcomes if o.status == "failed")
        cached = len(outcomes) - computed - failed
        elapsed = sum(o.elapsed_s for o in outcomes if o.status == "computed")
        summary = (
            f"[{name}: {len(outcomes)} cells, {computed} computed, "
            f"{cached} cached, {failed} failed, {elapsed:.1f}s]\n\n"
        )
        _render(args, name, result.rows_for(name), summary)
    if not args.csv and store is not None:
        sys.stdout.write(
            f"[suite manifest: {store.manifest_path} — "
            f"{result.computed} computed, {result.cached} cached, "
            f"{result.failed} failed]\n"
        )
    if result.failed:
        quarantined = ", ".join(o.cell.cell_id for o in result.outcomes if o.status == "failed")
        print(
            f"warning: {result.failed} cell(s) quarantined after exhausting retries "
            f"({quarantined}); re-run with --resume to retry them",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via python -m
    raise SystemExit(main())
