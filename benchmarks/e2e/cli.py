"""Command line: ``run`` the workloads, ``compare`` two sets, write a ``baseline``.

``run`` starts :mod:`benchmarks.e2e.workloads` once per workload in a fresh
interpreter (its own session, so every process it forks can be waited for),
prints every metric by name with its unit, and ends its standard output with
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` —
the end-to-end metrics, or in a traced run (``--trace 1`` or ``--trace DIR``)
the per-layer metrics.  It exits non-zero when a check fails or a workload
process fails.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

from benchmarks.e2e import spec

OUT_DIR = spec.ROOT / ".bench_out"
#: A single-workload run must end within 180 s; leave room for set-up.
CHILD_TIMEOUT_S = 170.0


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(2)


def _bounded(cast, low, high=float("inf")):
    """An argparse type accepting ``cast(text)`` in ``[low, high)``."""

    def parse(text: str):
        try:
            value = cast(text)
        except ValueError:
            value = None
        if value is None or not low <= value < high:
            raise argparse.ArgumentTypeError(
                f"expected {cast.__name__} in [{low}, {high}), got {text!r}"
            )
        return value

    return parse


def _trace(text: str) -> Optional[Path]:
    """``--trace``: 0 is untraced; 1 or a directory is a traced run writing there."""
    if text == "0":
        return None
    return OUT_DIR / "trace" if text == "1" else Path(text).resolve()


def _parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="python -m benchmarks.e2e", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    run = commands.add_parser("run", help="run workloads and print their metrics")
    run.add_argument("--workload", action="append", choices=spec.ALL,
                     help="workload to run (repeatable; default: all four)")
    run.add_argument("--seed", type=_bounded(int, 0, 2**32), default=1, help="input seed (default 1)")
    run.add_argument("--seconds", type=_bounded(float, 0),
                     help="measure for this long per workload (default: BENCHMARK.json run_seconds)")
    run.add_argument("--repeats", type=_bounded(int, 1), metavar="R",
                     help="at least R measured passes (default 3, or 1 with --quick)")
    run.add_argument("--trace", type=_trace, default=None, metavar="0|1|DIR",
                     help="1 or DIR: trace every second pass, report per-layer metrics and "
                          "write the spans to DIR (1: .bench_out/trace)")
    run.add_argument("--json", type=Path, help="append one JSON record per workload run here")
    run.add_argument("--quick", action="store_true",
                     help="tiny inputs, one pass and no time budget (the smoke test)")
    for name, text in (("compare", "paired comparison of two --json files (A parent, B change)"),
                       ("baseline", "summarize two --json sets of the same code as JSON")):
        sub = commands.add_parser(name, help=text)
        sub.add_argument("a", type=Path)
        sub.add_argument("b", type=Path)
    return parser


def _group_alive(pgid: int) -> bool:
    """Whether a process of group ``pgid`` is still running (zombies excluded).

    Orphaned zombies wait for whichever process adopted them to reap them,
    so where ``/proc`` is readable they do not count as running.
    """
    try:
        os.killpg(pgid, 0)
    except (ProcessLookupError, PermissionError):
        return False
    try:
        pids = [entry for entry in os.listdir("/proc") if entry.isdigit()]
    except OSError:
        return True
    for pid in pids:
        try:
            stat = Path(f"/proc/{pid}/stat").read_text()
        except OSError:
            continue
        state, _, group = stat.rsplit(")", 1)[1].split()[:3]
        if int(group) == pgid and state != "Z":
            return True
    return False


def _wait_for_group(pgid: int, timeout: float = 10.0) -> None:
    """Wait until every process of the session ``pgid`` has exited."""
    deadline = time.monotonic() + timeout
    killed = False
    while _group_alive(pgid):
        if time.monotonic() > deadline:
            if killed:
                return
            os.killpg(pgid, signal.SIGKILL)
            killed, deadline = True, time.monotonic() + timeout
        time.sleep(0.05)


def _run_child(args, workload: str, scratch: Path) -> dict:
    """Measure one workload in a fresh interpreter; returns its record."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join([str(spec.ROOT / "src"), str(spec.ROOT)])
    env["TMPDIR"] = str(scratch)
    command = [
        sys.executable, "-m", "benchmarks.e2e.workloads",
        "--workload", workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--repeats", str(args.repeats),
    ] + (["--trace", str(args.trace)] if args.trace is not None else []) + (
        ["--quick"] if args.quick else []
    )
    proc = subprocess.Popen(command, cwd=spec.ROOT, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"{workload}: no result within {CHILD_TIMEOUT_S:.0f} s")
    finally:
        _wait_for_group(proc.pid)
    lines = stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload}: measuring process exited with status {proc.returncode}")
    return json.loads(lines[-1])


def _print_record(record: dict, declared: dict) -> None:
    status = "ok" if not record["errors"] else "CHECK FAILED"
    pinned = "pinned" if record["digest_pinned"] else "not pinned for this seed/size"
    walls = ", ".join(f"{w:.3f}{'T' if t else ''}" for w, t in record["passes"])
    print(f"== {record['workload']} seed={record['seed']}{' quick' if record['quick'] else ''}: "
          f"{status}; {record['attempted']} ops, {record['failed']} failed")
    print(f"   passes (s at reference speed, T = traced): {walls}")
    print(f"   machine speed {record['speed']:.3f} x reference")
    print(f"   digest {record['digest'][:16]} ({pinned})")
    for error in record["errors"]:
        print(f"   check: {error}")
    for group, key in (("end_to_end", "e2e"), ("per_layer", "layer")):
        if record.get(key) is None:
            continue
        units = spec.units(declared, group)
        for name, value in record[key].items():
            print(f"   {name:36s} {value:16.6g} {units[name]}")
    for path in record.get("trace_files", []):
        print(f"   trace: {path}")


def run(args, declared: dict) -> int:
    if not (spec.ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.stderr.write("error: src/repro not found; run from a full checkout of the repository\n")
        return 1
    if args.quick:
        args.seconds = 0.0
    elif args.seconds is None:
        args.seconds = float(declared["run_seconds"])
    if args.repeats is None:
        args.repeats = 1 if args.quick else 3
    workloads = args.workload or list(spec.ALL)
    OUT_DIR.mkdir(exist_ok=True)
    scratch = OUT_DIR / f"tmp-{os.getpid()}"
    scratch.mkdir()
    records = []
    try:
        for workload in workloads:
            record = _run_child(args, workload, scratch)
            _print_record(record, declared)
            records.append(record)
    except RuntimeError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            OUT_DIR.rmdir()  # only when no trace was written into it

    key, group = ("layer", "per_layer") if args.trace else ("e2e", "end_to_end")
    units = spec.units(declared, group)
    metrics = {}
    for record in records:
        prefix = "" if len(records) == 1 else f"{record['workload']}/"
        for name, value in record[key].items():
            metrics[prefix + name] = {"value": value, "unit": units[name]}
    correct = all(not record["errors"] for record in records)
    if args.json is not None:
        with args.json.open("a") as handle:
            for record in records:
                handle.write(json.dumps({
                    "workload": record["workload"], "seed": record["seed"],
                    "trace": int(args.trace is not None), "seconds": args.seconds,
                    "quick": record["quick"], "correct": not record["errors"],
                    "attempted": record["attempted"], "failed": record["failed"],
                    "digest": record["digest"], "metrics": record[key], "passes": record["passes"],
                }) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": sum(record["attempted"] for record in records),
        "failed": sum(record["failed"] for record in records),
        "metrics": metrics,
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        declared = spec.load()
    except spec.SpecError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    if args.command == "run":
        return run(args, declared)
    from benchmarks.e2e import compare

    if args.command == "compare":
        return compare.compare(declared, args.a, args.b)
    print(json.dumps(compare.baseline(declared, [args.a, args.b]), indent=2))
    return 0
