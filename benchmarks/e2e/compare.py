"""Paired comparison of two sets of runs, and the committed baseline summary.

``compare A B`` reads two JSONL files written by ``run --json`` (A the
parent, B the change), pairs their untraced runs per workload in file order
(run them alternately: A, B, B, A, ...), and for every end-to-end metric
applies this rule:

* **gain** — B is better in at least 9 of every 10 pairs and the medians
  differ by more than A's interquartile range;
* **regression** — B's median is worse than A's by more than the metric's
  bound; when A's own spread (IQR over median) exceeds the bound the
  metric is **unresolved** instead, unless every run of B beats every run
  of A;
* otherwise **same**.

A gain does not count when B fails more: when any run of B failed a check,
or B's failed operations are a larger share of its attempted ones than A's,
the whole workload is a **REGRESSION**.  At least 10 pairs per workload are
required, and paired runs must have measured for the same ``--seconds``.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
from pathlib import Path
from typing import Dict, List, Optional, Sequence

MIN_PAIRS = 10


def load_runs(path: Path) -> Dict[str, List[dict]]:
    """Untraced full-size run records of a ``--json`` file, grouped by workload."""
    runs: Dict[str, List[dict]] = {}
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        if record["trace"] == 0 and not record["quick"]:
            runs.setdefault(record["workload"], []).append(record)
    return runs


def quartiles(values: Sequence[float]):
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        value = float(values[0])
        return value, value, value
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(a: Sequence[float], b: Sequence[float], better: str, bound: float) -> str:
    """The rule above for one (metric, workload): gain / same / REGRESSION / unresolved."""
    sign = 1.0 if better == "higher" else -1.0
    q1, med_a, q3 = quartiles(a)
    med_b = quartiles(b)[1]
    wins = sum(sign * (y - x) > 0 for x, y in zip(a, b))
    change = sign * (med_b - med_a) / med_a if med_a else 0.0
    if wins >= 0.9 * len(a) and sign * (med_b - med_a) > q3 - q1:
        return f"gain {change:+.1%}"
    spread = (q3 - q1) / med_a if med_a else 0.0
    all_better = min(sign * y for y in b) > max(sign * x for x in a)
    if spread > bound and not all_better:
        return f"unresolved {change:+.1%} (spread {spread:.1%} > bound {bound:.0%})"
    if change < -bound:
        return f"REGRESSION {change:+.1%} (bound {bound:.0%})"
    return f"same {change:+.1%}"


def failure_verdict(a: Sequence[dict], b: Sequence[dict]) -> Optional[str]:
    """A REGRESSION row when the runs ``b`` fail more than the runs ``a``, else None."""

    def ratio(runs):
        return sum(r["failed"] for r in runs) / max(1, sum(r["attempted"] for r in runs))

    bad = sum(not run["correct"] for run in b)
    if bad or ratio(b) > ratio(a):
        return (
            f"REGRESSION: {bad} run(s) failed a check; "
            f"failed/attempted {ratio(b):.3g} vs parent {ratio(a):.3g}"
        )
    return None


def compare(spec: dict, path_a: Path, path_b: Path) -> int:
    """Print one row per workload; exit status 1 on any regression or unequal run length."""
    runs_a, runs_b = load_runs(path_a), load_runs(path_b)
    regressed = False
    for workload in [w["name"] for w in spec["workloads"]]:
        pairs = list(zip(runs_a.get(workload, []), runs_b.get(workload, [])))
        if len(pairs) < MIN_PAIRS:
            print(f"{workload:12s} needs >= {MIN_PAIRS} pairs, has {len(pairs)}")
            continue
        if any(x["seconds"] != y["seconds"] for x, y in pairs):
            print(f"{workload:12s} paired runs measured for different --seconds")
            regressed = True
            continue
        failed = failure_verdict([x for x, _ in pairs], [y for _, y in pairs])
        if failed:
            print(f"{workload:12s} ({len(pairs)} pairs)  {failed}")
            regressed = True
            continue
        cells = []
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = [x["metrics"][name] for x, _ in pairs]
            b = [y["metrics"][name] for _, y in pairs]
            result = verdict(a, b, metric["better"], metric["bound"])
            regressed |= result.startswith("REGRESSION")
            cells.append(f"{name}: {result}")
        print(f"{workload:12s} ({len(pairs)} pairs)  " + " | ".join(cells))
    return 1 if regressed else 0


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def baseline(spec: dict, paths: Sequence[Path]) -> dict:
    """Medians and quartiles of two sets of runs, and how far the sets agree."""
    sets = []
    for path in paths:
        runs = load_runs(path)
        workloads = {}
        for workload, records in runs.items():
            metrics = {}
            for metric in spec["end_to_end"]:
                values = [r["metrics"][metric["name"]] for r in records]
                q1, median, q3 = quartiles(values)
                metrics[metric["name"]] = {
                    "median": median,
                    "q1": q1,
                    "q3": q3,
                    "spread": (q3 - q1) / median if median else 0.0,
                }
            workloads[workload] = {
                "runs": len(records),
                "seeds": [r["seed"] for r in records],
                "metrics": metrics,
            }
        sets.append({"file": Path(path).name, "workloads": workloads})
    drift = {}
    first_set, second_set = sets[0]["workloads"], sets[1]["workloads"]
    for workload in sorted(first_set.keys() & second_set.keys()):
        drift[workload] = {}
        for metric in spec["end_to_end"]:
            name, sign = metric["name"], (1.0 if metric["better"] == "lower" else -1.0)
            first = first_set[workload]["metrics"][name]["median"]
            second = second_set[workload]["metrics"][name]["median"]
            drift[workload][name] = sign * (second - first) / first if first else 0.0
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "run_seconds": spec["run_seconds"],
        "sets": sets,
        "second_set_worse_by": drift,
    }
