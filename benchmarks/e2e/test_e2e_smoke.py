"""Smoke test of the end-to-end benchmark: tiny inputs, one pass, all checks.

Runs each workload in its ``--quick`` size (pinned digests included), one
traced run, the argument errors, and the paired-comparison rule; validates
``BENCHMARK.json`` against the benchmark's schema.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from benchmarks.e2e import compare, spec  # noqa: E402

def _run(*args, cwd=ROOT, timeout=60):
    return subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    return result


def test_benchmark_json_matches_schema():
    declared = spec.load()
    assert spec.validate(declared) == []
    assert len(declared["end_to_end"]) <= 16 and len(declared["per_layer"]) <= 128
    for metric in declared["end_to_end"]:
        assert metric["unit"] and metric["better"] in ("lower", "higher")
        assert 0 < metric["bound"] <= 0.25
    for metric in declared["per_layer"]:
        layer, moves, workloads = spec.LAYER_MAP[metric["name"]]
        assert layer and workloads
        assert moves is None or moves in {m["name"] for m in declared["end_to_end"]}


def test_quick_run_reports_every_end_to_end_metric(tmp_path):
    out = tmp_path / "runs.jsonl"
    result = _result(_run("run", "--quick", "--json", str(out)))
    declared = spec.load()
    units = spec.units(declared, "end_to_end")
    expected = {f"{w}/{name}" for w in spec.ALL for name in units}
    assert set(result["metrics"]) == expected
    for key, metric in result["metrics"].items():
        assert metric["unit"] == units[key.split("/")[1]]
        assert metric["value"] > 0, key
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert [r["workload"] for r in records] == list(spec.ALL)
    assert all(r["correct"] and r["quick"] and r["trace"] == 0 for r in records)


def test_quick_traced_run_reports_every_layer_metric(tmp_path):
    proc = _run("run", "--quick", "--workload", "rmat-social", "--trace", str(tmp_path))
    result = _result(proc)
    assert set(result["metrics"]) == set(spec.units(spec.load(), "per_layer"))
    assert result["metrics"]["trace.coverage"]["value"] > 0.9
    spans = (tmp_path / "rmat-social-seed1-quick.jsonl").read_text().splitlines()
    assert {"repeat", "pipeline", "stage.decompose", "quotient.build"} <= {
        json.loads(line)["name"] for line in spans
    }
    chrome = json.loads((tmp_path / "rmat-social-seed1-quick.chrome.json").read_text())
    assert chrome["traceEvents"] and chrome["traceEvents"][0]["ph"] == "X"


def test_bad_arguments_exit_2_with_one_line():
    for args in (["--workload", "nope"], ["--seed", "-1"], ["--seed", "x"]):
        proc = _run("run", *args)
        assert proc.returncode == 2, args
        assert proc.stdout == "" and len(proc.stderr.splitlines()) == 1, proc.stderr


def test_fails_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks" / "e2e", tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("run", "--quick", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip().startswith("{")


def test_compare_rule():
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]
    assert compare.verdict(parent, [v * 0.8 for v in parent], "lower", 0.1).startswith("gain")
    assert compare.verdict(parent, [v * 1.2 for v in parent], "lower", 0.1).startswith("REGRESSION")
    assert compare.verdict(parent, parent, "lower", 0.1).startswith("same")
    noisy = [5.0, 15.0, 8.0, 12.0, 6.0, 14.0, 7.0, 13.0, 9.0, 11.0]
    assert compare.verdict(noisy, [v * 1.2 for v in noisy], "lower", 0.1).startswith("unresolved")
    assert compare.verdict(parent, [v * 1.2 for v in parent], "higher", 0.1).startswith("gain")

    clean = [{"correct": True, "attempted": 100, "failed": 0}] * 10
    assert compare.failure_verdict(clean, clean) is None
    more_failures = clean[:9] + [{"correct": True, "attempted": 100, "failed": 1}]
    assert compare.failure_verdict(clean, more_failures).startswith("REGRESSION")
    failed_check = clean[:9] + [{"correct": False, "attempted": 100, "failed": 0}]
    assert compare.failure_verdict(clean, failed_check).startswith("REGRESSION")
