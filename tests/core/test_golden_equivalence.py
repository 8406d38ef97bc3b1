"""Cross-implementation equivalence: seeded outputs vs. pre-refactor goldens.

``tests/core/goldens/growth_goldens.json`` pins the exact seeded outputs
(array SHA-256 digests plus summary numbers) of every growth-loop-driven
algorithm, captured from the implementations that predate the GrowthEngine
port.  These tests re-run the algorithms and assert the outputs are still bit
identical, proving the unification is output-preserving.
``baseline_goldens.json`` does the same for the BFS and HADI baselines and
their charged MR rounds; it was recorded while their rounds still ran
through a sort-and-reduce executor, so charging them from pair counts is
pinned as output-preserving too.

Regenerate the goldens (only when an output change is intended) with::

    PYTHONPATH=src python tests/core/goldens/generate.py
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"


def _load_generator():
    spec = importlib.util.spec_from_file_location("golden_generate", GOLDEN_DIR / "generate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def goldens() -> dict:
    return json.loads((GOLDEN_DIR / "growth_goldens.json").read_text())


@pytest.fixture(scope="module")
def current() -> dict:
    return _load_generator().generate()


GRAPHS = ["mesh24", "ba600", "road18", "two-meshes"]
ALGORITHMS = [
    "cluster",
    "cluster2",
    "mpx",
    "single-batch",
    "kcenter",
    "gonzalez",
    "weighted-cluster",
    "diameter",
    "mr-diameter",
]


@pytest.mark.parametrize("graph_name", GRAPHS)
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_seeded_output_matches_golden(goldens, current, graph_name, algorithm):
    if algorithm not in goldens[graph_name]:
        pytest.skip(f"{algorithm} not recorded for {graph_name}")
    assert current[graph_name][algorithm] == goldens[graph_name][algorithm], (
        f"seeded {algorithm} output on {graph_name} diverged from the "
        "pre-refactor golden; if the change is intended, regenerate with "
        "`PYTHONPATH=src python tests/core/goldens/generate.py`"
    )


def test_goldens_cover_every_graph(goldens):
    assert sorted(goldens) == sorted(GRAPHS)
    for name in GRAPHS:
        missing = [a for a in ALGORITHMS if a not in goldens[name] and name != "two-meshes"]
        assert not missing, f"goldens for {name} lack {missing}"


BASELINE_GRAPHS = [
    "twitter-like",
    "livejournal-like",
    "roads-CA-like",
    "roads-PA-like",
    "roads-TX-like",
    "mesh",
    "isolated-5",
]


@pytest.fixture(scope="module")
def baseline_goldens() -> dict:
    return json.loads((GOLDEN_DIR / "baseline_goldens.json").read_text())


@pytest.fixture(scope="module")
def current_baselines() -> dict:
    return _load_generator().generate_baselines()


@pytest.mark.parametrize("graph_name", BASELINE_GRAPHS)
def test_baselines_match_golden(baseline_goldens, current_baselines, graph_name):
    assert current_baselines[graph_name] == baseline_goldens[graph_name], (
        f"seeded BFS / HADI output or MR counters on {graph_name} diverged from "
        "the golden; if the change is intended, regenerate with "
        "`PYTHONPATH=src python tests/core/goldens/generate.py`"
    )


def test_baseline_goldens_cover_every_graph(baseline_goldens, current_baselines):
    assert sorted(baseline_goldens) == sorted(current_baselines) == sorted(BASELINE_GRAPHS)
