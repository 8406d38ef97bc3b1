"""The served bytes: pinned replay checksums and ``answer`` against the frozen loop.

``goldens/replay_checksums.json`` holds the SHA-256 of both oracle matrices
and the replay checksums of a hop mesh service (k = 89), a weighted service
with non-integer weights and ``w_min ≠ 1``, and a disconnected graph whose
matrices hold ``inf``.  They were recorded while replay still answered one
kind at a time (``replay_reference.py``), so answering a mixed batch in one
:meth:`~repro.serving.GraphService.answer` call is pinned as
output-preserving.  Regenerate (only when an output change is intended)
with::

    PYTHONPATH=src python tests/serving/goldens/generate.py
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving import QUERY_KINDS, replay
from replay_reference import reference_answers, reference_checksum  # rootless test layout: pytest puts this dir on sys.path

GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"
SERVICES = ("mesh30-hop", "road20-weighted", "two-meshes")


def _load_generator():
    spec = importlib.util.spec_from_file_location("serving_golden_generate", GOLDEN_DIR / "generate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


GENERATOR = _load_generator()


@pytest.fixture(scope="module")
def goldens() -> dict:
    return json.loads((GOLDEN_DIR / "replay_checksums.json").read_text())


@pytest.fixture(scope="module")
def services() -> dict:
    return GENERATOR.build_services()


def test_goldens_cover_every_service(goldens):
    assert sorted(goldens) == sorted(SERVICES)


@pytest.mark.parametrize("name", SERVICES)
def test_oracle_matrices_match_golden(goldens, services, name):
    service = services[name]
    assert service.num_clusters == goldens[name]["num_clusters"]
    assert GENERATOR.matrix_digest(service.oracle.upper_matrix) == goldens[name]["upper_matrix"]
    assert GENERATOR.matrix_digest(service.oracle.lower_matrix) == goldens[name]["lower_matrix"]


def test_services_cover_weighted_and_disconnected(services):
    weighted = services["road20-weighted"]
    assert weighted.is_weighted and weighted.oracle.same_cluster_lower != 1.0
    assert np.any(weighted.graph.weights != np.round(weighted.graph.weights))
    assert services["mesh30-hop"].num_clusters >= 50
    assert np.isinf(services["two-meshes"].oracle.upper_matrix).any()


@pytest.mark.parametrize("batch_size", GENERATOR.BATCH_SIZES)
@pytest.mark.parametrize("log_name", ["synthetic", "handmade"])
@pytest.mark.parametrize("name", SERVICES)
def test_replay_checksum_matches_golden(goldens, services, name, log_name, batch_size):
    service = services[name]
    log = GENERATOR.build_logs(service)[log_name]
    expected = goldens[name]["replay"][log_name][f"batch={batch_size}"]
    assert replay(service, log, batch_size=batch_size).checksum == expected, (
        f"replay of the {log_name} log on {name} diverged from the golden; if the "
        "change is intended, regenerate with `PYTHONPATH=src python tests/serving/goldens/generate.py`"
    )


@pytest.mark.parametrize("log_name", ["synthetic", "handmade"])
@pytest.mark.parametrize("name", SERVICES)
def test_reference_reproduces_golden(goldens, services, name, log_name):
    service = services[name]
    log = GENERATOR.build_logs(service)[log_name]
    assert reference_checksum(service, log) == goldens[name]["replay"][log_name]["batch=8192"]


def test_handmade_log_covers_edge_cases(services):
    for service in services.values():
        log = GENERATOR.handmade_log(service)
        pair = log.kinds < 2
        assert np.any(pair & (log.us == log.vs))
        same = pair & (service.assignment[log.us] == service.assignment[np.where(pair, log.vs, 0)])
        assert np.any(same & (log.us != log.vs))
        assert np.isin(log.us, service.centers).any()
        assert set(np.unique(log.kinds)) == set(range(len(QUERY_KINDS)))


@st.composite
def mixed_batches(draw):
    """A service name and a mixed batch over its nodes, rich in ``u == v``
    and same-cluster pairs."""
    name = draw(st.sampled_from(SERVICES))
    size = draw(st.integers(0, 200))
    seed = draw(st.integers(0, 2**32 - 1))
    dtype = draw(st.sampled_from([np.int8, np.int64]))
    return name, size, seed, dtype


@given(case=mixed_batches())
@settings(max_examples=120, deadline=None)
def test_answer_matches_frozen_loop_bitwise(services, case):
    name, size, seed, dtype = case
    service = services[name]
    n = service.num_nodes
    rng = np.random.default_rng(seed)
    kinds = rng.integers(0, len(QUERY_KINDS), size=size).astype(dtype)
    us = rng.integers(0, n, size=size)
    # Endpoint v: uniform, u itself, or a node of u's cluster.
    members = np.argsort(service.assignment, kind="stable")
    starts = np.searchsorted(service.assignment[members], service.assignment[us])
    same_cluster = members[np.minimum(starts + rng.integers(0, 3, size=size), n - 1)]
    choice = rng.integers(0, 3, size=size)
    vs = np.where(choice == 0, rng.integers(0, n, size=size), np.where(choice == 1, us, same_cluster))
    vs = np.where(kinds < 2, vs, -1)
    got_a, got_b = service.answer(kinds, us, vs)
    ref_a, ref_b = reference_answers(service, kinds, us, vs)
    assert got_a.dtype == got_b.dtype == np.float64
    assert got_a.shape == got_b.shape == (size,)
    assert np.array_equal(got_a.view(np.uint64), ref_a.view(np.uint64))
    assert np.array_equal(got_b.view(np.uint64), ref_b.view(np.uint64))


@pytest.mark.parametrize("dtype", [np.int8, np.int64])
def test_answer_empty_batch(services, dtype):
    a, b = services["mesh30-hop"].answer(
        np.zeros(0, dtype=dtype), np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    )
    assert a.shape == b.shape == (0,) and a.dtype == b.dtype == np.float64
