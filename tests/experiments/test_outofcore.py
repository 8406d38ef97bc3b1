"""Out-of-core plane: mmap-backed graphs must be bit-identical to in-memory.

Two layers of guarantees:

* Every consumer of CSR arrays — the decomposition pipeline, the distance
  oracle, and the structured MR rounds — produces bit-identical results
  whether the graph's arrays are resident or read-only ``np.memmap`` views
  over a snapshot, for every registry dataset.
* The ``scale`` experiment tier streams its R-MAT graphs to disk, reuses
  cached snapshots, and reports measured columns the deterministic view
  strips.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.oracle import build_distance_oracle
from repro.core.pipeline import DecompositionPipeline, PipelineConfig
from repro.experiments.datasets import (
    configure_dataset_cache,
    dataset_names,
    load_dataset,
)
from repro.experiments.scale import (
    SCALE_GRAPHS,
    peak_rss_bytes,
    scale_graph_names,
    scale_row,
)
from repro.experiments.suite import SuiteRunner, deterministic_view
from repro.graph.snapshot import save_snapshot, load_snapshot
from repro.mapreduce import ArrayPairs, MREngine


def _snapshot_pair(tmp_path, name):
    """The registry dataset both ways: in-memory and mmap-backed."""
    graph = load_dataset(name, scale="small")
    path = save_snapshot(graph, tmp_path / f"{name}.snap")
    mapped = load_snapshot(path, mmap=True)
    assert mapped.mode == "mmap" and graph.mode == "in_memory"
    return graph, mapped


class TestMmapBitIdentity:
    @pytest.mark.parametrize("name", dataset_names())
    def test_pipeline(self, tmp_path, name):
        graph, mapped = _snapshot_pair(tmp_path, name)
        results = []
        for candidate in (graph, mapped):
            pipe = DecompositionPipeline(candidate, PipelineConfig(tau=3, seed=11))
            result = pipe.run()
            results.append((deterministic_view([result.summary()]), pipe.decompose().assignment))
        assert results[0][0] == results[1][0]
        assert np.array_equal(results[0][1], results[1][1])

    @pytest.mark.parametrize("name", dataset_names())
    def test_mr_accounting(self, tmp_path, name):
        graph, mapped = _snapshot_pair(tmp_path, name)
        reports = [
            DecompositionPipeline(candidate, PipelineConfig(tau=3, seed=11)).mr_report()
            for candidate in (graph, mapped)
        ]
        assert reports[0].metrics.as_dict() == reports[1].metrics.as_dict()
        assert reports[0].simulated_time == reports[1].simulated_time

    @pytest.mark.parametrize("name", dataset_names())
    def test_oracle(self, tmp_path, name):
        graph, mapped = _snapshot_pair(tmp_path, name)
        oracles = [build_distance_oracle(candidate, seed=5) for candidate in (graph, mapped)]
        assert np.array_equal(oracles[0].upper_matrix, oracles[1].upper_matrix)
        assert np.array_equal(oracles[0].lower_matrix, oracles[1].lower_matrix)
        assert np.array_equal(oracles[0].assignment, oracles[1].assignment)
        assert np.array_equal(oracles[0].center_distance, oracles[1].center_distance)

    def test_structured_round_on_memmap_arrays(self, tmp_path):
        graph, mapped = _snapshot_pair(tmp_path, "mesh")
        values = np.arange(graph.num_directed_edges, dtype=np.int64) % 97
        outcomes = []
        for candidate in (graph, mapped):
            batch = ArrayPairs(np.asarray(candidate.indices), values)
            outcomes.append(MREngine(backend="vectorized").run_structured_round(batch, "min"))
        assert np.array_equal(outcomes[0].keys, outcomes[1].keys)
        assert np.array_equal(outcomes[0].values, outcomes[1].values)


class TestScaleTier:
    def test_tier_registry(self):
        assert scale_graph_names("small") == ["rmat-small"]
        assert scale_graph_names("default") == ["rmat-16m"]
        assert scale_graph_names("xl") == ["rmat-16m", "rmat-134m"]
        # The CI quick cell must target >= 10M directed samples.
        assert SCALE_GRAPHS["rmat-16m"].num_samples >= 10_000_000

    def test_unknown_graph_rejected(self):
        with pytest.raises(KeyError):
            scale_row("rmat-nope")

    def test_row_shape_and_measurements(self):
        row = scale_row("rmat-small")
        assert row["mode"] == "mmap"
        assert row["reused_snapshot"] is False
        assert row["peak_rss_bytes"] > 0
        assert row["num_edges"] > 0 and row["num_nodes"] > 0
        assert {"radius", "num_clusters", "t_build_s", "t_pipeline_s"} <= set(row)

    def test_snapshot_reused_through_dataset_cache(self, tmp_path):
        configure_dataset_cache(tmp_path)
        first = scale_row("rmat-small")
        second = scale_row("rmat-small")
        assert first["reused_snapshot"] is False
        assert second["reused_snapshot"] is True
        assert deterministic_view([first]) == deterministic_view([second])
        assert list(tmp_path.glob("scale-rmat-small-*.snap"))

    def test_suite_cell_matches_direct_row(self):
        with SuiteRunner() as runner:
            result = runner.run(["scale"], scale="small")
        rows = result.rows_for("scale")
        assert [cell.cell.cell_id for cell in result.outcomes] == [
            "scale/graph=rmat-small"
        ]
        assert deterministic_view(rows) == deterministic_view([scale_row("rmat-small")])

    def test_peak_rss_is_positive_bytes(self):
        # Sanity floor: any interpreter is tens of MB resident.
        assert peak_rss_bytes() > 10 * 1024 * 1024
