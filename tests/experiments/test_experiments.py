"""Integration tests for the experiment harness (small scale).

These run every table/figure row function end-to-end on the ``small``
dataset scale and assert the qualitative *shape* claims the paper makes — the
same checks a reader would perform against Tables 2-4 and Figure 1.
"""

from __future__ import annotations

import pytest

from repro.experiments import ablations, figure1, table1, table2, table3, table4
from repro.experiments.config import ExperimentConfig, granularity_for
from repro.experiments.datasets import (
    DATASETS,
    dataset_names,
    load_dataset,
    reference_diameter,
)

SMALL = {"scale": "small"}
FAST_DATASETS = ["livejournal-like", "roads-PA-like", "mesh"]


class TestDatasets:
    def test_registry_contains_paper_datasets(self):
        assert set(dataset_names()) == {
            "twitter-like",
            "livejournal-like",
            "roads-CA-like",
            "roads-PA-like",
            "roads-TX-like",
            "mesh",
        }
        social = {name for name in dataset_names() if DATASETS[name].regime == "social"}
        assert social == {"twitter-like", "livejournal-like"}

    def test_load_is_connected_and_cached(self):
        a = load_dataset("mesh", "small")
        b = load_dataset("mesh", "small")
        assert a is b  # in-memory layer of the dataset cache
        from repro.graph.components import is_connected

        assert is_connected(a)

    def test_unknown_dataset_rejected(self):
        with pytest.raises(KeyError):
            load_dataset("no-such-graph")
        with pytest.raises(KeyError):
            DATASETS["mesh"].build("no-such-scale")

    def test_reference_diameter_positive_and_regime_consistent(self):
        road = reference_diameter("roads-PA-like", "small")
        social = reference_diameter("livejournal-like", "small")
        assert road > 4 * social  # long- vs small-diameter regimes

    def test_granularity_helper(self):
        n = 10_000
        fine = granularity_for("mesh", n)
        coarse = granularity_for("mesh", n, coarse=True)
        assert coarse < fine
        assert granularity_for("twitter-like", n) < granularity_for("roads-CA-like", n)

    def test_config_divisor(self):
        config = ExperimentConfig()
        assert config.divisor("social") == config.social_divisor
        assert config.divisor("road") == config.road_divisor


class TestTable1:
    def test_rows_complete(self):
        rows = [table1.table1_row(name, **SMALL) for name in dataset_names()]
        assert len(rows) == 6
        for row in rows:
            assert row["nodes"] > 0 and row["edges"] > 0 and row["diameter"] > 0
            assert row["paper_nodes"] > row["nodes"]  # stand-ins are smaller by design


class TestTable2:
    def test_cluster_radius_never_larger_than_mpx(self):
        rows = [table2.table2_row(name, **SMALL) for name in FAST_DATASETS]
        assert len(rows) == len(FAST_DATASETS)
        for row in rows:
            assert row["cluster_r"] <= row["mpx_r"] + 1, row["dataset"]

    def test_granularities_comparable(self):
        row = table2.table2_row("mesh", **SMALL)
        assert 0.2 <= row["cluster_nC"] / max(1, row["mpx_nC"]) <= 5.0


class TestTable3:
    def test_upper_bounds_contain_truth(self):
        rows = [table3.table3_row(name, **SMALL) for name in FAST_DATASETS]
        for row in rows:
            for label in ("coarse", "fine"):
                assert row[f"{label}_lower"] <= row["true_diameter"], row["dataset"]
                assert row[f"{label}_upper"] >= row["true_diameter"], row["dataset"]

    def test_ratio_small_on_road_graphs(self):
        for name in ("roads-PA-like", "mesh"):
            row = table3.table3_row(name, **SMALL)
            assert row["fine_ratio"] < 2.5
            assert row["coarse_ratio"] < 2.5

    def test_granularity_does_not_change_quality_much(self):
        row = table3.table3_row("mesh", **SMALL)
        assert abs(row["coarse_ratio"] - row["fine_ratio"]) < 1.0


class TestTable4:
    def test_cluster_needs_fewer_rounds_than_bfs_on_road_graphs(self):
        for name in ("roads-PA-like", "mesh"):
            row = table4.table4_row(name, include_hadi=False, **SMALL)
            assert row["cluster_rounds"] < row["bfs_rounds"], row["dataset"]
            assert row["cluster_time"] < row["bfs_time"], row["dataset"]

    def test_hadi_slowest_on_long_diameter(self):
        row = table4.table4_row("mesh", include_hadi=True, **SMALL)
        assert row["hadi_time"] > row["cluster_time"]
        assert row["hadi_pairs"] > row["bfs_pairs"]

    def test_estimates_are_upper_bounds(self):
        row = table4.table4_row("roads-PA-like", include_hadi=False, **SMALL)
        assert row["cluster_estimate"] >= row["true_diameter"]


class TestFigure1:
    def test_bfs_grows_linearly_cluster_flat(self):
        rows = figure1.figure1_rows("livejournal-like", **SMALL)
        by_c = {row["tail_multiplier"]: row for row in rows}
        assert by_c[6]["bfs_rounds"] > by_c[2]["bfs_rounds"] > by_c[0]["bfs_rounds"]
        bfs_growth = by_c[6]["bfs_rounds"] - by_c[0]["bfs_rounds"]
        cluster_growth = by_c[6]["cluster_rounds"] - by_c[0]["cluster_rounds"]
        assert cluster_growth <= bfs_growth / 2


class TestAblations:
    def test_batch_policy(self):
        row = ablations.batch_policy_row("mesh", **SMALL)
        assert row["cluster_r"] <= row["single_batch_r"] + 2

    def test_tau_sweep_monotone(self):
        rows = ablations.run_tau_sweep(dataset="mesh", scale="small")
        radii = [row["max_radius"] for row in rows]
        clusters = [row["num_clusters"] for row in rows]
        assert radii[0] >= radii[-1]
        assert clusters[0] <= clusters[-1]

    def test_cluster_vs_cluster2(self):
        row = ablations.cluster_vs_cluster2_row("mesh", **SMALL)
        assert row["cluster2_upper"] >= row["true_diameter"]
        assert row["cluster_upper"] >= row["true_diameter"]

    def test_expander_path(self):
        result = ablations.run_expander_path_example(num_nodes=1024)
        assert result["radius_much_smaller_than_diameter"]

    def test_kcenter_comparison(self):
        rows = ablations.kcenter_rows("mesh", **SMALL)
        assert [row["k"] for row in rows] == [16, 64]
        for row in rows:
            assert row["cluster_radius"] >= row["gonzalez_radius"] * 0.5
            assert row["cluster_radius"] <= 8 * row["gonzalez_radius"]
