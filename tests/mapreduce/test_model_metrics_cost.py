"""Unit tests for the MR model, metrics and cost model."""

from __future__ import annotations

import dataclasses

import pytest

from repro.mapreduce.cost import DEFAULT_COST_MODEL, CostModel
from repro.mapreduce.engine import MREngine
from repro.mapreduce.model import MRConstraintViolation, MRModel, rounds_for_primitive


class TestMRModel:
    def test_for_graph_scales(self):
        model = MRModel.for_graph(num_nodes=10_000, num_edges=50_000)
        assert model.global_memory > 100_000
        assert model.local_memory < model.global_memory

    def test_for_graph_invalid(self):
        with pytest.raises(ValueError):
            MRModel.for_graph(num_nodes=0, num_edges=0)

    def test_check_round_enforcing(self):
        model = MRModel(local_memory=5, enforce=True)
        with pytest.raises(MRConstraintViolation, match="exceeding M_L"):
            model.check_round(max_reducer_input=6, live_pairs=1)
        model = MRModel(global_memory=3, enforce=True)
        with pytest.raises(MRConstraintViolation, match="exceed M_G"):
            model.check_round(max_reducer_input=1, live_pairs=10)
        assert model.violations == ["10 live pairs exceed M_G=3"]

    def test_check_round_recording(self):
        model = MRModel(local_memory=5, global_memory=5, enforce=False)
        model.check_round(max_reducer_input=6, live_pairs=10)
        assert len(model.violations) == 2

    def test_unbounded_model_never_violates(self):
        model = MRModel()
        model.check_round(max_reducer_input=10**9, live_pairs=10**9)
        assert len(model.violations) == 0


class TestRoundsForPrimitive:
    def test_single_round_when_fits(self):
        assert rounds_for_primitive(100, 1000) == 1
        assert rounds_for_primitive(100, None) == 1

    def test_log_scaling(self):
        assert rounds_for_primitive(10_000, 10) == 4
        assert rounds_for_primitive(10**6, 100) == 3

    def test_exact_powers(self):
        # n = M_L**r takes r rounds; a float log rounds these three up to r + 1.
        assert rounds_for_primitive(125, 5) == 3
        assert rounds_for_primitive(216, 6) == 3
        assert rounds_for_primitive(15625, 5) == 6
        assert rounds_for_primitive(15626, 5) == 7

    def test_small_inputs(self):
        assert rounds_for_primitive(0, 10) == 1
        assert rounds_for_primitive(1, 10) == 1


class TestMetrics:
    def test_record_round(self):
        engine = MREngine()
        engine.charge_rounds([10, 20])
        engine.charge_rounds([15])
        assert engine.metrics.rounds == 3
        assert engine.metrics.shuffled_pairs == 45
        assert engine.metrics.max_round_pairs == 20

    def test_as_dict_keys(self):
        engine = MREngine()
        engine.charge_rounds([4, 9])
        assert dataclasses.asdict(engine.metrics) == {"rounds": 2, "shuffled_pairs": 13, "max_round_pairs": 9}


class TestCostModel:
    def test_simulated_time_linear(self):
        engine = MREngine()
        engine.charge_rounds([1000] * 10)
        cost = CostModel(round_latency=2.0, pair_cost=0.001)
        assert cost.simulated_time(engine.metrics) == pytest.approx(2.0 * 10 + 0.001 * 10_000)

    def test_more_rounds_costs_more(self):
        few, many = MREngine(), MREngine()
        few.charge_rounds([100] * 3)
        many.charge_rounds([100] * 30)
        assert DEFAULT_COST_MODEL.simulated_time(many.metrics) > DEFAULT_COST_MODEL.simulated_time(few.metrics)
