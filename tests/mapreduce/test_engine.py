"""Unit tests for the MR round-accounting engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.mr_algorithms import charge_quotient_rounds
from repro.generators import mesh_graph
from repro.mapreduce.engine import MREngine
from repro.mapreduce.metrics import MRMetrics
from repro.mapreduce.model import MRConstraintViolation, MRModel


class TestChargeRounds:
    def test_charge_accumulates(self):
        engine = MREngine()
        engine.charge_rounds(np.full(5, 100))
        engine.charge_rounds([7, 300])
        engine.charge_rounds([])
        assert engine.metrics == MRMetrics(rounds=7, shuffled_pairs=807, max_round_pairs=300)

    def test_one_call_equals_one_call_per_round(self):
        charges = [5, 0, 12, 3]
        batched, one_by_one = MREngine(), MREngine()
        batched.charge_rounds(charges)
        for pairs in charges:
            one_by_one.charge_rounds([pairs])
        assert batched.metrics == one_by_one.metrics

    def test_negative_rejected(self):
        # A negative pair count, or anything but one count per round.
        for charges in (-1, [3, -1], [[1, 2]]):
            with pytest.raises(ValueError):
                MREngine().charge_rounds(charges)


class TestConstraints:
    def test_global_memory_violation_raises(self):
        # The quotient-diameter round is the round checked against the
        # engine's model: its 2 * 5 arcs exceed M_G = 3, so it raises before
        # it is charged, after the one quotient-build round.
        engine = MREngine(MRModel(global_memory=3, enforce=True))
        with pytest.raises(MRConstraintViolation, match="10 live pairs exceed M_G=3"):
            charge_quotient_rounds(engine, mesh_graph(4, 4), num_quotient_edges=5)
        assert engine.metrics.rounds == 1
