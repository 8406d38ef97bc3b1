"""Unit tests for the MR simulation engine."""

from __future__ import annotations

import numpy as np
import pytest

from mr_reference import PATHS, on_path, tuple_path  # rootless test layout: pytest puts this dir on sys.path
from repro.mapreduce.engine import MREngine
from repro.mapreduce.model import MRConstraintViolation, MRModel
from repro.mapreduce.structured import ArrayPairs


def batch_of(pairs):
    keys, values = zip(*pairs)
    return ArrayPairs(np.asarray(keys), np.asarray(values))


def word_count_mapper(batch):
    words = [word for line in batch.values.tolist() for word in line.split()]
    return ArrayPairs(np.asarray(words), np.ones(len(words), dtype=np.int64))


class TestRunRound:
    def test_word_count(self):
        engine = MREngine()
        documents = ArrayPairs(np.zeros(2, dtype=np.int64), np.array(["a b a", "b c"]))
        result = engine.run_structured_round(word_count_mapper(documents), "sum")
        assert dict(result.to_pairs()) == {"a": 2, "b": 2, "c": 1}

    def test_metrics_recorded(self):
        engine = MREngine()
        engine.run_structured_round(batch_of([(i % 3, i) for i in range(12)]), "sum")
        assert engine.metrics.rounds == 1
        assert engine.metrics.shuffled_pairs == 12
        assert engine.metrics.max_reducer_input == 4

    def test_chained_rounds_pipeline(self):
        # Each round's output batch feeds the next: word count, then total.
        engine = MREngine()
        counts = engine.run_structured_round(
            word_count_mapper(ArrayPairs(np.zeros(1, dtype=np.int64), np.array(["x y x z"]))), "sum"
        )
        total = engine.run_structured_round(
            ArrayPairs(np.zeros(len(counts), dtype=np.int64), counts.values), "sum"
        )
        assert total.to_pairs() == [(0, 4)]
        assert engine.metrics.rounds == 2

    def test_tuple_path_runs_every_round_through_the_reference(self):
        # The reference adds a float group in arrival order, the segment pass
        # pairwise; on this workload the two sums differ, so each side shows
        # which path ran.
        values = np.random.default_rng(3).standard_normal(400)
        batch = ArrayPairs(np.zeros(400, dtype=np.int64), values)
        arrival_order = sum(values.tolist())
        with tuple_path():
            assert MREngine().run_structured_round(batch, "sum").values[0] == arrival_order
        assert MREngine().run_structured_round(batch, "sum").values[0] != arrival_order


class TestConstraints:
    def test_local_memory_violation_raises(self):
        engine = MREngine(MRModel(local_memory=2, enforce=True))
        with pytest.raises(MRConstraintViolation):
            engine.run_structured_round(batch_of([(0, i) for i in range(5)]), "sum")

    def test_global_memory_violation_raises(self):
        engine = MREngine(MRModel(global_memory=3, enforce=True))
        with pytest.raises(MRConstraintViolation):
            engine.run_structured_round(batch_of([(i, i) for i in range(10)]), "sum")

    def test_record_mode_collects_violations(self):
        model = MRModel(local_memory=1, enforce=False)
        MREngine(model).run_structured_round(batch_of([(0, 1), (0, 2)]), "sum")
        assert len(model.violations) == 1

    def test_within_budget_no_violation(self):
        model = MRModel(local_memory=10, global_memory=100, enforce=True)
        MREngine(model).run_structured_round(batch_of([(i % 4, i) for i in range(20)]), "sum")
        assert len(model.violations) == 0


class TestEdgeCases:
    """Degenerate rounds must behave identically on the segment path and
    under the tuple-path reference."""

    @pytest.fixture(params=PATHS)
    def path(self, request):
        with on_path(request.param):
            yield request.param

    def test_empty_pair_list(self, path):
        empty = ArrayPairs(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
        engine = MREngine()
        output = engine.run_structured_round(empty, "sum")
        assert len(output) == 0
        assert engine.metrics.rounds == 1
        assert engine.metrics.shuffled_pairs == 0
        assert engine.metrics.max_reducer_input == 0
        assert engine.metrics.max_live_pairs == 0

    def test_mapper_that_emits_nothing(self, path):
        def silent_mapper(batch):
            return ArrayPairs(batch.keys[:0], batch.values[:0])

        engine = MREngine()
        output = engine.run_structured_round(silent_mapper(batch_of([(0, 1), (1, 2)])), "sum")
        assert len(output) == 0
        assert engine.metrics.rounds == 1
        assert engine.metrics.shuffled_pairs == 0
        assert engine.metrics.max_reducer_input == 0

    def test_reducer_exception_propagates(self, path):
        # OR is undefined on floats, on the segment path and the tuple path.
        with pytest.raises(TypeError):
            MREngine().run_structured_round(batch_of([(0, 1.5), (0, 2.5), (1, 3.5)]), "bitwise_or")

    def test_local_memory_enforced(self, path):
        engine = MREngine(MRModel(local_memory=3, enforce=True))
        # Within budget: fine.
        engine.run_structured_round(batch_of([(0, i) for i in range(3)]), "sum")
        # One pair over budget: raises and records the violation.
        with pytest.raises(MRConstraintViolation, match="exceeding M_L"):
            engine.run_structured_round(batch_of([(0, i) for i in range(4)]), "sum")
        assert len(engine.model.violations) == 1

    def test_global_memory_enforced(self, path):
        engine = MREngine(MRModel(global_memory=5, enforce=True))
        engine.run_structured_round(batch_of([(i, i) for i in range(5)]), "sum")
        with pytest.raises(MRConstraintViolation, match="exceed M_G"):
            engine.run_structured_round(batch_of([(i, i) for i in range(6)]), "sum")
        assert len(engine.model.violations) == 1

    def test_global_memory_counts_output_when_larger(self):
        # The live pairs of a round are its mapped batch: a map phase fanning
        # one input pair out to four exceeds M_G = 3.
        mapped = ArrayPairs(np.zeros(4, dtype=np.int64), np.arange(4))
        engine = MREngine(MRModel(global_memory=3, enforce=True))
        with pytest.raises(MRConstraintViolation):
            engine.run_structured_round(mapped, "first")


class TestChargeRounds:
    def test_charge_accumulates(self):
        engine = MREngine()
        engine.charge_rounds(np.full(5, 100))
        engine.charge_rounds([7, 300])
        engine.charge_rounds([])
        assert engine.metrics.as_dict() == {
            "rounds": 7,
            "shuffled_pairs": 807,
            "max_round_pairs": 300,
            "max_reducer_input": 0,
            "max_live_pairs": 300,
        }

    def test_charged_rounds_meter_like_executed_rounds_without_reducer_input(self):
        charges = [5, 0, 12, 3]
        charged, recorded = MREngine(), MREngine()
        charged.charge_rounds(charges)
        for pairs in charges:
            recorded.metrics.record_round(pairs_shuffled=pairs, max_reducer_input=0, live_pairs=pairs)
        assert charged.metrics == recorded.metrics

    def test_negative_rejected(self):
        # A negative pair count, or anything but one count per round.
        for charges in (-1, [3, -1], [[1, 2]]):
            with pytest.raises(ValueError):
                MREngine().charge_rounds(charges)
