"""Unit tests for the MR simulation engine."""

from __future__ import annotations

import numpy as np
import pytest

from mr_reference import PATHS, on_path, tuple_path  # rootless test layout: pytest puts this dir on sys.path
from repro.mapreduce.engine import MREngine
from repro.mapreduce.model import MRConstraintViolation, MRModel
from repro.mapreduce.structured import ArrayPairs, StructuredReducer


def batch_of(pairs):
    keys, values = zip(*pairs)
    return ArrayPairs(np.asarray(keys), np.asarray(values))


def word_count_mapper(batch):
    words = [word for line in batch.values.tolist() for word in line.split()]
    return ArrayPairs(np.asarray(words), np.ones(len(words), dtype=np.int64))


class DropAll(StructuredReducer):
    """Emits nothing: every group is masked out."""

    name = "test-drop-all"

    def segment_reduce(self, sorted_values, starts, ends):
        return sorted_values[starts], np.zeros(starts.size, dtype=bool)

    def reference(self, key, values):
        return []


class Angry(StructuredReducer):
    """Raises on every group, on the segment path and on the tuple path."""

    name = "test-angry"

    def segment_reduce(self, sorted_values, starts, ends):
        raise ValueError(f"boom on {starts.size} groups")

    def reference(self, key, values):
        raise ValueError(f"boom on key {key}")


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
        batch = batch_of([(0, 1), (1, 2)])
        with pytest.raises(ValueError, match="boom on 2 groups"):
            MREngine().run_structured_round(batch, Angry())
        with tuple_path(), pytest.raises(ValueError, match="boom on key 0"):
            MREngine().run_structured_round(batch, Angry())


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

    def test_reducer_that_emits_nothing(self, path):
        engine = MREngine()
        output = engine.run_structured_round(batch_of([(0, 1), (0, 2), (1, 3)]), DropAll())
        assert len(output) == 0
        assert engine.metrics.shuffled_pairs == 3
        assert engine.metrics.max_reducer_input == 2
        # Live pairs = max(input, output): inputs were alive during the round.
        assert engine.metrics.max_live_pairs == 3

    def test_reducer_exception_propagates(self, path):
        with pytest.raises(ValueError, match="boom on"):
            MREngine().run_structured_round(batch_of([(0, 1), (1, 2), (2, 3)]), Angry())

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
        engine.charge_rounds(5, pairs_per_round=100, label="synthetic")
        assert engine.metrics.rounds == 5
        assert engine.metrics.shuffled_pairs == 500
        assert engine.metrics.per_label["synthetic"] == 5

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            MREngine().charge_rounds(-1)
