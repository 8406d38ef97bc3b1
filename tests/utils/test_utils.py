"""Unit tests for the shared utilities (rng, timer, validation, logging)."""

from __future__ import annotations

import logging

import numpy as np
import pytest

from repro.utils.logging import enable_verbose, get_logger
from repro.utils.rng import as_rng, random_subset_mask, spawn_rngs
from repro.utils.validation import (
    check_integer_array,
    check_node_index,
    check_positive,
    check_probability,
    require,
)


class TestRNG:
    def test_as_rng_from_int_reproducible(self):
        assert as_rng(7).integers(0, 100, 5).tolist() == as_rng(7).integers(0, 100, 5).tolist()

    def test_as_rng_passthrough(self):
        gen = np.random.default_rng(0)
        assert as_rng(gen) is gen

    def test_as_rng_seed_sequence(self):
        gen = as_rng(np.random.SeedSequence(4))
        assert isinstance(gen, np.random.Generator)

    def test_as_rng_none(self):
        assert isinstance(as_rng(None), np.random.Generator)

    def test_as_rng_invalid_type(self):
        with pytest.raises(TypeError):
            as_rng("not a seed")

    def test_spawn_independent_streams(self):
        a, b = spawn_rngs(3, 2)
        assert a.integers(0, 1000, 10).tolist() != b.integers(0, 1000, 10).tolist()

    def test_spawn_from_generator(self):
        children = spawn_rngs(np.random.default_rng(1), 3)
        assert len(children) == 3

    def test_spawn_negative_rejected(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)

    def test_random_subset_mask_extremes(self):
        rng = np.random.default_rng(2)
        assert random_subset_mask(10, 0.0, rng).sum() == 0
        assert random_subset_mask(10, 1.0, rng).sum() == 10
        assert random_subset_mask(10, 5.0, rng).sum() == 10  # clamped
        assert random_subset_mask(0, 0.5, rng).size == 0

    def test_random_subset_mask_expectation(self):
        rng = np.random.default_rng(3)
        mask = random_subset_mask(20_000, 0.25, rng)
        assert 0.2 <= mask.mean() <= 0.3

    def test_random_subset_mask_negative_size(self):
        with pytest.raises(ValueError):
            random_subset_mask(-1, 0.5, np.random.default_rng(0))


class TestValidation:
    def test_require(self):
        require(True, "fine")
        with pytest.raises(ValueError, match="broken"):
            require(False, "broken")

    def test_check_positive(self):
        check_positive(1, "x")
        check_positive(0, "x", strict=False)
        with pytest.raises(ValueError):
            check_positive(0, "x")
        with pytest.raises(ValueError):
            check_positive(-1, "x", strict=False)

    def test_check_probability(self):
        check_probability(0.5, "p")
        with pytest.raises(ValueError):
            check_probability(1.5, "p")

    def test_check_node_index(self):
        assert check_node_index(np.int64(3), 10) == 3
        with pytest.raises(IndexError):
            check_node_index(10, 10)
        with pytest.raises(IndexError):
            check_node_index(-1, 10)

    def test_check_integer_array(self):
        out = check_integer_array(np.asarray([1, 2, 3], dtype=np.int32), "a")
        assert out.dtype == np.int64
        with pytest.raises(TypeError):
            check_integer_array(np.asarray([1.5]), "a")


class TestLogging:
    def test_get_logger_namespaced(self):
        assert get_logger("core").name == "repro.core"
        assert get_logger("repro.graph").name == "repro.graph"

    def test_enable_verbose_idempotent(self):
        enable_verbose()
        enable_verbose()
        logger = logging.getLogger("repro")
        handlers = [h for h in logger.handlers if isinstance(h, logging.StreamHandler)]
        assert len(handlers) == 1
