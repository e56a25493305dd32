"""Tests for deterministic RNG handling."""

import numpy as np
import pytest

from repro.utils.rng import resolve_rng


class TestResolveRng:
    def test_none_gives_default_generator(self):
        assert isinstance(resolve_rng(None), np.random.Generator)

    def test_none_is_deterministic(self):
        a = resolve_rng(None).integers(0, 1000, size=8)
        b = resolve_rng(None).integers(0, 1000, size=8)
        assert np.array_equal(a, b)

    def test_int_seed_is_deterministic(self):
        a = resolve_rng(42).integers(0, 1000, size=8)
        b = resolve_rng(42).integers(0, 1000, size=8)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = resolve_rng(1).integers(0, 10**9)
        b = resolve_rng(2).integers(0, 10**9)
        assert a != b

    def test_generator_passthrough(self):
        generator = np.random.default_rng(0)
        assert resolve_rng(generator) is generator

    def test_numpy_integer_seed(self):
        assert isinstance(resolve_rng(np.int64(5)), np.random.Generator)

    def test_invalid_type_raises(self):
        with pytest.raises(TypeError):
            resolve_rng("seed")
