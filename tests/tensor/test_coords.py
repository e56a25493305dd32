"""Tests for coordinate-space primitives."""

import pytest

from repro.tensor.coords import Range


class TestRange:
    def test_length(self):
        assert len(Range(2, 7)) == 5

    def test_empty_range(self):
        assert len(Range(3, 3)) == 0

    def test_contains(self):
        r = Range(2, 5)
        assert 2 in r and 4 in r
        assert 5 not in r and 1 not in r

    def test_iteration(self):
        assert list(Range(1, 4)) == [1, 2, 3]

    def test_invalid_order_raises(self):
        with pytest.raises(ValueError):
            Range(5, 2)

    def test_negative_start_raises(self):
        with pytest.raises(ValueError):
            Range(-1, 2)

