"""Tests for coordinate-space primitives."""

import pytest

from repro.tensor.coords import Range, Shape


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


class TestShape:
    def test_size_is_product(self):
        assert Shape([4, 5]).size == 20

    def test_rank(self):
        assert Shape([2, 3, 4]).rank == 3

    def test_indexing_and_iteration(self):
        shape = Shape([6, 7])
        assert shape[0] == 6 and shape[1] == 7
        assert list(shape) == [6, 7]

    def test_rejects_zero_dimension(self):
        with pytest.raises(ValueError):
            Shape([4, 0])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Shape([])
