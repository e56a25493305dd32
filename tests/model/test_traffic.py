"""Tests for the per-level traffic equations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.traffic import (
    FetchPolicy,
    LevelTraffic,
    operand_fetches,
)


class TestOperandFetches:
    def test_fit_policy_fetches_once_when_fitting(self):
        fetches = operand_fetches(np.array([10, 20]), 50, fifo_words=5, passes=4,
                                  policy=FetchPolicy.FIT)
        assert list(fetches) == [10, 20]

    def test_buffet_refetches_whole_tile(self):
        fetches = operand_fetches(np.array([100]), 50, fifo_words=5, passes=3,
                                  policy=FetchPolicy.BUFFET)
        assert list(fetches) == [300]

    def test_tailors_streams_only_bumped(self):
        fetches = operand_fetches(np.array([100]), 50, fifo_words=10, passes=3,
                                  policy=FetchPolicy.TAILORS)
        # resident = 40, bumped = 60 -> 40 + 60*3.
        assert list(fetches) == [220]

    def test_tailors_equals_fit_when_fitting(self):
        occupancies = np.array([5, 49, 50])
        a = operand_fetches(occupancies, 50, fifo_words=10, passes=7, policy=FetchPolicy.FIT)
        b = operand_fetches(occupancies, 50, fifo_words=10, passes=7,
                            policy=FetchPolicy.TAILORS)
        assert np.array_equal(a, b)

    def test_mixed_tiles(self):
        fetches = operand_fetches(np.array([10, 200]), 100, fifo_words=20, passes=2,
                                  policy=FetchPolicy.TAILORS)
        assert fetches[0] == 10
        assert fetches[1] == 80 + 120 * 2

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            operand_fetches(np.array([1]), 0, fifo_words=1, passes=1, policy=FetchPolicy.FIT)


class TestLevelTraffic:
    def make(self):
        return LevelTraffic(level="dram", stationary_reads=150.0,
                            stationary_baseline=100.0, streaming_reads=300.0,
                            output_writes=50.0)

    def test_totals(self):
        traffic = self.make()
        assert traffic.total_reads == 450.0
        assert traffic.total_words == 500.0

    def test_streaming_overhead(self):
        assert self.make().streaming_overhead == 50.0

    def test_overhead_fraction(self):
        traffic = self.make()
        assert traffic.overhead_fraction == pytest.approx(50.0 / 450.0)

    def test_no_overhead_when_reads_match_baseline(self):
        traffic = LevelTraffic(level="x", stationary_reads=100.0,
                               stationary_baseline=100.0, streaming_reads=10.0,
                               output_writes=0.0)
        assert traffic.streaming_overhead == 0.0
        assert traffic.overhead_fraction == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            LevelTraffic(level="x", stationary_reads=-1.0, stationary_baseline=0.0,
                         streaming_reads=0.0, output_writes=0.0)


@settings(max_examples=30, deadline=None)
@given(
    occupancies=st.lists(st.integers(min_value=1, max_value=500), min_size=1, max_size=30),
    capacity=st.integers(min_value=2, max_value=300),
    passes=st.integers(min_value=1, max_value=6),
)
def test_property_policy_ordering(occupancies, capacity, passes):
    """For every tile: ideal (fit) <= Tailors <= buffet fetches."""
    occ = np.array(occupancies)
    fifo = max(1, capacity // 8)
    fit = operand_fetches(occ, capacity, fifo_words=fifo, passes=passes,
                          policy=FetchPolicy.FIT)
    tailors = operand_fetches(occ, capacity, fifo_words=fifo, passes=passes,
                              policy=FetchPolicy.TAILORS)
    buffet = operand_fetches(occ, capacity, fifo_words=fifo, passes=passes,
                             policy=FetchPolicy.BUFFET)
    assert np.all(occ <= tailors)
    assert np.all(tailors <= buffet)
    assert np.all(fit[occ <= capacity] == occ[occ <= capacity])
