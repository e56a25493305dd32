"""Tests for occupancy-distribution statistics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tiling.stats import OccupancyStats


class TestOccupancyStats:
    def make(self):
        return OccupancyStats([0, 10, 20, 30, 40, 50, 60, 70, 80, 90])

    def test_basic_statistics(self):
        stats = self.make()
        assert stats.count == 10
        assert stats.max == 90
        assert stats.mean == pytest.approx(45.0)
        assert stats.total == pytest.approx(450.0)

    def test_percentile(self):
        assert self.make().percentile(50) == pytest.approx(45.0)

    def test_percentile_out_of_range(self):
        with pytest.raises(ValueError):
            self.make().percentile(101)

    def test_quantile_for_overbooking(self):
        stats = self.make()
        # 10% of tiles exceed the 90% quantile.
        assert stats.quantile_for_overbooking(0.10) == pytest.approx(81.0)
        assert stats.quantile_for_overbooking(0.0) == pytest.approx(90.0)

    def test_overbooking_rate(self):
        stats = self.make()
        assert stats.overbooking_rate(85) == pytest.approx(0.1)
        assert stats.overbooking_rate(1000) == 0.0

    def test_buffer_utilization(self):
        stats = OccupancyStats([50, 100, 200])
        assert stats.buffer_utilization(100) == pytest.approx((50 + 100 + 100) / 300)

    def test_bumped_fraction(self):
        stats = OccupancyStats([50, 150])
        assert stats.bumped_fraction(100) == pytest.approx(50 / 200)

    def test_histogram_total(self):
        counts, edges = self.make().histogram(bins=5)
        assert counts.sum() == 10
        assert len(edges) == 6

    def test_cdf_monotone(self):
        x, fractions = self.make().cdf()
        assert np.all(np.diff(fractions) >= 0)
        assert fractions[-1] == pytest.approx(1.0)

    def test_cdf_at_points(self):
        _, fractions = self.make().cdf([45, 1000])
        assert fractions[0] == pytest.approx(0.5)
        assert fractions[1] == pytest.approx(1.0)

    def test_scaled(self):
        scaled = self.make().scaled(2.0)
        assert scaled.max == 180
        assert scaled.mean == pytest.approx(90.0)

    def test_scaled_invalid_factor(self):
        with pytest.raises(ValueError):
            self.make().scaled(0.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            OccupancyStats([])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            OccupancyStats([1, -2])

    def test_summary_keys(self):
        summary = self.make().summary()
        assert set(summary) == {"count", "max", "mean", "p90", "p99"}


@settings(max_examples=30, deadline=None)
@given(
    occupancies=st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=100),
    y=st.floats(min_value=0.0, max_value=1.0),
)
def test_property_quantile_bounds_overbooking_rate(occupancies, y):
    """Capacity at the y-quantile never yields an overbooking rate above y."""
    stats = OccupancyStats(occupancies)
    quantile = stats.quantile_for_overbooking(y)
    if quantile > 0:
        # Finite samples quantize the achievable rate: allow one tile of slack.
        assert stats.overbooking_rate(quantile) <= y + 1.0 / stats.count + 1e-9


@settings(max_examples=30, deadline=None)
@given(
    occupancies=st.lists(st.integers(min_value=0, max_value=5_000), min_size=1, max_size=60),
    factor=st.floats(min_value=0.1, max_value=10.0),
)
def test_property_scaling_commutes_with_quantiles(occupancies, factor):
    """Scaling the distribution scales its quantiles by the same factor."""
    stats = OccupancyStats(occupancies)
    scaled = stats.scaled(factor)
    assert scaled.percentile(90) == pytest.approx(stats.percentile(90) * factor, rel=1e-9)
