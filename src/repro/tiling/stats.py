"""Occupancy-distribution statistics.

Fig. 1, Fig. 6, Fig. 11 and Fig. 13 of the paper all reason about the
*distribution of tile occupancies* produced by a tiling: its maximum, its
percentiles, the fraction of tiles above a buffer capacity, and how the
distribution shifts when the tile size is rescaled.  :class:`OccupancyStats`
captures those statistics from a sample (or complete population) of
occupancies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.utils.validation import check_fraction, check_positive


@dataclass(frozen=True)
class OccupancyStats:
    """Summary statistics over a set of tile occupancies."""

    occupancies: np.ndarray

    def __init__(self, occupancies: Sequence[int] | np.ndarray):
        array = np.asarray(occupancies, dtype=np.float64)
        if array.ndim != 1:
            raise ValueError("occupancies must be one-dimensional")
        if array.size == 0:
            raise ValueError("occupancies must not be empty")
        if (array < 0).any():
            raise ValueError("occupancies must be non-negative")
        object.__setattr__(self, "occupancies", array)

    @property
    def count(self) -> int:
        """Number of tiles in the sample."""
        return int(self.occupancies.size)

    @property
    def max(self) -> float:
        """The worst-case tile occupancy (what prescient tiling plans for)."""
        return float(self.occupancies.max())

    @property
    def mean(self) -> float:
        return float(self.occupancies.mean())

    @property
    def total(self) -> float:
        return float(self.occupancies.sum())

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile of tile occupancy (q in [0, 100])."""
        if not 0 <= q <= 100:
            raise ValueError(f"q must be in [0, 100], got {q}")
        return float(np.percentile(self.occupancies, q))

    def quantile_for_overbooking(self, y: float) -> float:
        """The occupancy ``Q_y`` that exactly ``y`` (fraction) of tiles exceed.

        This is the quantile Swiftiles scales against (Section 4.2.3): with a
        buffer of capacity ``Q_y``, a fraction ``y`` of the tiles overbook.
        """
        check_fraction(y, "y")
        return float(np.quantile(self.occupancies, 1.0 - y))

    def overbooking_rate(self, capacity: float) -> float:
        """Fraction of tiles whose occupancy strictly exceeds ``capacity``."""
        check_positive(capacity, "capacity")
        return float((self.occupancies > capacity).mean())

    def buffer_utilization(self, capacity: float) -> float:
        """Mean of ``min(occupancy, capacity) / capacity`` over the tiles."""
        check_positive(capacity, "capacity")
        return float(np.minimum(self.occupancies, capacity).mean() / capacity)

    def bumped_fraction(self, capacity: float) -> float:
        """Fraction of all nonzeros that spill past ``capacity`` in their tile."""
        check_positive(capacity, "capacity")
        total = self.occupancies.sum()
        if total == 0:
            return 0.0
        bumped = np.maximum(self.occupancies - capacity, 0.0).sum()
        return float(bumped / total)

    def histogram(self, bins: int = 32) -> Tuple[np.ndarray, np.ndarray]:
        """Histogram ``(counts, bin_edges)`` of the occupancy distribution."""
        counts, edges = np.histogram(self.occupancies, bins=bins)
        return counts.astype(np.int64), edges

    def cdf(self, points: Sequence[float] | None = None) -> Tuple[np.ndarray, np.ndarray]:
        """Empirical CDF evaluated at ``points`` (default: the sorted sample).

        Returns ``(x, fraction_of_tiles_with_occupancy_<=_x)``, the curve
        plotted in Fig. 13b/c.
        """
        sorted_occ = np.sort(self.occupancies)
        if points is None:
            x = sorted_occ
        else:
            x = np.asarray(points, dtype=np.float64)
        fractions = np.searchsorted(sorted_occ, x, side="right") / self.count
        return x, fractions

    def scaled(self, factor: float) -> "OccupancyStats":
        """Occupancies scaled by ``factor``.

        Swiftiles' linear-scaling assumption (Section 4.2.3) says the
        occupancy distribution at tile size ``factor * T`` is approximately the
        distribution at ``T`` with every occupancy multiplied by ``factor``.
        """
        check_positive(factor, "factor")
        return OccupancyStats(self.occupancies * factor)

    def summary(self) -> dict:
        """Headline numbers used in the Fig. 1 style report."""
        return {
            "count": self.count,
            "max": self.max,
            "mean": self.mean,
            "p90": self.percentile(90.0),
            "p99": self.percentile(99.0),
        }
