"""Per-level traffic equations for the stationary/streaming dataflow.

The quantities that determine the evaluation results are the data volumes
moved between memory levels:

* **Parent → level fetches of the stationary operand.**  A stationary tile is
  scanned once per streaming-operand tile it is matched against.  If it fits
  in the level's buffer it is fetched once; if it overbooks the buffer the
  bumped portion is re-fetched on every scan (Tailors) or the entire tile is
  re-fetched on every scan (a buffet, which can only shrink from the head —
  Fig. 3).
* **Parent → level fetches of the streaming operand.**  The whole streaming
  operand is fetched once per stationary tile — this is the term that larger
  stationary tiles (and hence overbooking) shrink.

:func:`operand_fetches` implements the per-tile fetch counts for the three
policies (never-overbooked, buffet, Tailors); :class:`LevelTraffic` assembles
them into the traffic of one memory level.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.utils.validation import check_positive_int


class FetchPolicy(enum.Enum):
    """How a level's buffer handles a tile that exceeds its capacity."""

    #: Tiles never exceed the capacity by construction (uniform-shape /
    #: prescient tiling); any tile that nevertheless does is treated like
    #: ``BUFFET`` (drop everything, refill per scan).
    FIT = "fit"
    #: Buffet management: an overbooked tile is re-fetched in full on every scan.
    BUFFET = "buffet"
    #: Tailors management: the resident head stays, the bumped tail streams.
    TAILORS = "tailors"


def operand_fetches(occupancies: np.ndarray, capacity: int, *, fifo_words: int,
                    passes: int, policy: FetchPolicy) -> np.ndarray:
    """Parent fetches (in nonzeros) for each tile of the stationary operand.

    Parameters
    ----------
    occupancies:
        Per-tile occupancy array.
    capacity:
        Buffer capacity at this level (words per operand).
    fifo_words:
        Tailors FIFO-region size (ignored for the other policies).
    passes:
        Number of scans of each resident tile (= number of streaming-operand
        tiles it is matched against).
    policy:
        Overflow-handling policy.

    Returns
    -------
    numpy.ndarray
        Fetches per tile.
    """
    check_positive_int(capacity, "capacity")
    check_positive_int(fifo_words, "fifo_words")
    check_positive_int(passes, "passes")
    occ = np.asarray(occupancies, dtype=np.float64)
    fits = occ <= capacity

    if policy in (FetchPolicy.FIT, FetchPolicy.BUFFET):
        # Fetched once when the tile fits, once per scan otherwise.
        return np.where(fits, occ, occ * passes)

    if policy is FetchPolicy.TAILORS:
        resident = max(1, capacity - fifo_words)
        bumped = np.maximum(occ - resident, 0.0)
        return np.where(fits, occ, resident + bumped * passes)

    raise ValueError(f"unknown policy {policy!r}")


@dataclass(frozen=True)
class LevelTraffic:
    """Traffic of one memory level for one workload (units: words).

    Attributes
    ----------
    level:
        Level name ("dram" or "global_buffer").
    stationary_reads:
        Words of the stationary operand fetched from the parent, including any
        overbooking streaming overhead.
    stationary_baseline:
        Words of the stationary operand that would be fetched with an
        infinitely large buffer and the same tiling (i.e. each tile fetched
        exactly once) — the Fig. 9a baseline.
    streaming_reads:
        Words of the streaming operand fetched from the parent.
    output_writes:
        Words of output written back to the parent.
    """

    level: str
    stationary_reads: float
    stationary_baseline: float
    streaming_reads: float
    output_writes: float

    def __post_init__(self) -> None:
        for field_name in ("stationary_reads", "stationary_baseline",
                           "streaming_reads", "output_writes"):
            value = getattr(self, field_name)
            if value < 0:
                raise ValueError(f"{field_name} must be non-negative, got {value}")

    @property
    def streaming_overhead(self) -> float:
        """Extra stationary-operand traffic caused by overbooking (words)."""
        return max(0.0, self.stationary_reads - self.stationary_baseline)

    @property
    def total_reads(self) -> float:
        return self.stationary_reads + self.streaming_reads

    @property
    def total_words(self) -> float:
        return self.total_reads + self.output_writes

    @property
    def overhead_fraction(self) -> float:
        """Streaming overhead as a fraction of the baseline traffic (Fig. 9a)."""
        baseline = self.stationary_baseline + self.streaming_reads + self.output_writes
        if baseline <= 0:
            return 0.0
        return self.streaming_overhead / baseline

