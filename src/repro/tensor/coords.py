"""Coordinate-space primitives: ranges.

The paper describes tiles in *coordinate space*: a tile is a hyper-rectangle of
coordinates whose *size* is the product of its per-dimension ranges and whose
*occupancy* is the number of nonzeros it contains (Section 2.2).  The small
immutable :class:`Range` carries that vocabulary through the library.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.utils.validation import check_non_negative_int


@dataclass(frozen=True)
class Range:
    """A half-open interval of integer coordinates ``[start, stop)``."""

    start: int
    stop: int

    def __post_init__(self) -> None:
        check_non_negative_int(self.start, "start")
        check_non_negative_int(self.stop, "stop")
        if self.stop < self.start:
            raise ValueError(f"stop ({self.stop}) must be >= start ({self.start})")

    def __len__(self) -> int:
        return self.stop - self.start

    def __contains__(self, coordinate: int) -> bool:
        return self.start <= coordinate < self.stop

    def __iter__(self) -> Iterator[int]:
        return iter(range(self.start, self.stop))

