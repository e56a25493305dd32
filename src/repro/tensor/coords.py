"""Coordinate-space primitives: ranges and shapes.

The paper describes tiles in *coordinate space*: a tile is a hyper-rectangle of
coordinates whose *size* is the product of its per-dimension ranges and whose
*occupancy* is the number of nonzeros it contains (Section 2.2).  These small
immutable classes carry that vocabulary through the library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence, Tuple

from repro.utils.validation import check_non_negative_int, check_positive_int


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


@dataclass(frozen=True)
class Shape:
    """The shape of a tensor or tile: a tuple of per-dimension extents.

    The paper's vocabulary (Section 2.1): the *shape* is the tuple of ranges,
    the *size* is the product of the ranges (zeros included), and the
    *occupancy* is the number of nonzeros — occupancy lives with the data, not
    with the shape, so it is not represented here.
    """

    dims: Tuple[int, ...]

    def __init__(self, dims: Sequence[int]):
        dims = tuple(check_positive_int(d, "dimension") for d in dims)
        if not dims:
            raise ValueError("a shape needs at least one dimension")
        object.__setattr__(self, "dims", dims)

    @property
    def rank(self) -> int:
        """Number of dimensions."""
        return len(self.dims)

    @property
    def size(self) -> int:
        """Number of points in the shape (zeros and nonzeros alike)."""
        return math.prod(self.dims)

    def __len__(self) -> int:
        return len(self.dims)

    def __getitem__(self, index: int) -> int:
        return self.dims[index]

    def __iter__(self) -> Iterator[int]:
        return iter(self.dims)
