"""Tile and tiling abstractions shared by every strategy.

The :class:`Tiling` container is *array-backed* (structure-of-arrays): the
per-tile occupancies live in one ``int64`` NumPy array and the tile geometry
is a compact descriptor (a regular grid, or explicit bound arrays for
position-space tiles).  Constructing a tiling therefore costs O(1) Python
objects regardless of the number of tiles, and every bulk statistic
(overbooking rate, bumped elements, buffer utilization) is a vectorized
reduction over the occupancy array.

:class:`Tile` still exists as the per-tile *view* type: ``tiling[i]`` and
iteration materialize ``Tile`` objects lazily, so code that wants to reason
about a single tile (tests, traces, examples) keeps the exact seed API while
the evaluation pipeline never touches per-tile Python objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List

import numpy as np

from repro.tensor.coords import Range
from repro.tensor.sparse import SparseMatrix
from repro.utils.validation import (
    check_non_negative,
    check_non_negative_int,
    check_non_negative_int_array,
    check_positive_int,
    check_range_arrays,
)


@dataclass(frozen=True)
class Tile:
    """A single tile of a two-dimensional tensor.

    A tile is a hyper-rectangle in coordinate space (for CST) or a run of
    nonzeros with a bounding rectangle (for PST).  Either way it records:

    * ``row_range`` / ``col_range`` — the coordinate ranges the tile covers;
    * ``occupancy`` — the number of nonzeros inside it (the paper's tile
      occupancy);
    * ``size`` — the number of coordinate points covered, zeros included.
    """

    index: int
    row_range: Range
    col_range: Range
    occupancy: int

    def __post_init__(self) -> None:
        check_non_negative_int(self.index, "index")
        check_non_negative_int(self.occupancy, "occupancy")

    @property
    def num_rows(self) -> int:
        return len(self.row_range)

    @property
    def num_cols(self) -> int:
        return len(self.col_range)

    @property
    def size(self) -> int:
        """Number of coordinate points (zeros and nonzeros) in the tile."""
        return self.num_rows * self.num_cols

    @property
    def shape(self) -> tuple[int, int]:
        return (self.num_rows, self.num_cols)

    def overbooks(self, capacity: int) -> bool:
        """Whether this tile's occupancy exceeds a buffer of ``capacity`` words."""
        return self.occupancy > capacity

    def bumped(self, capacity: int) -> int:
        """Number of nonzeros that do not fit in a buffer of ``capacity`` words."""
        return max(0, self.occupancy - capacity)


@dataclass(frozen=True)
class TilingTax:
    """The cost of constructing and using a tiling (Table 1's "tiling tax").

    Attributes
    ----------
    preprocessing_elements:
        Number of nonzero elements traversed while *choosing* the tile size
        (e.g. the prescient strategy traverses the whole tensor once per
        candidate size; Swiftiles touches only its samples).
    candidate_sizes:
        Number of candidate tile sizes whose occupancy had to be measured.
    runtime_matching_elements:
        Number of elements traversed at runtime for operand matching (zero for
        uniform-shape CST, a full traversal of the other operand per tile for
        PST).
    """

    preprocessing_elements: int = 0
    candidate_sizes: int = 0
    runtime_matching_elements: int = 0

    def __post_init__(self) -> None:
        check_non_negative(self.preprocessing_elements, "preprocessing_elements")
        check_non_negative(self.candidate_sizes, "candidate_sizes")
        check_non_negative(self.runtime_matching_elements, "runtime_matching_elements")

    @property
    def total_elements(self) -> float:
        """Total elements touched by the tiling strategy itself."""
        return float(self.preprocessing_elements + self.runtime_matching_elements)

    def combined(self, other: "TilingTax") -> "TilingTax":
        """Sum two taxes (e.g. per-level tilings of the same workload)."""
        return TilingTax(
            preprocessing_elements=self.preprocessing_elements + other.preprocessing_elements,
            candidate_sizes=self.candidate_sizes + other.candidate_sizes,
            runtime_matching_elements=(
                self.runtime_matching_elements + other.runtime_matching_elements
            ),
        )


class GridGeometry:
    """Tile geometry of a regular grid clipped to the matrix extent.

    Covers both uniform-shape 2-D tilings and row-block tilings (the latter is
    a grid whose tile width equals the full matrix width).  Only four integers
    are stored; per-tile ranges are derived on demand.
    """

    __slots__ = ("num_rows", "num_cols", "tile_rows", "tile_cols",
                 "grid_rows", "grid_cols")

    def __init__(self, num_rows: int, num_cols: int, tile_rows: int, tile_cols: int):
        check_non_negative_int(num_rows, "num_rows")
        check_non_negative_int(num_cols, "num_cols")
        check_positive_int(tile_rows, "tile_rows")
        check_positive_int(tile_cols, "tile_cols")
        self.num_rows = int(num_rows)
        self.num_cols = int(num_cols)
        self.tile_rows = int(tile_rows)
        self.tile_cols = int(tile_cols)
        self.grid_rows = -(-self.num_rows // self.tile_rows)
        self.grid_cols = -(-self.num_cols // self.tile_cols)

    def __len__(self) -> int:
        return self.grid_rows * self.grid_cols

    def ranges(self, index: int) -> tuple[Range, Range]:
        """The (row_range, col_range) of tile ``index`` (row-major order)."""
        grid_row, grid_col = divmod(index, self.grid_cols)
        row_range = Range(grid_row * self.tile_rows,
                          min((grid_row + 1) * self.tile_rows, self.num_rows))
        col_range = Range(grid_col * self.tile_cols,
                          min((grid_col + 1) * self.tile_cols, self.num_cols))
        return row_range, col_range

    def bound_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized (row_starts, row_stops, col_starts, col_stops)."""
        ids = np.arange(len(self), dtype=np.int64)
        grid_row, grid_col = np.divmod(ids, self.grid_cols)
        row_starts = grid_row * self.tile_rows
        row_stops = np.minimum(row_starts + self.tile_rows, self.num_rows)
        col_starts = grid_col * self.tile_cols
        col_stops = np.minimum(col_starts + self.tile_cols, self.num_cols)
        return row_starts, row_stops, col_starts, col_stops


class ExplicitGeometry:
    """Tile geometry given by explicit per-tile bound arrays (e.g. PST)."""

    __slots__ = ("row_starts", "row_stops", "col_starts", "col_stops")

    def __init__(self, row_starts, row_stops, col_starts, col_stops):
        self.row_starts, self.row_stops = check_range_arrays(
            row_starts, row_stops, "row")
        self.col_starts, self.col_stops = check_range_arrays(
            col_starts, col_stops, "col")
        if len(self.row_starts) != len(self.col_starts):
            raise ValueError("row and col bound arrays must align")

    def __len__(self) -> int:
        return len(self.row_starts)

    def ranges(self, index: int) -> tuple[Range, Range]:
        return (Range(int(self.row_starts[index]), int(self.row_stops[index])),
                Range(int(self.col_starts[index]), int(self.col_stops[index])))

    def bound_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return self.row_starts, self.row_stops, self.col_starts, self.col_stops


@dataclass(frozen=True)
class OccupancyReductions:
    """Exact integer reductions of one occupancy array at one buffer config.

    Every scalar the analytical engine derives from an occupancy array at a
    given ``(capacity, fifo_words)`` — fetch sums under each
    :class:`~repro.model.traffic.FetchPolicy`, chunk counts, overbooking and
    utilization statistics — is an affine function of the sums below.  All
    occupancies are exact ``int64`` values far below 2**53, so float64 array
    sums over them are exact integers and the Python-int arithmetic here is
    *bit-identical* to the engine's NumPy expressions; the batched grid
    evaluator (:mod:`repro.model.batch`) leans on that to reproduce the
    per-point path byte for byte.  Instances are cached per tiling (see
    :meth:`Tiling.occupancy_reductions`), so the O(num_tiles) array passes run
    once per ``(tiling, capacity, fifo)`` no matter how many grid
    configurations share them.
    """

    capacity: int
    fifo_words: int
    num_tiles: int
    #: Σ occ over all tiles (== matrix nnz for a valid tiling).
    total: int
    #: Σ occ over tiles with ``occ <= capacity``.
    fit_sum: int
    #: Σ occ over tiles with ``occ > capacity``.
    over_sum: int
    #: Number of tiles with ``occ > capacity``.
    over_count: int
    #: ``int(np.ceil(occ / capacity).sum())`` — per-tile chunk count.
    chunks: int

    @property
    def resident(self) -> int:
        """Tailors resident-region size: ``max(1, capacity - fifo_words)``."""
        return max(1, self.capacity - self.fifo_words)

    @property
    def bumped_sum(self) -> int:
        """Σ (occ - resident) over overbooked tiles (the re-streamed tails)."""
        return self.over_sum - self.over_count * self.resident

    def fetch_total(self, passes: int, policy) -> int:
        """``operand_fetches(occ, capacity, ...).sum()`` as an exact integer.

        Mirrors :func:`repro.model.traffic.operand_fetches` per policy:
        FIT/BUFFET re-fetch an overbooked tile in full on each of ``passes``
        scans; TAILORS keeps the resident head and re-streams only the bumped
        tail.
        """
        from repro.model.traffic import FetchPolicy

        if policy in (FetchPolicy.FIT, FetchPolicy.BUFFET):
            return self.fit_sum + passes * self.over_sum
        if policy is FetchPolicy.TAILORS:
            return (self.fit_sum + self.over_count * self.resident
                    + passes * self.bumped_sum)
        raise ValueError(f"unknown policy {policy!r}")


class Tiling:
    """A complete partitioning of a matrix into tiles (array-backed).

    Invariant (checked by :meth:`validate`): the tile occupancies sum to the
    matrix occupancy, i.e. every nonzero belongs to exactly one tile.

    The per-tile occupancies are stored as one read-only ``int64`` array (see
    :meth:`occupancies`); ``Tile`` objects are derived views created only on
    ``__getitem__``/iteration.  Treat instances as immutable — cached tiler
    results share them across accelerator variants.
    """

    __slots__ = ("matrix", "strategy", "tax", "_occupancies", "_geometry",
                 "_reductions")

    def __init__(self, matrix: SparseMatrix, strategy: str, occupancies,
                 geometry, tax: TilingTax | None = None):
        occ = check_non_negative_int_array(occupancies, "occupancies")
        if len(occ) != len(geometry):
            raise ValueError(
                f"occupancies ({len(occ)}) and geometry ({len(geometry)}) must align"
            )
        if occ.flags.writeable:
            occ = occ.copy() if occ is occupancies else occ
            occ.setflags(write=False)
        self.matrix = matrix
        self.strategy = str(strategy)
        self.tax = tax or TilingTax()
        self._occupancies = occ
        self._geometry = geometry
        self._reductions: dict = {}

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_grid(cls, matrix: SparseMatrix, tile_rows: int, tile_cols: int,
                  occupancies, strategy: str, tax: TilingTax | None = None) -> "Tiling":
        """A regular-grid tiling (uniform shape; boundary tiles clipped)."""
        geometry = GridGeometry(matrix.num_rows, matrix.num_cols, tile_rows, tile_cols)
        return cls(matrix, strategy, occupancies, geometry, tax)

    @classmethod
    def from_row_blocks(cls, matrix: SparseMatrix, block_rows: int,
                        occupancies, strategy: str,
                        tax: TilingTax | None = None) -> "Tiling":
        """A row-band tiling: ``block_rows`` rows × full matrix width."""
        geometry = GridGeometry(matrix.num_rows, matrix.num_cols,
                                block_rows, max(1, matrix.num_cols))
        return cls(matrix, strategy, occupancies, geometry, tax)

    @classmethod
    def from_bounds(cls, matrix: SparseMatrix, occupancies, row_starts, row_stops,
                    col_starts, col_stops, strategy: str,
                    tax: TilingTax | None = None) -> "Tiling":
        """A tiling with explicit per-tile bounding rectangles (PST)."""
        geometry = ExplicitGeometry(row_starts, row_stops, col_starts, col_stops)
        return cls(matrix, strategy, occupancies, geometry, tax)

    # ------------------------------------------------------------------ #
    # Per-tile views (lazy)
    # ------------------------------------------------------------------ #
    def _tile(self, index: int) -> Tile:
        row_range, col_range = self._geometry.ranges(index)
        return Tile(index=index, row_range=row_range, col_range=col_range,
                    occupancy=int(self._occupancies[index]))

    def __len__(self) -> int:
        return int(self._occupancies.size)

    def __iter__(self) -> Iterator[Tile]:
        return (self._tile(i) for i in range(len(self)))

    def __getitem__(self, index: int) -> Tile:
        num = len(self)
        if index < 0:
            index += num
        if not 0 <= index < num:
            raise IndexError(f"tile index {index} out of range for {num} tiles")
        return self._tile(index)

    @property
    def tiles(self) -> List[Tile]:
        """All tiles as materialized ``Tile`` views (compatibility accessor).

        This builds O(num_tiles) Python objects — bulk consumers should use
        :meth:`occupancies` and the vectorized statistics instead.
        """
        return list(self)

    @property
    def num_tiles(self) -> int:
        return len(self)

    # ------------------------------------------------------------------ #
    # Bulk (vectorized) statistics
    # ------------------------------------------------------------------ #
    def occupancies(self) -> np.ndarray:
        """Per-tile occupancies as a read-only integer array (in tile order)."""
        return self._occupancies

    def bound_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per-tile ``(row_starts, row_stops, col_starts, col_stops)`` arrays."""
        return self._geometry.bound_arrays()

    @property
    def total_occupancy(self) -> int:
        """Sum of tile occupancies (must equal the matrix nnz)."""
        return int(self._occupancies.sum()) if self._occupancies.size else 0

    @property
    def max_occupancy(self) -> int:
        return int(self._occupancies.max()) if self._occupancies.size else 0

    def overbooked_tiles(self, capacity: int) -> List[Tile]:
        """Tiles whose occupancy exceeds ``capacity`` (views built on demand)."""
        indices = np.nonzero(self._occupancies > capacity)[0]
        return [self._tile(int(i)) for i in indices]

    def overbooking_rate(self, capacity: int) -> float:
        """Fraction of tiles that overbook a buffer of ``capacity`` words."""
        if not self._occupancies.size:
            return 0.0
        return float((self._occupancies > capacity).mean())

    def bumped_elements(self, capacity: int) -> int:
        """Total nonzeros that do not fit across all overbooked tiles."""
        if not self._occupancies.size:
            return 0
        return int(np.maximum(self._occupancies - capacity, 0).sum())

    def occupancy_reductions(self, capacity: int,
                             fifo_words: int = 1) -> OccupancyReductions:
        """Cached exact reductions of the occupancies at one buffer config.

        The cache lives on the tiling instance, so everything that shares a
        (memoized) tiling — both memory levels, every grid configuration of a
        batched sweep — shares the reductions too.
        """
        check_positive_int(capacity, "capacity")
        check_positive_int(fifo_words, "fifo_words")
        key = (int(capacity), int(fifo_words))
        cached = self._reductions.get(key)
        if cached is None:
            occ = self._occupancies
            fits = occ <= capacity
            num_tiles = int(occ.size)
            total = int(occ.sum()) if num_tiles else 0
            fit_sum = int(occ[fits].sum()) if num_tiles else 0
            over_count = num_tiles - int(fits.sum()) if num_tiles else 0
            chunks = int(np.ceil(occ / capacity).sum()) if num_tiles else 0
            cached = OccupancyReductions(
                capacity=int(capacity),
                fifo_words=int(fifo_words),
                num_tiles=num_tiles,
                total=total,
                fit_sum=fit_sum,
                over_sum=total - fit_sum,
                over_count=over_count,
                chunks=chunks,
            )
            self._reductions[key] = cached
        return cached

    def buffer_utilization(self, capacity: int) -> float:
        """Average fraction of the buffer occupied while each tile is resident.

        A tile with occupancy above the capacity pins the buffer at 100%; a
        tile with lower occupancy utilizes ``occupancy / capacity``.  This is
        the adaptability metric of Table 1.
        """
        if not self._occupancies.size or capacity <= 0:
            return 0.0
        occupancies = np.minimum(self._occupancies, capacity)
        return float(occupancies.mean() / capacity)

    def validate(self) -> None:
        """Check the partition invariant; raise ``ValueError`` on violation."""
        if self.total_occupancy != self.matrix.nnz:
            raise ValueError(
                f"tiling of {self.matrix.name!r} covers {self.total_occupancy} nonzeros "
                f"but the matrix has {self.matrix.nnz}"
            )

    def summary(self) -> dict:
        """Small dict of headline statistics (used by reports and examples)."""
        occ = self._occupancies
        return {
            "strategy": self.strategy,
            "num_tiles": self.num_tiles,
            "max_occupancy": int(occ.max()) if occ.size else 0,
            "mean_occupancy": float(occ.mean()) if occ.size else 0.0,
            "total_occupancy": int(occ.sum()) if occ.size else 0,
        }
