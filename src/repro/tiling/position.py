"""Position-space tiling (PST): uniform-occupancy tiles.

PST partitions the *positions* of the nonzeros (their order in the compressed
representation) into consecutive runs of exactly the buffer capacity, so every
tile fills the buffer perfectly — the "uniform occupancy" strategy of Table 1.
The price is operand matching: because a tile's coordinate footprint is now an
arbitrary, data-dependent rectangle, finding the matching coordinates in the
other operand requires traversing that operand at runtime for every tile
(Section 2.2.2 and Fig. 2b).

The implementation records both the tiles (with their bounding rectangles,
which is what the operand-matching traversal has to cover) and the runtime
matching cost in the returned :class:`~repro.tiling.base.TilingTax`.
"""

from __future__ import annotations

import numpy as np

from repro.tensor.sparse import SparseMatrix
from repro.tiling.base import Tiling, TilingTax
from repro.utils.validation import check_positive_int


def position_space_tiling(matrix: SparseMatrix, capacity: int, *,
                          other_operand_nnz: int | None = None) -> Tiling:
    """Partition ``matrix`` into uniform-occupancy tiles of ``capacity`` nonzeros.

    Nonzeros are taken in row-major (CSR) order; each tile is a consecutive run
    of ``capacity`` of them (the final tile may be smaller).  Each tile records
    the bounding coordinate rectangle of its nonzeros.

    Parameters
    ----------
    matrix:
        The operand being tiled.
    capacity:
        Buffer capacity in nonzero elements; every tile except possibly the
        last has exactly this occupancy.
    other_operand_nnz:
        Occupancy of the other operand of the kernel.  When provided, the
        runtime operand-matching cost is modeled as one full traversal of the
        other operand per tile (the paper: "PST always incurs the cost of full
        B traversal for each tile of A"), and recorded in the tiling tax.
    """
    check_positive_int(capacity, "capacity")
    # CSR order: SparseMatrix keeps its indices sorted, so the coordinates
    # are already row-major.
    rows, cols = matrix.coordinates()

    nnz = len(rows)
    starts = np.arange(0, nnz, capacity, dtype=np.int64)
    stops = np.minimum(starts + capacity, nnz)
    num_tiles = len(starts)
    if num_tiles:
        # Per-run bounding rectangles in one pass (no per-tile Python objects).
        row_starts = np.minimum.reduceat(rows, starts)
        row_stops = np.maximum.reduceat(rows, starts) + 1
        col_starts = np.minimum.reduceat(cols, starts)
        col_stops = np.maximum.reduceat(cols, starts) + 1
    else:
        row_starts = row_stops = col_starts = col_stops = np.empty(0, dtype=np.int64)
    occupancies = stops - starts

    matching = 0
    if other_operand_nnz is not None and num_tiles:
        matching = int(other_operand_nnz) * num_tiles
    tax = TilingTax(runtime_matching_elements=matching)
    return Tiling.from_bounds(matrix, occupancies, row_starts, row_stops,
                              col_starts, col_stops, strategy="position-space",
                              tax=tax)
