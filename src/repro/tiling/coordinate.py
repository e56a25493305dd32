"""Coordinate-space tiling (CST) strategies.

Two families are provided, matching the paper's baselines:

* :func:`row_block_tiling` constructs tiles of a fixed shape.  The shape can
  come from the *dense worst case* (:func:`dense_row_block_rows` —
  ExTensor-N's policy: assume every point is a nonzero, so a buffer of ``b``
  words affords ``b / K`` rows), or from the *prescient* search below.
* :func:`prescient_row_block_rows` implements the "prescient uniform shape"
  baseline (ExTensor-P): find the largest uniform tile whose maximum observed
  occupancy still fits the buffer.  The search must measure the occupancy of
  every tile for every candidate size; the returned
  :class:`~repro.tiling.base.TilingTax` records that cost, which is the "very
  high tiling tax" row of Table 1.

The ExTensor dataflow the paper evaluates builds tiles by expanding along the
shared K dimension to its full extent first, then along M (stationary operand)
or N (streaming operand) — that is precisely a *row-block* tiling of A and a
*column-block* tiling of B = Aᵀ (equivalently a row-block tiling of A again),
which is why the tilings here are row blocks.
"""

from __future__ import annotations

from typing import Tuple

from repro.tensor.sparse import SparseMatrix
from repro.tiling.base import Tiling, TilingTax
from repro.utils.validation import check_positive_int


def row_block_tiling(matrix: SparseMatrix, block_rows: int, *,
                     strategy: str = "row-block",
                     tax: TilingTax | None = None) -> Tiling:
    """Partition ``matrix`` into row bands of ``block_rows`` rows × full width."""
    check_positive_int(block_rows, "block_rows")
    occupancies = matrix.row_block_occupancies(block_rows)
    return Tiling.from_row_blocks(matrix, block_rows, occupancies,
                                  strategy=strategy, tax=tax)


def dense_row_block_rows(capacity: int, num_cols: int) -> int:
    """Rows per tile under the dense (worst-case) assumption.

    With no sparsity knowledge, a buffer of ``capacity`` words can only be
    guaranteed to hold ``capacity`` coordinate points, i.e.
    ``capacity // num_cols`` full rows (at least one).
    """
    check_positive_int(capacity, "capacity")
    check_positive_int(num_cols, "num_cols")
    return max(1, capacity // num_cols)


def prescient_row_block_rows(matrix: SparseMatrix, capacity: int,
                             *, max_rows: int | None = None) -> Tuple[int, TilingTax]:
    """Largest row-block height whose maximum block occupancy fits ``capacity``.

    This is the prescient uniform-shape baseline for the row-block dataflow.
    The search doubles the candidate height until the worst block no longer
    fits, then binary-searches the boundary.  Every candidate examined costs a
    full traversal of the tensor (``nnz`` elements), which is accumulated into
    the returned :class:`TilingTax` — the preprocessing cost the paper notes
    "can easily dominate the cost of the actual sparse tensor operation".
    """
    check_positive_int(capacity, "capacity")
    limit = max_rows or matrix.num_rows
    limit = min(limit, matrix.num_rows)

    candidates_examined = 0

    def max_occupancy(block_rows: int) -> int:
        nonlocal candidates_examined
        candidates_examined += 1
        return int(matrix.row_block_occupancies(block_rows).max())

    if matrix.nnz == 0 or max_occupancy(limit) <= capacity:
        tax = TilingTax(preprocessing_elements=candidates_examined * matrix.nnz,
                        candidate_sizes=candidates_examined)
        return limit, tax

    if max_occupancy(1) > capacity:
        # Even a single row can exceed the buffer; the prescient strategy has
        # no choice but to use one-row tiles (a single row is the smallest
        # uniform shape that still spans the full shared dimension).
        tax = TilingTax(preprocessing_elements=candidates_examined * matrix.nnz,
                        candidate_sizes=candidates_examined)
        return 1, tax

    # Exponential growth to bracket the boundary.
    low, high = 1, 2
    while high < limit and max_occupancy(high) <= capacity:
        low, high = high, min(high * 2, limit)
    # Binary search in (low, high].
    while low + 1 < high:
        mid = (low + high) // 2
        if max_occupancy(mid) <= capacity:
            low = mid
        else:
            high = mid
    tax = TilingTax(preprocessing_elements=candidates_examined * matrix.nnz,
                    candidate_sizes=candidates_examined)
    return low, tax
