"""Tests for position-space (uniform occupancy) tiling."""

import numpy as np
import pytest

from repro.tensor.sparse import SparseMatrix
from repro.tiling.position import position_space_tiling


class TestPositionSpaceTiling:
    def test_uniform_occupancy(self, powerlaw):
        capacity = 100
        tiling = position_space_tiling(powerlaw, capacity)
        occupancies = tiling.occupancies()
        assert all(occupancies[:-1] == capacity)
        assert 0 < occupancies[-1] <= capacity

    def test_partition(self, powerlaw):
        tiling = position_space_tiling(powerlaw, 128)
        tiling.validate()

    def test_number_of_tiles(self, powerlaw):
        capacity = 250
        tiling = position_space_tiling(powerlaw, capacity)
        assert tiling.num_tiles == -(-powerlaw.nnz // capacity)

    def test_perfect_buffer_utilization(self, powerlaw):
        tiling = position_space_tiling(powerlaw, 100)
        assert tiling.buffer_utilization(100) > 0.95

    def test_never_overbooks(self, powerlaw):
        tiling = position_space_tiling(powerlaw, 77)
        assert tiling.overbooking_rate(77) == 0.0

    def test_bounding_boxes_cover_nonzeros(self, tiny_dense_matrix):
        tiling = position_space_tiling(tiny_dense_matrix, 2)
        for tile in tiling:
            assert tile.num_rows >= 1 and tile.num_cols >= 1

    def test_operand_matching_tax(self, powerlaw):
        other_nnz = 12_345
        tiling = position_space_tiling(powerlaw, 100, other_operand_nnz=other_nnz)
        assert tiling.tax.runtime_matching_elements == other_nnz * tiling.num_tiles

    def test_no_tax_without_other_operand(self, powerlaw):
        tiling = position_space_tiling(powerlaw, 100)
        assert tiling.tax.total_elements == 0

    def test_invalid_capacity_raises(self, powerlaw):
        with pytest.raises(ValueError):
            position_space_tiling(powerlaw, 0)

    def test_capacity_larger_than_nnz(self, tiny_dense_matrix):
        tiling = position_space_tiling(tiny_dense_matrix, 1000)
        assert tiling.num_tiles == 1
        assert tiling[0].occupancy == tiny_dense_matrix.nnz


def _lexsorted_reference(matrix, capacity):
    """PST over explicitly lexsorted coordinates (the tiling's contract)."""
    rows, cols = matrix.coordinates()
    order = np.lexsort((cols, rows))
    rows, cols = rows[order], cols[order]
    starts = np.arange(0, len(rows), capacity)
    return (np.diff(np.append(starts, len(rows))),
            np.minimum.reduceat(rows, starts),
            np.maximum.reduceat(rows, starts) + 1,
            np.minimum.reduceat(cols, starts),
            np.maximum.reduceat(cols, starts) + 1)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_shuffled_coo_input_tiles_like_lexsorted_reference(seed):
    rng = np.random.default_rng(seed)
    flat = rng.choice(120 * 90, size=700, replace=False)
    rows, cols = np.divmod(rng.permutation(flat), 90)
    matrix = SparseMatrix.from_coo(rows, cols, None, (120, 90))

    got_rows, got_cols = matrix.coordinates()
    keys = got_rows * 90 + got_cols
    assert np.all(np.diff(keys) > 0)  # strictly row-major

    capacity = 64
    tiling = position_space_tiling(matrix, capacity)
    expected = _lexsorted_reference(matrix, capacity)
    np.testing.assert_array_equal(tiling.occupancies(), expected[0])
    for got, want in zip(tiling.bound_arrays(), expected[1:]):
        np.testing.assert_array_equal(got, want)
