"""DenseOperand answers every operand query exactly as a dense SparseMatrix.

A dense streaming factor is described by its shape alone.  These properties
pin that description to the materialized operand it replaces,
``SparseMatrix.from_dense(np.ones((r, c)))``, through the statistics, the
row-band occupancies, the transpose and all three tilers.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.overbooking import NaiveTiler, OverbookingTiler, PrescientTiler
from repro.core.swiftiles import SwiftilesConfig
from repro.tensor.sparse import DenseOperand, SparseMatrix

ROWS = st.integers(min_value=1, max_value=300)
COLS = st.integers(min_value=1, max_value=64)


def _pair(rows, cols):
    return (DenseOperand(rows, cols, name="dense"),
            SparseMatrix.from_dense(np.ones((rows, cols)), name="dense"))


def _assert_same_stats(dense, sparse):
    assert (dense.num_rows, dense.num_cols) == (sparse.num_rows,
                                                sparse.num_cols)
    assert dense.nnz == sparse.nnz
    assert dense.size == sparse.size
    assert dense.density == sparse.density
    assert dense.sparsity == sparse.sparsity
    np.testing.assert_array_equal(dense.row_occupancies(),
                                  sparse.row_occupancies())


@settings(max_examples=200, deadline=None)
@given(rows=ROWS, cols=COLS, block_rows=st.integers(min_value=1,
                                                    max_value=320))
def test_statistics_and_row_blocks_match_dense_matrix(rows, cols, block_rows):
    dense, sparse = _pair(rows, cols)
    _assert_same_stats(dense, sparse)
    occupancies = dense.row_block_occupancies(block_rows)
    assert occupancies.dtype == np.int64
    assert not occupancies.flags.writeable
    np.testing.assert_array_equal(occupancies,
                                  sparse.row_block_occupancies(block_rows))
    assert dense.row_block_occupancies(block_rows) is occupancies

    transposed = dense.transpose()
    assert transposed.name == sparse.transpose().name == "dense.T"
    _assert_same_stats(transposed, sparse.transpose())
    np.testing.assert_array_equal(
        transposed.row_block_occupancies(block_rows),
        sparse.transpose().row_block_occupancies(block_rows))
    assert transposed.transpose() is dense
    assert dense.transpose() is transposed


def _assert_same_result(dense_result, sparse_result):
    assert dense_result.block_rows == sparse_result.block_rows
    assert dense_result.tile_size == sparse_result.tile_size
    assert dense_result.tax == sparse_result.tax
    np.testing.assert_array_equal(dense_result.tiling.occupancies(),
                                  sparse_result.tiling.occupancies())
    for dense_bounds, sparse_bounds in zip(
            dense_result.tiling.bound_arrays(),
            sparse_result.tiling.bound_arrays()):
        np.testing.assert_array_equal(dense_bounds, sparse_bounds)


@settings(max_examples=200, deadline=None)
@given(rows=ROWS, cols=COLS,
       capacity=st.integers(min_value=1, max_value=40_000),
       y=st.sampled_from([0.02, 0.05, 0.10, 0.22, 0.5]),
       transpose=st.booleans())
def test_tilers_match_dense_matrix(rows, cols, capacity, y, transpose):
    dense, sparse = _pair(rows, cols)
    if transpose:
        dense, sparse = dense.transpose(), sparse.transpose()
    for make_tiler in (NaiveTiler, PrescientTiler,
                       lambda: OverbookingTiler(
                           SwiftilesConfig(overbooking_target=y))):
        dense_result = make_tiler().tile(dense, capacity)
        sparse_result = make_tiler().tile(sparse, capacity)
        _assert_same_result(dense_result, sparse_result)
        dense_result.tiling.validate()
    dense_est, sparse_est = dense_result.swiftiles, sparse_result.swiftiles
    assert dense_est.quantile_occupancy == sparse_est.quantile_occupancy
    assert dense_est.target_size == sparse_est.target_size
    assert dense_est.initial_size == sparse_est.initial_size
    np.testing.assert_array_equal(dense_est.sampled_occupancies,
                                  sparse_est.sampled_occupancies)


def test_tiler_results_are_memoized_per_operand():
    dense = DenseOperand(40, 8)
    tiler = NaiveTiler()
    assert tiler.tile(dense, 64) is tiler.tile(dense, 64)
    assert tiler.tile(dense.transpose(), 64) is not tiler.tile(dense, 64)
    assert dense.uid != dense.transpose().uid


def test_has_no_materialized_storage():
    dense = DenseOperand(5, 3)
    assert not hasattr(dense, "csr")
    assert not hasattr(dense, "coordinates")


@pytest.mark.parametrize("rows,cols", [(0, 3), (3, 0), (-1, 2)])
def test_rejects_empty_shapes(rows, cols):
    with pytest.raises(ValueError):
        DenseOperand(rows, cols)


def test_rejects_non_positive_block_rows():
    with pytest.raises(ValueError):
        DenseOperand(4, 4).row_block_occupancies(0)
