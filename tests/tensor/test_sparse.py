"""Tests for the SparseMatrix workhorse."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tensor.sparse import SparseMatrix


class TestConstruction:
    def test_from_dense_drops_zeros(self, tiny_dense_matrix):
        assert tiny_dense_matrix.nnz == 5

    def test_from_coo(self):
        m = SparseMatrix.from_coo([0, 1, 2], [2, 0, 1], [1.0, 2.0, 3.0], (3, 3))
        assert m.nnz == 3
        assert m.to_dense()[0, 2] == 1.0

    def test_from_coo_defaults_to_ones(self):
        m = SparseMatrix.from_coo([0, 1], [1, 0], None, (2, 2))
        assert np.all(m.values() == 1.0)

    def test_from_coo_duplicates_are_summed(self):
        m = SparseMatrix.from_coo([0, 0], [0, 0], [1.0, 2.0], (1, 1))
        assert m.nnz == 1
        assert m.to_dense()[0, 0] == 3.0

    def test_from_coo_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            SparseMatrix.from_coo([0], [0, 1], None, (2, 2))

    def test_explicit_zeros_eliminated(self):
        m = SparseMatrix.from_coo([0, 1], [0, 1], [0.0, 2.0], (2, 2))
        assert m.nnz == 1

    def test_equality(self, tiny_dense_matrix):
        clone = SparseMatrix(tiny_dense_matrix.csr, name="other-name")
        assert tiny_dense_matrix == clone

    def test_inequality(self, tiny_dense_matrix):
        assert tiny_dense_matrix != SparseMatrix(sp.identity(4))


class TestProperties:
    def test_shape_and_size(self, tiny_dense_matrix):
        assert tiny_dense_matrix.num_rows == 4
        assert tiny_dense_matrix.num_cols == 4
        assert tiny_dense_matrix.size == 16

    def test_density_and_sparsity_sum_to_one(self, tiny_dense_matrix):
        assert tiny_dense_matrix.density + tiny_dense_matrix.sparsity == pytest.approx(1.0)

    def test_sparsity_value(self, tiny_dense_matrix):
        assert tiny_dense_matrix.sparsity == pytest.approx(11 / 16)

    def test_name(self, tiny_dense_matrix):
        assert tiny_dense_matrix.name == "tiny"


class TestStructureQueries:
    def test_row_occupancies(self, tiny_dense_matrix):
        assert list(tiny_dense_matrix.row_occupancies()) == [2, 0, 2, 1]

    def test_col_occupancies(self, tiny_dense_matrix):
        assert list(tiny_dense_matrix.col_occupancies()) == [2, 1, 1, 1]

    def test_occupancy_sums_match_nnz(self, powerlaw):
        assert powerlaw.row_occupancies().sum() == powerlaw.nnz
        assert powerlaw.col_occupancies().sum() == powerlaw.nnz

    def test_coordinates_roundtrip(self, tiny_dense_matrix):
        rows, cols = tiny_dense_matrix.coordinates()
        rebuilt = SparseMatrix.from_coo(rows, cols, tiny_dense_matrix.values(), (4, 4))
        assert rebuilt == tiny_dense_matrix

    def test_transpose_preserves_nnz(self, powerlaw):
        assert powerlaw.transpose().nnz == powerlaw.nnz

    def test_transpose_is_involution(self, tiny_dense_matrix):
        assert tiny_dense_matrix.transpose().transpose() == tiny_dense_matrix


class TestTileOccupancies:
    def test_grid_size(self, tiny_dense_matrix):
        occ = tiny_dense_matrix.tile_occupancies(2, 2)
        assert occ.shape == (4,)

    def test_counts(self, tiny_dense_matrix):
        occ = tiny_dense_matrix.tile_occupancies(2, 2)
        assert list(occ) == [1, 1, 2, 1]

    def test_sum_equals_nnz(self, banded):
        for tile in (7, 16, 33):
            assert banded.tile_occupancies(tile, tile).sum() == banded.nnz

    def test_exclude_empty(self, tiny_dense_matrix):
        occ = tiny_dense_matrix.tile_occupancies(1, 1, include_empty=False)
        assert len(occ) == 5
        assert all(occ == 1)

    def test_row_block_occupancies_sum(self, powerlaw):
        for block in (1, 7, 64, 1000):
            assert powerlaw.row_block_occupancies(block).sum() == powerlaw.nnz

    def test_row_block_matches_row_occupancies(self, tiny_dense_matrix):
        assert list(tiny_dense_matrix.row_block_occupancies(1)) == [2, 0, 2, 1]

    def test_invalid_tile_shape_raises(self, tiny_dense_matrix):
        with pytest.raises(ValueError):
            tiny_dense_matrix.tile_occupancies(0, 4)


class TestAlgebra:
    def test_matmul_matches_numpy(self, tiny_dense_matrix):
        other = SparseMatrix(sp.identity(4))
        product = tiny_dense_matrix.matmul(other)
        assert product == tiny_dense_matrix

    def test_matmul_dimension_mismatch_raises(self, tiny_dense_matrix):
        with pytest.raises(ValueError):
            tiny_dense_matrix.matmul(SparseMatrix(sp.identity(3)))


@settings(max_examples=25, deadline=None)
@given(
    rows=st.integers(min_value=1, max_value=30),
    cols=st.integers(min_value=1, max_value=30),
    tile_rows=st.integers(min_value=1, max_value=8),
    tile_cols=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_property_tile_occupancies_partition_nnz(rows, cols, tile_rows, tile_cols, seed):
    """Every nonzero lands in exactly one tile, for any matrix and tile shape."""
    rng = np.random.default_rng(seed)
    dense = (rng.random((rows, cols)) < 0.3).astype(float)
    matrix = SparseMatrix.from_dense(dense)
    occupancies = matrix.tile_occupancies(tile_rows, tile_cols)
    assert len(occupancies) == -(-rows // tile_rows) * -(-cols // tile_cols)
    assert occupancies.sum() == matrix.nnz


@settings(max_examples=25, deadline=None)
@given(
    rows=st.integers(min_value=1, max_value=40),
    block=st.integers(min_value=1, max_value=50),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_property_row_blocks_partition_nnz(rows, block, seed):
    """Row-block occupancies always partition the matrix occupancy."""
    rng = np.random.default_rng(seed)
    dense = (rng.random((rows, 17)) < 0.25).astype(float)
    matrix = SparseMatrix.from_dense(dense)
    occupancies = matrix.row_block_occupancies(block)
    assert occupancies.sum() == matrix.nnz
    assert len(occupancies) == -(-rows // block)
