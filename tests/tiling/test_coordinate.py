"""Tests for coordinate-space tiling (row blocks, dense, prescient)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tensor.generators import power_law_matrix, uniform_random_matrix
from repro.tiling.coordinate import (
    dense_row_block_rows,
    prescient_row_block_rows,
    row_block_tiling,
)


class TestRowBlockTiling:
    def test_partition(self, banded):
        tiling = row_block_tiling(banded, 13)
        tiling.validate()
        assert tiling.num_tiles == -(-banded.num_rows // 13)

    def test_zero_tax_by_default(self, banded):
        assert row_block_tiling(banded, 13).tax.total_elements == 0

    def test_col_range_spans_matrix(self, banded):
        tiling = row_block_tiling(banded, 13)
        assert all(len(t.col_range) == banded.num_cols for t in tiling)

    def test_single_block(self, banded):
        tiling = row_block_tiling(banded, banded.num_rows)
        assert tiling.num_tiles == 1
        assert tiling[0].occupancy == banded.nnz


class TestDenseRowBlockRows:
    def test_basic(self):
        assert dense_row_block_rows(1000, 100) == 10

    def test_at_least_one_row(self):
        assert dense_row_block_rows(10, 100) == 1

    def test_invalid_raises(self):
        with pytest.raises(ValueError):
            dense_row_block_rows(0, 100)


class TestPrescientRowBlock:
    def test_max_occupancy_fits(self, powerlaw):
        capacity = 400
        block, _ = prescient_row_block_rows(powerlaw, capacity)
        assert powerlaw.row_block_occupancies(block).max() <= capacity

    def test_is_maximal(self, powerlaw):
        capacity = 400
        block, _ = prescient_row_block_rows(powerlaw, capacity)
        if block < powerlaw.num_rows:
            assert powerlaw.row_block_occupancies(block + 1).max() > capacity

    def test_whole_matrix_when_it_fits(self, powerlaw):
        block, _ = prescient_row_block_rows(powerlaw, powerlaw.nnz + 1)
        assert block == powerlaw.num_rows

    def test_falls_back_to_single_row(self):
        matrix = uniform_random_matrix(20, 200, 2000, rng=0)
        block, _ = prescient_row_block_rows(matrix, 5)
        assert block == 1

    def test_tax_records_traversals(self, powerlaw):
        _, tax = prescient_row_block_rows(powerlaw, 500)
        assert tax.candidate_sizes >= 1
        assert tax.preprocessing_elements == tax.candidate_sizes * powerlaw.nnz


@settings(max_examples=20, deadline=None)
@given(
    capacity=st.integers(min_value=10, max_value=3000),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_property_prescient_never_overbooks(capacity, seed):
    """The prescient tile size never produces a tile above the capacity."""
    matrix = power_law_matrix(150, 1500, alpha=1.5, rng=seed)
    block, _ = prescient_row_block_rows(matrix, capacity)
    occupancies = matrix.row_block_occupancies(block)
    single_row_max = matrix.row_block_occupancies(1).max()
    if single_row_max <= capacity:
        assert occupancies.max() <= capacity
    else:
        # Degenerate case: even one row exceeds the buffer; prescient tiling
        # falls back to single-row tiles.
        assert block == 1


@settings(max_examples=20, deadline=None)
@given(
    block=st.integers(min_value=1, max_value=200),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_property_row_block_tiling_partitions(block, seed):
    """Row-block tilings are partitions for any block height."""
    matrix = uniform_random_matrix(97, 61, 900, rng=seed)
    tiling = row_block_tiling(matrix, block)
    tiling.validate()
    assert sum(len(t.row_range) for t in tiling) == matrix.num_rows
