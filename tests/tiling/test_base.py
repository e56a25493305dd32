"""Tests for Tile / Tiling / TilingTax abstractions."""

import pytest

from repro.tensor.coords import Range
from repro.tiling.base import Tile, TilingTax
from repro.tiling.coordinate import row_block_tiling


class TestTile:
    def make(self, occupancy=3):
        return Tile(index=0, row_range=Range(0, 4), col_range=Range(0, 8),
                    occupancy=occupancy)

    def test_shape_and_size(self):
        tile = self.make()
        assert tile.shape == (4, 8)
        assert tile.size == 32

    def test_overbooks(self):
        assert self.make(occupancy=10).overbooks(8)
        assert not self.make(occupancy=8).overbooks(8)

    def test_bumped(self):
        assert self.make(occupancy=10).bumped(8) == 2
        assert self.make(occupancy=5).bumped(8) == 0

    def test_negative_occupancy_rejected(self):
        with pytest.raises(ValueError):
            Tile(index=0, row_range=Range(0, 1), col_range=Range(0, 1), occupancy=-1)


class TestTilingTax:
    def test_totals(self):
        tax = TilingTax(preprocessing_elements=100, candidate_sizes=3,
                        runtime_matching_elements=50)
        assert tax.total_elements == 150

    def test_default_is_free(self):
        assert TilingTax().total_elements == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            TilingTax(preprocessing_elements=-1)


class TestTiling:
    def test_occupancies_and_totals(self, tiny_dense_matrix):
        tiling = row_block_tiling(tiny_dense_matrix, 1)
        assert list(tiling.occupancies()) == [2, 0, 2, 1]
        assert tiling.total_occupancy == tiny_dense_matrix.nnz
        assert tiling.max_occupancy == 2

    def test_validate_passes_for_partition(self, banded):
        tiling = row_block_tiling(banded, 16)
        tiling.validate()

    def test_overbooked_tiles(self, tiny_dense_matrix):
        tiling = row_block_tiling(tiny_dense_matrix, 1)
        assert len(tiling.overbooked_tiles(1)) == 2
        assert tiling.overbooking_rate(1) == pytest.approx(0.5)
        assert tiling.overbooking_rate(2) == 0.0

    def test_bumped_elements(self, tiny_dense_matrix):
        tiling = row_block_tiling(tiny_dense_matrix, 1)
        assert tiling.bumped_elements(1) == 2

    def test_buffer_utilization_bounds(self, banded):
        tiling = row_block_tiling(banded, 16)
        for capacity in (1, 100, 10_000):
            assert 0.0 <= tiling.buffer_utilization(capacity) <= 1.0

    def test_buffer_utilization_full_when_capacity_tiny(self, banded):
        tiling = row_block_tiling(banded, 50)
        assert tiling.buffer_utilization(1) == pytest.approx(1.0)

    def test_iteration_and_indexing(self, tiny_dense_matrix):
        tiling = row_block_tiling(tiny_dense_matrix, 1)
        assert len(list(tiling)) == len(tiling) == 4
        assert tiling[0].index == 0

    def test_summary(self, tiny_dense_matrix):
        summary = row_block_tiling(tiny_dense_matrix, 1).summary()
        assert summary["num_tiles"] == 4
        assert summary["total_occupancy"] == 5
