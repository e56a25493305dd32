"""Cross-checks of the array-backed (SoA) ``Tiling`` against per-tile views.

The tiling layer stores per-tile occupancies as one NumPy array and derives
``Tile`` objects lazily.  These tests assert, for all three structure classes
the evaluation uses (FEM band, power-law graph, road network) and all three
tiling families (row-block, uniform 2-D grid, position-space), that every bulk
statistic equals the same statistic recomputed tile-by-tile from the ``Tile``
views — and that the bulk path never constructs a per-tile Python object.
"""

import numpy as np
import pytest

import repro.tiling.base as tiling_base
from repro.tensor.generators import (
    banded_matrix,
    power_law_matrix,
    road_network_matrix,
)
from repro.tiling.coordinate import row_block_tiling
from repro.tiling.position import position_space_tiling

CAPACITIES = (1, 37, 256, 4096)


def _structure_matrices():
    """One small matrix per structure class of the evaluation suite."""
    return [
        banded_matrix(200, bandwidth=6, band_fill=0.8, off_band_nnz=200, rng=1,
                      name="fem-band"),
        power_law_matrix(300, 3000, alpha=1.6, rng=2, name="power-law"),
        road_network_matrix(250, num_clusters=4, cluster_size=20,
                            cluster_fill=0.3, rng=3, name="road"),
    ]


def _tilings(matrix):
    return [
        row_block_tiling(matrix, 17),
        row_block_tiling(matrix, 48),
        position_space_tiling(matrix, 97, other_operand_nnz=matrix.nnz),
    ]


def _all_tilings():
    return [(m.name, t) for m in _structure_matrices() for t in _tilings(m)]


@pytest.fixture(scope="module", params=range(9))
def named_tiling(request):
    return _all_tilings()[request.param]


class TestArrayVsTileViews:
    def test_occupancies_match_views(self, named_tiling):
        _, tiling = named_tiling
        per_tile = [tile.occupancy for tile in tiling]
        assert per_tile == list(tiling.occupancies())

    def test_ranges_match_bound_arrays(self, named_tiling):
        _, tiling = named_tiling
        row_starts, row_stops, col_starts, col_stops = tiling.bound_arrays()
        for i, tile in enumerate(tiling):
            assert tile.index == i
            assert (tile.row_range.start, tile.row_range.stop) == \
                (row_starts[i], row_stops[i])
            assert (tile.col_range.start, tile.col_range.stop) == \
                (col_starts[i], col_stops[i])

    def test_partition_invariant(self, named_tiling):
        _, tiling = named_tiling
        tiling.validate()
        assert tiling.total_occupancy == tiling.matrix.nnz
        assert tiling.max_occupancy == max(t.occupancy for t in tiling)

    @pytest.mark.parametrize("capacity", CAPACITIES)
    def test_overbooking_rate_matches_views(self, named_tiling, capacity):
        _, tiling = named_tiling
        per_tile = sum(t.overbooks(capacity) for t in tiling) / len(tiling)
        assert tiling.overbooking_rate(capacity) == pytest.approx(per_tile)
        assert len(tiling.overbooked_tiles(capacity)) == \
            sum(t.overbooks(capacity) for t in tiling)

    @pytest.mark.parametrize("capacity", CAPACITIES)
    def test_bumped_elements_matches_views(self, named_tiling, capacity):
        _, tiling = named_tiling
        assert tiling.bumped_elements(capacity) == \
            sum(t.bumped(capacity) for t in tiling)

    @pytest.mark.parametrize("capacity", CAPACITIES)
    def test_buffer_utilization_matches_views(self, named_tiling, capacity):
        _, tiling = named_tiling
        per_tile = np.mean([min(t.occupancy, capacity) for t in tiling]) / capacity
        assert tiling.buffer_utilization(capacity) == pytest.approx(per_tile)

    def test_indexing_and_negative_indexing(self, named_tiling):
        _, tiling = named_tiling
        assert tiling[0].index == 0
        assert tiling[-1].index == len(tiling) - 1
        assert tiling[len(tiling) - 1].occupancy == tiling[-1].occupancy
        with pytest.raises(IndexError):
            tiling[len(tiling)]

    def test_tiles_property_materializes_views(self, named_tiling):
        _, tiling = named_tiling
        tiles = tiling.tiles
        assert len(tiles) == tiling.num_tiles
        assert all(isinstance(t, tiling_base.Tile) for t in tiles)


class TestBulkPathBuildsNoTiles:
    """The evaluation pipeline's statistics must not create Tile objects."""

    def test_bulk_statistics_never_construct_tiles(self, monkeypatch):
        matrix = power_law_matrix(300, 3000, alpha=1.6, rng=2, name="power-law")

        def _boom(*args, **kwargs):
            raise AssertionError("bulk path constructed a per-tile object")

        monkeypatch.setattr(tiling_base, "Tile", _boom)
        for tiling in _tilings(matrix):
            tiling.validate()
            tiling.occupancies()
            tiling.summary()
            for capacity in CAPACITIES:
                tiling.overbooking_rate(capacity)
                tiling.bumped_elements(capacity)
                tiling.buffer_utilization(capacity)

    def test_engine_pipeline_never_constructs_tiles(self, monkeypatch):
        from repro.experiments.runner import CACHE, ExperimentContext

        def _boom(*args, **kwargs):
            raise AssertionError("evaluation pipeline constructed a Tile")

        monkeypatch.setattr(tiling_base, "Tile", _boom)
        context = ExperimentContext.quick()
        # Empty the process cache so the pipeline really evaluates.
        CACHE.clear()
        name = context.workload_names[0]
        context.matrix(name).memo.clear()
        reports = context.reports(name)
        assert len(reports) == 3
