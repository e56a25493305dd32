"""Tests for the synthetic sparse matrix generators."""

import numpy as np
import pytest

from repro.tensor import generators


class TestUniformRandom:
    def test_shape_and_nnz(self):
        m = generators.uniform_random_matrix(100, 80, 500, rng=0)
        assert m.csr.shape == (100, 80)
        assert m.nnz == 500

    def test_values_are_ones(self):
        m = generators.uniform_random_matrix(50, 50, 100, rng=0)
        assert np.all(m.values() == 1.0)

    def test_deterministic_with_seed(self):
        a = generators.uniform_random_matrix(60, 60, 300, rng=5)
        b = generators.uniform_random_matrix(60, 60, 300, rng=5)
        assert a == b

    def test_different_seeds_differ(self):
        a = generators.uniform_random_matrix(60, 60, 300, rng=5)
        b = generators.uniform_random_matrix(60, 60, 300, rng=6)
        assert a != b

    def test_nnz_capped_at_size(self):
        m = generators.uniform_random_matrix(5, 5, 1000, rng=0)
        assert m.nnz <= 25

    def test_invalid_nnz_raises(self):
        with pytest.raises(ValueError):
            generators.uniform_random_matrix(10, 10, 0, rng=0)


class TestBanded:
    def test_square_shape(self):
        m = generators.banded_matrix(128, bandwidth=4, rng=0)
        assert m.csr.shape == (128, 128)

    def test_diagonal_fully_populated(self):
        m = generators.banded_matrix(64, bandwidth=3, band_fill=0.4, rng=0)
        assert np.all(np.diag(m.to_dense()) != 0)

    def test_band_structure_dominates(self):
        m = generators.banded_matrix(200, bandwidth=5, band_fill=0.9,
                                     off_band_nnz=0, rng=0)
        rows, cols = m.coordinates()
        assert np.all(np.abs(rows - cols) <= 5)

    def test_off_band_scatter_present(self):
        m = generators.banded_matrix(200, bandwidth=3, band_fill=0.5,
                                     off_band_nnz=500, rng=0)
        rows, cols = m.coordinates()
        assert np.any(np.abs(rows - cols) > 3)

    def test_density_scales_with_fill(self):
        sparse_fill = generators.banded_matrix(100, bandwidth=8, band_fill=0.2, rng=0)
        dense_fill = generators.banded_matrix(100, bandwidth=8, band_fill=0.9, rng=0)
        assert dense_fill.nnz > sparse_fill.nnz


class TestBlockDiagonal:
    def test_blocks_are_dense_regions(self):
        m = generators.block_diagonal_matrix(120, block_size=30, block_fill=0.6, rng=0)
        occ = m.tile_occupancies(30, 30)
        grid = 4
        diag_ids = [i * grid + i for i in range(grid)]
        diag_occ = occ[diag_ids].sum()
        assert diag_occ > 0.9 * occ.sum()

    def test_diagonal_populated(self):
        m = generators.block_diagonal_matrix(90, block_size=45, rng=0)
        assert np.all(np.diag(m.to_dense()) != 0)


class TestPowerLaw:
    def test_nnz_close_to_target(self):
        m = generators.power_law_matrix(500, 5000, alpha=1.6, rng=0)
        assert abs(m.nnz - 5000) / 5000 < 0.05

    def test_row_degrees_are_skewed(self):
        m = generators.power_law_matrix(800, 12_000, alpha=1.7, rng=1)
        degrees = np.sort(m.row_occupancies())[::-1]
        top_share = degrees[: len(degrees) // 20].sum() / m.nnz
        # The top 5% of rows should carry well above 5% of the nonzeros.
        assert top_share > 0.15

    def test_degree_cap_respected(self):
        m = generators.power_law_matrix(800, 10_000, alpha=1.4,
                                        max_degree_fraction=0.02, rng=1)
        # The cap limits the initial hub degrees; collisions and top-up keep
        # the realized maximum in the same ballpark.
        assert m.row_occupancies().max() <= 0.04 * m.nnz

    def test_deterministic(self):
        a = generators.power_law_matrix(300, 2500, rng=3)
        b = generators.power_law_matrix(300, 2500, rng=3)
        assert a == b

    def test_invalid_alpha_raises(self):
        with pytest.raises(ValueError):
            generators.power_law_matrix(100, 500, alpha=0.0, rng=0)


class TestRoadNetwork:
    def test_shape(self):
        m = generators.road_network_matrix(400, rng=0)
        assert m.csr.shape == (400, 400)

    def test_mostly_low_degree(self):
        m = generators.road_network_matrix(900, num_clusters=4, cluster_size=30,
                                            cluster_fill=0.3, rng=0)
        median_degree = np.median(m.row_occupancies())
        assert median_degree <= 8

    def test_clusters_create_skew(self):
        flat = generators.road_network_matrix(900, num_clusters=0, rng=1)
        clustered = generators.road_network_matrix(900, num_clusters=8,
                                                   cluster_size=60,
                                                   cluster_fill=0.4, rng=1)
        assert clustered.row_occupancies().max() > flat.row_occupancies().max()

    def test_deterministic(self):
        a = generators.road_network_matrix(300, rng=9)
        b = generators.road_network_matrix(300, rng=9)
        assert a == b


class TestDensityGradient:
    def test_shape_and_nnz(self):
        m = generators.density_gradient_matrix(200, 150, 2000, rng=0)
        assert m.csr.shape == (200, 150)
        assert 0.9 * 2000 <= m.nnz <= 2000

    def test_density_ramps_along_rows(self):
        m = generators.density_gradient_matrix(400, 400, 8000, gamma=2.0, rng=1)
        occupancies = m.row_occupancies()
        top = occupancies[:100].sum()
        bottom = occupancies[-100:].sum()
        assert bottom > 3 * top

    def test_gamma_zero_is_flat(self):
        m = generators.density_gradient_matrix(400, 400, 8000, gamma=0.0, rng=2)
        occupancies = m.row_occupancies()
        assert occupancies[-100:].sum() < 2 * occupancies[:100].sum()

    def test_larger_gamma_is_more_skewed(self):
        mild = generators.density_gradient_matrix(300, 300, 5000, gamma=0.5, rng=3)
        steep = generators.density_gradient_matrix(300, 300, 5000, gamma=4.0, rng=3)
        assert steep.row_occupancies().max() > mild.row_occupancies().max()

    def test_deterministic(self):
        a = generators.density_gradient_matrix(250, 250, 3000, gamma=2.0, rng=7)
        b = generators.density_gradient_matrix(250, 250, 3000, gamma=2.0, rng=7)
        assert a == b

    def test_nnz_capped_at_size(self):
        m = generators.density_gradient_matrix(10, 10, 1000, gamma=1.0, rng=0)
        assert m.nnz <= 100

    def test_negative_gamma_raises(self):
        with pytest.raises(ValueError):
            generators.density_gradient_matrix(100, 100, 500, gamma=-1.0, rng=0)
