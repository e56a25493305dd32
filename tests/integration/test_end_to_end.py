"""Integration tests: the full pipeline from matrix generation to reports."""

import pytest

from repro import (
    AcceleratorVariant,
    ExTensorModel,
    SwiftilesConfig,
    WorkloadDescriptor,
    scaled_default_config,
)
from repro.core.overbooking import OverbookingTiler, PrescientTiler
from repro.core.reuse import analytic_tailors_fetches
from repro.model.traffic import FetchPolicy, operand_fetches
from repro.tensor.generators import power_law_matrix


@pytest.fixture(scope="module")
def skewed_matrix():
    return power_law_matrix(1200, 18_000, alpha=1.5, rng=4, name="integration-graph")


class TestEndToEndPipeline:
    def test_overbooking_beats_prescient_on_skewed_workload(self, skewed_matrix):
        """The headline claim, end to end on a freshly generated workload."""
        config = scaled_default_config().with_overrides(glb_capacity_words=2048)
        model = ExTensorModel(config)
        reports = model.evaluate_matrix(skewed_matrix)
        prescient = reports["ExTensor-P"]
        overbooked = reports["ExTensor-OB"]
        assert overbooked.speedup_over(prescient) > 1.0
        assert overbooked.energy_ratio_over(prescient) > 0.9
        assert overbooked.glb_overbooking_rate > 0.0

    def test_traffic_consistency_with_tiling(self, skewed_matrix):
        """The engine's DRAM stationary traffic matches a hand computation."""
        config = scaled_default_config().with_overrides(glb_capacity_words=2048)
        model = ExTensorModel(config)
        workload = WorkloadDescriptor.gram(skewed_matrix)
        report = model.evaluate_variant(
            workload, AcceleratorVariant.overbooking(rng_seed=7))

        tiler = OverbookingTiler(SwiftilesConfig(overbooking_target=0.10), rng=7)
        tiling_a = tiler.tile(skewed_matrix, config.glb_capacity_words)
        # Column blocks of B = A^T are row blocks of (A^T)^T = A.
        tiling_b = tiler.tile(skewed_matrix, config.glb_capacity_words)
        import numpy as np
        chunks_b = int(np.ceil(
            tiling_b.tiling.occupancies() / config.glb_capacity_words).sum())
        passes = max(1, tiling_b.tiling.num_tiles, chunks_b)
        expected = operand_fetches(
            tiling_a.tiling.occupancies(), config.glb_capacity_words,
            fifo_words=config.glb_fifo_words, passes=passes,
            policy=FetchPolicy.TAILORS).sum() * config.traffic_words_per_nonzero
        assert report.traffic.dram.stationary_reads == pytest.approx(expected, rel=1e-6)

    def test_reuse_accounting_consistent_with_traffic_model(self):
        """The closed form used by the engine matches the per-tile policy."""
        import numpy as np
        occupancies = np.array([500, 2000, 9000])
        capacity, fifo, passes = 4096, 512, 7
        vectorized = operand_fetches(occupancies, capacity, fifo_words=fifo,
                                     passes=passes, policy=FetchPolicy.TAILORS)
        scalar = [analytic_tailors_fetches(int(o), capacity, fifo, passes)
                  for o in occupancies]
        assert list(vectorized) == scalar

    def test_prescient_matches_paper_definition(self, skewed_matrix):
        """ExTensor-P uses the largest block whose worst tile fits the buffer."""
        capacity = 2048
        result = PrescientTiler().tile(skewed_matrix, capacity)
        occ = skewed_matrix.row_block_occupancies(result.block_rows)
        assert occ.max() <= capacity

    def test_sweeping_y_changes_tile_size_monotonically(self, skewed_matrix):
        sizes = []
        for y in (0.02, 0.10, 0.30, 0.60):
            tiler = OverbookingTiler(
                SwiftilesConfig(overbooking_target=y, sample_all_tiles=True))
            sizes.append(tiler.tile(skewed_matrix, 2048).tile_size)
        assert all(a <= b for a, b in zip(sizes, sizes[1:]))

    def test_functional_correctness_of_workload(self, skewed_matrix):
        """The modeled workload's operation counts agree with a real multiply."""
        workload = WorkloadDescriptor.gram(skewed_matrix)
        product = workload.a.matmul(workload.b)
        assert workload.output_nonzeros == product.nnz
