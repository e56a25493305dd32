"""Tests for the analytical engine, result containers, and variant wiring."""

import math

import pytest

from repro.accelerator.config import scaled_default_config
from repro.accelerator.extensor import (
    AcceleratorVariant,
    ExTensorModel,
    default_variants,
)
from repro.model.sparsity import TileOccupancyModel
from repro.model.stats import (
    PerformanceReport,
    geometric_mean,
)
from repro.model.workload import WorkloadDescriptor
from repro.core.overbooking import PrescientTiler


class TestGeometricMean:
    def test_known_value(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)

    def test_single_value(self):
        assert geometric_mean([7.0]) == pytest.approx(7.0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            geometric_mean([])

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])


class TestWorkloadDescriptor:
    def test_gram_construction(self, powerlaw):
        workload = WorkloadDescriptor.gram(powerlaw)
        assert workload.name == powerlaw.name
        assert workload.b == powerlaw.transpose()

    def test_counts_cached(self, powerlaw):
        workload = WorkloadDescriptor.gram(powerlaw)
        first = workload.operation_counts
        assert workload.operation_counts is first


class TestTileOccupancyModel:
    def test_from_tiler(self, powerlaw):
        model = TileOccupancyModel.from_tiler(
            powerlaw, PrescientTiler(), operand="A", level="global_buffer",
            capacity=400, fifo_words=50)
        assert model.total_nonzeros == powerlaw.nnz
        assert model.overbooking_rate == 0.0
        assert 0.0 <= model.buffer_utilization <= 1.0
        assert model.bumped_elements == 0
        assert model.stats is not None

    def test_resident_capacity(self, powerlaw):
        model = TileOccupancyModel.from_tiler(
            powerlaw, PrescientTiler(), operand="A", level="pe_buffer",
            capacity=100, fifo_words=30)
        assert model.resident_capacity == 70


class TestExTensorModel:
    @pytest.fixture(scope="class")
    def reports(self, test_suite):
        model = ExTensorModel()
        return model.evaluate_matrix(test_suite.matrix("tiny-fem")), model

    def test_all_variants_present(self, reports):
        result, model = reports
        assert set(result) == set(model.variant_names())

    def test_reports_are_positive(self, reports):
        result, _ = reports
        for report in result.values():
            assert report.cycles > 0
            assert report.total_energy_pj > 0
            assert report.dram_words > 0

    def test_bound_is_labelled(self, reports):
        result, _ = reports
        assert all(r.bound in ("dram", "glb", "compute") for r in result.values())

    def test_sparsity_aware_variants_beat_naive(self, reports):
        result, _ = reports
        naive = result["ExTensor-N"]
        assert result["ExTensor-P"].speedup_over(naive) > 1.0
        assert result["ExTensor-OB"].speedup_over(naive) > 1.0

    def test_effectual_multiplies_identical_across_variants(self, reports):
        result, _ = reports
        values = {r.effectual_multiplies for r in result.values()}
        assert len(values) == 1

    def test_prescient_never_overbooks(self, reports):
        result, _ = reports
        assert result["ExTensor-P"].glb_overbooking_rate == 0.0

    def test_speedup_and_energy_helpers(self, reports):
        result, _ = reports
        naive = result["ExTensor-N"]
        assert naive.speedup_over(naive) == pytest.approx(1.0)
        assert naive.energy_ratio_over(naive) == pytest.approx(1.0)

    def test_variant_naming(self):
        assert AcceleratorVariant.overbooking().name == "ExTensor-OB"
        assert "25%" in AcceleratorVariant.overbooking(overbooking_target=0.25).name

    def test_default_variants(self):
        names = [v.name for v in default_variants()]
        assert names == ["ExTensor-N", "ExTensor-P", "ExTensor-OB"]

    def test_evaluate_variant_single(self, test_suite):
        model = ExTensorModel()
        workload = WorkloadDescriptor.gram(test_suite.matrix("tiny-social"))
        report = model.evaluate_variant(workload, AcceleratorVariant.prescient())
        assert isinstance(report, PerformanceReport)
        assert report.variant == "ExTensor-P"

    def test_larger_buffer_never_hurts_prescient(self, test_suite):
        workload = WorkloadDescriptor.gram(test_suite.matrix("tiny-social"))
        small = ExTensorModel(scaled_default_config().with_overrides(glb_capacity_words=512))
        large = ExTensorModel(scaled_default_config().with_overrides(glb_capacity_words=8192))
        cycles_small = small.evaluate_variant(workload, AcceleratorVariant.prescient()).cycles
        cycles_large = large.evaluate_variant(workload, AcceleratorVariant.prescient()).cycles
        assert cycles_large <= cycles_small * 1.001

    def test_traffic_overhead_zero_for_prescient(self, reports):
        result, _ = reports
        assert result["ExTensor-P"].traffic.dram_overhead_fraction == pytest.approx(0.0)

    def test_data_reuse_fraction_bounds(self, reports):
        result, _ = reports
        for report in result.values():
            assert 0.0 <= report.data_reuse_fraction <= 1.0

    def test_details_present(self, reports):
        result, _ = reports
        details = result["ExTensor-OB"].details
        assert details["num_a_glb_tiles"] >= 1
        assert not math.isnan(details["dram_cycles"])
