"""Tests for the accelerator building blocks: config and PEs."""

import pytest

from repro.accelerator.config import ArchitectureConfig, paper_extensor_config, scaled_default_config
from repro.accelerator.pe import PEArray, ProcessingElement
from repro.tensor.einsum import MatmulWorkload
from repro.tensor.generators import uniform_random_matrix


class TestArchitectureConfig:
    def test_defaults_valid(self):
        config = scaled_default_config()
        assert config.num_pes > 0
        assert config.glb_fifo_words >= 1
        assert config.pe_fifo_words >= 1

    def test_paper_config_magnitudes(self):
        config = paper_extensor_config()
        assert config.num_pes == 128
        assert config.glb_capacity_words > 1_000_000
        assert config.dram_bandwidth_words_per_cycle > 10

    def test_traffic_words_per_nonzero(self):
        config = scaled_default_config()
        assert config.traffic_words_per_nonzero == pytest.approx(
            1.0 + config.metadata_words_per_nonzero)

    def test_with_overrides(self):
        config = scaled_default_config().with_overrides(num_pes=4)
        assert config.num_pes == 4
        assert config.glb_capacity_words == scaled_default_config().glb_capacity_words

    def test_invalid_fifo_fraction(self):
        with pytest.raises(ValueError):
            ArchitectureConfig(glb_fifo_fraction=0.0)

    def test_invalid_pe_count(self):
        with pytest.raises(ValueError):
            ArchitectureConfig(num_pes=0)


class TestPEArray:
    def test_single_pe_cycles(self):
        pe = ProcessingElement(macs_per_cycle=1.0)
        assert pe.compute_cycles(1000) == 1000

    def test_array_divides_work(self):
        array = PEArray(num_pes=10, utilization=1.0)
        assert array.compute_cycles(1000) == pytest.approx(100)

    def test_utilization_derating(self):
        ideal = PEArray(num_pes=4, utilization=1.0).compute_cycles(400)
        derated = PEArray(num_pes=4, utilization=0.5).compute_cycles(400)
        assert derated == pytest.approx(2 * ideal)

    def test_invalid_utilization(self):
        with pytest.raises(ValueError):
            PEArray(num_pes=4, utilization=0.0)

    def test_negative_work_rejected(self):
        with pytest.raises(ValueError):
            ProcessingElement().compute_cycles(-1)
