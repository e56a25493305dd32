"""Tests for the CACTI-like energy scaling model."""

import pytest

from repro.energy import cacti


class TestDramEnergy:
    def test_positive(self):
        assert cacti.dram_access_energy_pj() > 0

    def test_scales_with_width(self):
        assert cacti.dram_access_energy_pj(64) == pytest.approx(
            2 * cacti.dram_access_energy_pj(32))

    def test_dominates_sram(self):
        assert cacti.dram_access_energy_pj() > 4 * cacti.sram_access_energy_pj(1 << 20)
        assert cacti.dram_access_energy_pj() > 50 * cacti.sram_access_energy_pj(1024)


class TestSramEnergy:
    def test_monotone_in_capacity(self):
        energies = [cacti.sram_access_energy_pj(c) for c in (256, 1024, 8192, 1 << 20)]
        assert all(a <= b for a, b in zip(energies, energies[1:]))

    def test_sqrt_scaling(self):
        assert cacti.sram_access_energy_pj(4096) == pytest.approx(
            2 * cacti.sram_access_energy_pj(1024))

    def test_floor_for_tiny_buffers(self):
        assert cacti.sram_access_energy_pj(1) >= 0.08

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            cacti.sram_access_energy_pj(0)


class TestAreaAndDatapath:
    def test_mac_energy_positive(self):
        assert cacti.mac_energy_pj() > 0

    def test_mac_energy_scales_quadratically(self):
        assert cacti.mac_energy_pj(64) == pytest.approx(4 * cacti.mac_energy_pj(32))

    def test_intersection_energy_small(self):
        assert 0 < cacti.intersection_step_energy_pj() < cacti.mac_energy_pj()
