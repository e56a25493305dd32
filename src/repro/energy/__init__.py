"""Accelergy/CACTI-like energy estimation.

The paper evaluates energy with Accelergy plug-ins: synthesized RTL for the
datapath, an SRAM compiler for small SRAMs, and CACTI for large SRAMs
(Section 5.1).  This subpackage reproduces that methodology at the level the
analytical model needs: a table of per-action energies per component
(:mod:`repro.energy.accelergy`) whose defaults come from a CACTI-like
technology scaling model (:mod:`repro.energy.cacti`).
"""

from repro.energy.cacti import dram_access_energy_pj, sram_access_energy_pj
from repro.energy.accelergy import ComponentEnergy, EnergyModel, EnergyReport

__all__ = [
    "dram_access_energy_pj",
    "sram_access_energy_pj",
    "ComponentEnergy",
    "EnergyModel",
    "EnergyReport",
]
