"""Result containers for the analytical model and ratio helpers for reports."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable

from repro.energy.accelergy import EnergyReport
from repro.model.traffic import LevelTraffic


@dataclass(frozen=True)
class TrafficBreakdown:
    """DRAM- and GLB-level traffic of one evaluation (units: words)."""

    dram: LevelTraffic
    global_buffer: LevelTraffic

    @property
    def dram_words(self) -> float:
        return self.dram.total_words

    @property
    def dram_overhead_fraction(self) -> float:
        """Fraction of baseline DRAM traffic spent streaming bumped data (Fig. 9a)."""
        return self.dram.overhead_fraction


@dataclass(frozen=True)
class PerformanceReport:
    """Outcome of evaluating one workload on one accelerator variant.

    The fields marked "(Fig. N)" are the quantities the corresponding paper
    figure plots; the experiment harness simply selects and formats them.
    """

    workload: str
    variant: str
    cycles: float
    energy: EnergyReport
    traffic: TrafficBreakdown
    effectual_multiplies: int
    output_nonzeros: int
    #: Rows per stationary-operand tile chosen by the variant's tiler (GLB level).
    glb_block_rows: int
    #: Fraction of GLB-level stationary tiles that overbook the buffer (Fig. 11).
    glb_overbooking_rate: float
    #: Average GLB utilization while tiles are resident (Table 1).
    glb_utilization: float
    #: Fraction of the stationary operand's nonzeros that are bumped (Fig. 9b).
    bumped_fraction: float
    #: Fraction of stationary-operand accesses served without a re-fetch (Fig. 9b).
    data_reuse_fraction: float
    #: Preprocessing + matching cost of the tiling strategy (Table 1).
    tiling_tax_elements: float
    #: Bound that limited the cycle count ("dram", "glb" or "compute").
    bound: str
    #: Free-form extras (per-level details, Swiftiles estimate, ...).
    details: Dict[str, float] = field(default_factory=dict)
    #: Kernel the workload instantiates ("gram", "spmspm", "spmm", ...).
    kernel: str = "gram"

    @property
    def total_energy_pj(self) -> float:
        return self.energy.total_pj

    @property
    def dram_words(self) -> float:
        return self.traffic.dram_words

    def speedup_over(self, baseline: "PerformanceReport") -> float:
        """How much faster this variant is than ``baseline`` (>1 = faster)."""
        if self.cycles <= 0:
            return math.inf
        return baseline.cycles / self.cycles

    def energy_ratio_over(self, baseline: "PerformanceReport") -> float:
        """How much less energy this variant uses than ``baseline`` (>1 = less)."""
        if self.total_energy_pj <= 0:
            return math.inf
        return baseline.total_energy_pj / self.total_energy_pj


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean of positive values (the aggregation used by Figs. 7/8)."""
    values = [float(v) for v in values]
    if not values:
        raise ValueError("geometric_mean of an empty sequence")
    if any(v <= 0 for v in values):
        raise ValueError("geometric_mean requires strictly positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))
