"""Fig. 8: energy of ExTensor-P and ExTensor-OB relative to ExTensor-N.

The paper reports a geometric-mean energy reduction of 22.5× over ExTensor-N
and 2.5× over ExTensor-P for ExTensor-OB.  The reproduction reports the same
normalized energy-efficiency bars on the synthetic suite, plus the per-
component energy breakdown of the overbooked variant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.experiments.registry import register
from repro.experiments.runner import ExperimentContext
from repro.model.stats import geometric_mean
from repro.utils.text import format_table


@dataclass(frozen=True)
class EnergyRow:
    """Per-workload energy efficiency relative to ExTensor-N (higher = better)."""

    workload: str
    prescient_efficiency: float
    overbooking_efficiency: float
    overbooking_breakdown: Dict[str, float]

    @property
    def overbooking_vs_prescient(self) -> float:
        if self.prescient_efficiency == 0:
            return float("inf")
        return self.overbooking_efficiency / self.prescient_efficiency


@dataclass(frozen=True)
class Fig8Result:
    rows: List[EnergyRow]

    @property
    def geomean_prescient(self) -> float:
        return geometric_mean(r.prescient_efficiency for r in self.rows)

    @property
    def geomean_overbooking(self) -> float:
        return geometric_mean(r.overbooking_efficiency for r in self.rows)

    @property
    def geomean_overbooking_vs_prescient(self) -> float:
        return geometric_mean(r.overbooking_vs_prescient for r in self.rows)


@register(name="fig8", artifact="Fig. 8",
          title="energy relative to ExTensor-N")
def run(context: ExperimentContext) -> Fig8Result:
    """Evaluate energy efficiency of every workload on the three variants."""
    rows = []
    for name in context.workload_names:
        reports = context.reports(name)
        naive = reports[context.naive_name]
        prescient = reports[context.prescient_name]
        overbooking = reports[context.overbooking_name]
        rows.append(EnergyRow(
            workload=name,
            prescient_efficiency=prescient.energy_ratio_over(naive),
            overbooking_efficiency=overbooking.energy_ratio_over(naive),
            overbooking_breakdown={
                component: overbooking.energy.fraction(component)
                for component in overbooking.energy.per_component_pj
            },
        ))
    return Fig8Result(rows=rows)


def format_result(result: Fig8Result) -> str:
    body = [
        (r.workload, f"{r.prescient_efficiency:.1f}x", f"{r.overbooking_efficiency:.1f}x",
         f"{r.overbooking_vs_prescient:.2f}x",
         f"{r.overbooking_breakdown.get('dram', 0.0):.0%}")
        for r in result.rows
    ]
    body.append((
        "geomean",
        f"{result.geomean_prescient:.1f}x",
        f"{result.geomean_overbooking:.1f}x",
        f"{result.geomean_overbooking_vs_prescient:.2f}x",
        "",
    ))
    return format_table(
        ["Workload", "ExTensor-P eff.", "ExTensor-OB eff.", "OB / P",
         "OB DRAM energy share"],
        body,
        title="Fig. 8: energy efficiency normalized to ExTensor-N (higher is better)",
    )
