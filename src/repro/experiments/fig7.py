"""Fig. 7: speedup of ExTensor-P and ExTensor-OB relative to ExTensor-N.

The paper reports a geometric-mean speedup of 52.7× for ExTensor-OB over
ExTensor-N and 2.3× over ExTensor-P.  The reproduction computes the same
per-workload bars and geometric means on the synthetic suite; EXPERIMENTS.md
records the measured values next to the paper's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.experiments.registry import register
from repro.experiments.runner import ExperimentContext
from repro.model.stats import geometric_mean
from repro.utils.text import format_table


@dataclass(frozen=True)
class SpeedupRow:
    """Per-workload speedups relative to ExTensor-N."""

    workload: str
    prescient_speedup: float
    overbooking_speedup: float

    @property
    def overbooking_vs_prescient(self) -> float:
        if self.prescient_speedup == 0:
            return float("inf")
        return self.overbooking_speedup / self.prescient_speedup


@dataclass(frozen=True)
class Fig7Result:
    rows: List[SpeedupRow]

    @property
    def geomean_prescient(self) -> float:
        return geometric_mean(r.prescient_speedup for r in self.rows)

    @property
    def geomean_overbooking(self) -> float:
        return geometric_mean(r.overbooking_speedup for r in self.rows)

    @property
    def geomean_overbooking_vs_prescient(self) -> float:
        return geometric_mean(r.overbooking_vs_prescient for r in self.rows)

    def row(self, workload: str) -> SpeedupRow:
        for entry in self.rows:
            if entry.workload == workload:
                return entry
        raise KeyError(workload)


@register(name="fig7", artifact="Fig. 7",
          title="speedup over ExTensor-N")
def run(context: ExperimentContext) -> Fig7Result:
    """Evaluate all workloads on the three variants and compute speedups."""
    rows = []
    for name in context.workload_names:
        reports = context.reports(name)
        naive = reports[context.naive_name]
        prescient = reports[context.prescient_name]
        overbooking = reports[context.overbooking_name]
        rows.append(SpeedupRow(
            workload=name,
            prescient_speedup=prescient.speedup_over(naive),
            overbooking_speedup=overbooking.speedup_over(naive),
        ))
    return Fig7Result(rows=rows)


def format_result(result: Fig7Result) -> str:
    body = [
        (r.workload, f"{r.prescient_speedup:.1f}x", f"{r.overbooking_speedup:.1f}x",
         f"{r.overbooking_vs_prescient:.2f}x")
        for r in result.rows
    ]
    body.append((
        "geomean",
        f"{result.geomean_prescient:.1f}x",
        f"{result.geomean_overbooking:.1f}x",
        f"{result.geomean_overbooking_vs_prescient:.2f}x",
    ))
    return format_table(
        ["Workload", "ExTensor-P / ExTensor-N", "ExTensor-OB / ExTensor-N",
         "ExTensor-OB / ExTensor-P"],
        body,
        title="Fig. 7: speedup over ExTensor-N",
    )
