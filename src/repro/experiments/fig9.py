"""Fig. 9: impact of overbooking on DRAM traffic and data reuse.

Two panels are reproduced for the ExTensor-OB variant at y = 10%:

* **Fig. 9a** — the share of DRAM traffic spent streaming bumped data,
  relative to the baseline traffic of the same tiling with an infinitely
  large buffer (the paper reports a 26% average overhead);
* **Fig. 9b** — the percentage of data reused as a function of the percentage
  of data bumped, which the paper shows to be strongly (negatively)
  correlated, demonstrating that Tailors' efficacy depends on how much data
  is bumped rather than on particular sparsity patterns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.experiments.registry import register
from repro.experiments.runner import ExperimentContext
from repro.utils.text import format_table


@dataclass(frozen=True)
class ReuseRow:
    """Per-workload overbooking cost metrics (ExTensor-OB, y = 10%)."""

    workload: str
    overhead_fraction: float
    bumped_fraction: float
    data_reuse_fraction: float
    overbooking_rate: float


@dataclass(frozen=True)
class Fig9Result:
    rows: List[ReuseRow]

    @property
    def mean_overhead(self) -> float:
        return float(np.mean([r.overhead_fraction for r in self.rows]))

    @property
    def reuse_bumped_correlation(self) -> float:
        """Pearson correlation between bumped % and reuse % (expected < 0)."""
        bumped = np.array([r.bumped_fraction for r in self.rows])
        reuse = np.array([r.data_reuse_fraction for r in self.rows])
        if bumped.std() == 0 or reuse.std() == 0:
            return 0.0
        return float(np.corrcoef(bumped, reuse)[0, 1])

    def row(self, workload: str) -> ReuseRow:
        for entry in self.rows:
            if entry.workload == workload:
                return entry
        raise KeyError(workload)


@register(name="fig9", artifact="Fig. 9",
          title="streaming overhead and data reuse")
def run(context: ExperimentContext) -> Fig9Result:
    """Collect streaming-overhead and reuse statistics for ExTensor-OB."""
    rows = []
    for name in context.workload_names:
        report = context.reports(name)[context.overbooking_name]
        rows.append(ReuseRow(
            workload=name,
            overhead_fraction=report.traffic.dram_overhead_fraction,
            bumped_fraction=report.bumped_fraction,
            data_reuse_fraction=report.data_reuse_fraction,
            overbooking_rate=report.glb_overbooking_rate,
        ))
    return Fig9Result(rows=rows)


def format_result(result: Fig9Result) -> str:
    table = format_table(
        ["Workload", "Streaming overhead (9a)", "Bumped data % (9b x)",
         "Data reused % (9b y)", "Overbooked tiles %"],
        [
            (r.workload, f"{r.overhead_fraction:.1%}", f"{r.bumped_fraction:.1%}",
             f"{r.data_reuse_fraction:.1%}", f"{r.overbooking_rate:.0%}")
            for r in result.rows
        ],
        title="Fig. 9: overbooking overhead and data reuse (ExTensor-OB, y=10%)",
    )
    footer = (
        f"\n\naverage streaming overhead: {result.mean_overhead:.1%}"
        f"\ncorrelation(bumped %, reused %): {result.reuse_bumped_correlation:+.2f}"
    )
    return table + footer
