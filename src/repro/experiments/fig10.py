"""Fig. 10: speedup of ExTensor-OB over ExTensor-P as a function of ``y``.

The paper sweeps the overbooking probability from 0% (no tile may overbook)
to 100% (every tile overbooks) and reports the speedup over ExTensor-P
averaged across workloads: a rise up to roughly y = 22%, a plateau around the
chosen y = 10%, and a collapse toward y = 100% where every tile pays the
re-streaming penalty.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.experiments.registry import register
from repro.experiments.runner import ExperimentContext
from repro.model.stats import geometric_mean
from repro.utils.text import format_series

#: The default sweep points (fractions of tiles allowed to overbook).
DEFAULT_SWEEP = (0.0, 0.05, 0.10, 0.15, 0.22, 0.30, 0.40, 0.50, 0.70, 0.85, 1.00)


@dataclass(frozen=True)
class Fig10Result:
    """Geometric-mean speedup over ExTensor-P at each swept ``y``."""

    y_values: List[float]
    speedups: List[float]
    workloads: List[str]

    @property
    def best_y(self) -> float:
        """The swept ``y`` with the highest mean speedup."""
        best_index = max(range(len(self.speedups)), key=lambda i: self.speedups[i])
        return self.y_values[best_index]

    def speedup_at(self, y: float) -> float:
        for value, speedup in zip(self.y_values, self.speedups):
            if abs(value - y) < 1e-9:
                return speedup
        raise KeyError(f"y={y} was not swept")


def evaluation_requests(context: ExperimentContext, *,
                        y_values: Sequence[float] = DEFAULT_SWEEP,
                        workloads: Sequence[str] | None = None):
    """Scheduler hook: the full ``y`` grid, plus the baseline at the context's y."""
    names = list(workloads) if workloads is not None else context.workload_names
    targets = [(context.overbooking_target, name) for name in names]
    targets.extend((float(y), name) for y in y_values for name in names)
    return targets


@register(name="fig10", artifact="Fig. 10",
          title="speedup of OB over P as a function of y",
          quick_params={"y_values": (0.0, 0.10, 0.30)})
def run(context: ExperimentContext, *, y_values: Sequence[float] = DEFAULT_SWEEP,
        workloads: Sequence[str] | None = None) -> Fig10Result:
    """Sweep ``y`` and measure the speedup of ExTensor-OB over ExTensor-P.

    ``workloads`` restricts the sweep to a subset of the suite (the default
    uses every workload, which is what the paper averages over).  Each swept
    ``y`` is evaluated through a derived context sharing this context's suite,
    so the sweep hits the process-wide report memo — including reports the
    parallel scheduler computed ahead of time.
    """
    names = list(workloads) if workloads is not None else context.workload_names
    prescient_cycles = {
        name: context.reports(name)[context.prescient_name].cycles for name in names
    }

    speedups: List[float] = []
    for y in y_values:
        swept = context.with_overbooking_target(float(y))
        ratios = []
        for name in names:
            report = swept.reports(name)[swept.overbooking_name]
            ratios.append(prescient_cycles[name] / report.cycles)
        speedups.append(geometric_mean(ratios))
    return Fig10Result(y_values=[float(y) for y in y_values],
                       speedups=speedups, workloads=names)


def format_result(result: Fig10Result) -> str:
    series = format_series(
        [f"{y:.0%}" for y in result.y_values],
        result.speedups,
        x_name="y (overbooked tiles)",
        y_name="speedup over ExTensor-P (geomean)",
        title="Fig. 10: ExTensor-OB speedup over ExTensor-P vs. overbooking probability",
    )
    return series + f"\n\nbest swept y: {result.best_y:.0%}"
