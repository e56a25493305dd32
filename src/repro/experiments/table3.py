"""Table 3 (extension): overbooking benefit across the kernel family.

The paper evaluates overbooking on a single kernel — the Gram SpMSpM.  The
kernel-pluggable workload layer (:mod:`repro.tensor.kernels`) makes the same
question answerable for every kernel: *how much of the overbooking win
survives when the streaming operand is a distinct sparse matrix (SpMSpM), a
dense feature factor (SpMM), a vector (SpMV), or when the sparse tensor only
samples a dense product (SDDMM)?*

For each kernel the experiment evaluates every suite workload on all three
variants (ExTensor-N / -P / -OB) and reports the geometric-mean speedups and
energy ratio plus the mean GLB overbooking rate — one row per kernel, in the
style of the paper's tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.experiments.registry import register
from repro.experiments.runner import ExperimentContext
from repro.model.stats import geometric_mean
from repro.tensor.kernels import kernel_names, kernel_spec
from repro.utils.text import format_table

#: Kernel order of the table: the paper's kernel first, then the extensions.
DEFAULT_KERNELS = kernel_names()


@dataclass(frozen=True)
class KernelRow:
    """Aggregated overbooking outcome of one kernel over the suite."""

    kernel: str
    einsum: str
    geomean_speedup_ob_vs_naive: float
    geomean_speedup_ob_vs_prescient: float
    geomean_energy_ratio_ob_vs_naive: float
    mean_glb_overbooking_rate: float
    mean_ob_bound_fraction_dram: float


@dataclass(frozen=True)
class Table3Result:
    """One :class:`KernelRow` per evaluated kernel."""

    workloads: List[str]
    overbooking_target: float
    rows: List[KernelRow]


@register(name="table3", artifact="Table 3",
          title="overbooking benefit across kernels",
          kernels=DEFAULT_KERNELS)
def run(context: ExperimentContext,
        kernels: Sequence[str] = DEFAULT_KERNELS) -> Table3Result:
    """Evaluate the suite under every kernel and aggregate per kernel."""
    rows: List[KernelRow] = []
    for kernel in kernels:
        ctx = context.with_kernel(kernel)
        speedups_n, speedups_p, energy_ratios, ob_rates, dram_bound = \
            [], [], [], [], []
        for name in ctx.workload_names:
            reports = ctx.reports(name)
            naive = reports[ctx.naive_name]
            prescient = reports[ctx.prescient_name]
            overbooking = reports[ctx.overbooking_name]
            speedups_n.append(overbooking.speedup_over(naive))
            speedups_p.append(overbooking.speedup_over(prescient))
            energy_ratios.append(overbooking.energy_ratio_over(naive))
            ob_rates.append(overbooking.glb_overbooking_rate)
            dram_bound.append(1.0 if overbooking.bound == "dram" else 0.0)
        rows.append(KernelRow(
            kernel=kernel,
            einsum=kernel_spec(kernel).einsum,
            geomean_speedup_ob_vs_naive=geometric_mean(speedups_n),
            geomean_speedup_ob_vs_prescient=geometric_mean(speedups_p),
            geomean_energy_ratio_ob_vs_naive=geometric_mean(energy_ratios),
            mean_glb_overbooking_rate=float(np.mean(ob_rates)),
            mean_ob_bound_fraction_dram=float(np.mean(dram_bound)),
        ))
    return Table3Result(
        workloads=list(context.workload_names),
        overbooking_target=context.overbooking_target,
        rows=rows,
    )


def evaluation_requests(context: ExperimentContext,
                        kernels: Sequence[str] = DEFAULT_KERNELS):
    """Announce the ``(y, workload, kernel)`` grid to the scheduler."""
    return [(context.overbooking_target, name, kernel)
            for kernel in kernels for name in context.workload_names]


def format_result(result: Table3Result) -> str:
    return format_table(
        ["kernel", "einsum", "OB/N speedup", "OB/P speedup", "OB/N energy",
         "GLB overbook rate", "DRAM-bound"],
        [
            (r.kernel, r.einsum,
             f"{r.geomean_speedup_ob_vs_naive:.2f}x",
             f"{r.geomean_speedup_ob_vs_prescient:.2f}x",
             f"{r.geomean_energy_ratio_ob_vs_naive:.2f}x",
             f"{r.mean_glb_overbooking_rate:.1%}",
             f"{r.mean_ob_bound_fraction_dram:.0%}")
            for r in result.rows
        ],
        title=(f"Table 3: overbooking benefit per kernel "
               f"(geomeans over {len(result.workloads)} workloads, "
               f"y={result.overbooking_target:.0%})"),
    )
