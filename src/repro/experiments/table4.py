"""Table 4 (extension): overbooking benefit vs. sparsity *structure* skew.

The paper's evaluation fixes the workload set (22 SuiteSparse matrices) and
reads the overbooking benefit off whatever structure those matrices happen to
have.  The sparsity-model registry (:mod:`repro.tensor.synth`) inverts that:
this experiment sweeps a ladder of synthetic structure classes — from
perfectly uniform (where Swiftiles' initial estimate is exact and overbooking
has little to add) through banded, blocked and gradient structure up to
RMAT-like hub skew (the paper's best case) — and reports, per
``(model, kernel)``, the tile-occupancy skew of the generated matrix next to
the overbooking speedups.  The result makes the paper's qualitative claim
("overbooking wins where occupancy variability is high") a measured curve.

The synthetic suite is canonical (``("synth", ...)`` cache scope), so the
evaluations are batched through the run's scheduler like every other
experiment's: workers regenerate the matrices bit-identically from their
``(model, params, seed)`` identities, and the scheduler's report store
serves and persists them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.experiments.registry import register
from repro.experiments.runner import ExperimentContext
from repro.experiments.scheduler import EvaluationScheduler, requests_for_context
from repro.model.stats import geometric_mean
from repro.tensor.kernels import kernel_names
from repro.tensor.suite import synth_suite
from repro.tensor.synth import synth_specs, tile_occupancy_cv

#: The structure ladder, ordered by (expected) increasing occupancy skew.
DEFAULT_SPECS = (
    "uniform",
    "density_gradient:gamma=1.0",
    "density_gradient:gamma=3.0",
    "banded",
    "block_diagonal",
    "power_law_rows:alpha=1.3",
    "power_law_rows:alpha=2.0",
)

#: Smaller instances of the same ladder for the quick/CI path.
QUICK_SPECS = (
    "uniform:n=600,nnz=5000",
    "density_gradient:n=600,nnz=5500,gamma=2.5",
    "banded:n=600,bandwidth=10,off_band_nnz=1200",
    "power_law_rows:n=600,nnz=6000,alpha=1.9",
)

DEFAULT_KERNELS = kernel_names()


@dataclass(frozen=True)
class Table4Row:
    """Overbooking outcome of one ``(sparsity model, kernel)`` pair."""

    model: str
    params: str
    workload: str
    kernel: str
    nnz: int
    occupancy_cv: float
    speedup_ob_vs_naive: float
    speedup_ob_vs_prescient: float
    energy_ratio_ob_vs_naive: float
    glb_overbooking_rate: float


@dataclass(frozen=True)
class Table4Result:
    """Rows model-major (the structure ladder), kernel-minor."""

    workloads: List[str]
    kernels: List[str]
    overbooking_target: float
    rows: List[Table4Row]

    def row(self, workload: str, kernel: str) -> Table4Row:
        for entry in self.rows:
            if entry.workload == workload and entry.kernel == kernel:
                return entry
        raise KeyError((workload, kernel))

    def geomean_speedup(self, workload: str) -> float:
        """Geomean OB/N speedup of one structure point across kernels."""
        return geometric_mean(
            entry.speedup_ob_vs_naive for entry in self.rows
            if entry.workload == workload)


@register(name="table4", artifact="Table 4",
          title="overbooking benefit vs. structure skew",
          quick_params={"specs": QUICK_SPECS, "kernels": ("gram", "spmv")},
          kernels=DEFAULT_KERNELS)
def run(context: ExperimentContext,
        specs: Sequence = DEFAULT_SPECS,
        kernels: Sequence[str] = DEFAULT_KERNELS, *,
        scheduler: EvaluationScheduler) -> Table4Result:
    """Sweep the structure ladder across kernels.

    The context supplies the architecture, overbooking target and suite seed;
    the workloads themselves come from the synthetic structure ladder, one
    canonical :func:`~repro.tensor.suite.synth_suite` evaluated under every
    kernel in ``kernels`` through one prefetch of ``scheduler``.
    """
    resolved = synth_specs(specs)
    suite = synth_suite(resolved, seed=context.suite.seed)
    base = ExperimentContext(
        suite=suite,
        architecture=context.architecture,
        overbooking_target=context.overbooking_target,
        kernel=kernels[0],
    )
    contexts = {kernel: base.with_kernel(kernel) for kernel in kernels}
    scheduler.prefetch([request for ctx in contexts.values()
                        for request in requests_for_context(ctx)])

    rows: List[Table4Row] = []
    for spec in resolved:
        name = spec.workload_name
        matrix = suite.matrix(name)
        skew = tile_occupancy_cv(matrix)
        for kernel in kernels:
            ctx = contexts[kernel]
            reports = ctx.reports(name)
            naive = reports[ctx.naive_name]
            prescient = reports[ctx.prescient_name]
            overbooking = reports[ctx.overbooking_name]
            rows.append(Table4Row(
                model=spec.model,
                params=spec.params_label,
                workload=name,
                kernel=kernel,
                nnz=matrix.nnz,
                occupancy_cv=skew,
                speedup_ob_vs_naive=overbooking.speedup_over(naive),
                speedup_ob_vs_prescient=overbooking.speedup_over(prescient),
                energy_ratio_ob_vs_naive=overbooking.energy_ratio_over(naive),
                glb_overbooking_rate=overbooking.glb_overbooking_rate,
            ))
    return Table4Result(
        workloads=[spec.workload_name for spec in resolved],
        kernels=list(kernels),
        overbooking_target=context.overbooking_target,
        rows=rows,
    )


def format_result(result: Table4Result) -> str:
    from repro.utils.text import format_table

    return format_table(
        ["model", "kernel", "nnz", "occupancy CV", "OB/N speedup",
         "OB/P speedup", "OB/N energy", "GLB overbook rate"],
        [
            (r.workload, r.kernel, r.nnz, f"{r.occupancy_cv:.2f}",
             f"{r.speedup_ob_vs_naive:.2f}x",
             f"{r.speedup_ob_vs_prescient:.2f}x",
             f"{r.energy_ratio_ob_vs_naive:.2f}x",
             f"{r.glb_overbooking_rate:.1%}")
            for r in result.rows
        ],
        title=(f"Table 4: overbooking benefit vs. structure skew "
               f"({len(result.workloads)} sparsity models x "
               f"{len(result.kernels)} kernels, "
               f"y={result.overbooking_target:.0%})"),
    )
