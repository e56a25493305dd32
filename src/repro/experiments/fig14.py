"""Fig. 14 (extension): the traffic/energy Pareto frontier of the design space.

The paper evaluates one buffer geometry and reads the overbooking benefit at
a single design point.  This experiment asks the design-space question the
persistent store makes affordable: across ``(overbooking target, GLB
capacity, PE buffer capacity)`` configurations, which ones are *Pareto
optimal* in DRAM traffic versus energy — and how does that frontier shift
with sparsity structure and kernel?

It runs :func:`~repro.experiments.search.search_frontier` over a synthetic
structure ladder (uniform → banded → power-law hub skew, the same axis as
Table 4) × a kernel pair, with generational axis refinement pruning
dominated configurations between generations.  When the run's scheduler
carries a :class:`~repro.experiments.store.ReportStore` (CLI: ``--store``),
every evaluated design point is durable, so re-running the figure — or
widening the grid — only pays for configurations never seen before.
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.registry import register
from repro.experiments.runner import ExperimentContext
from repro.experiments.scheduler import EvaluationScheduler
from repro.experiments.search import (
    DEFAULT_GENERATIONS,
    DEFAULT_GLB_SCALES,
    DEFAULT_PE_SCALES,
    DEFAULT_Y_VALUES,
    FrontierResult,
    format_frontier,
    search_frontier,
)
from repro.tensor.suite import synth_suite

#: The structure ladder the frontier is computed over (one suite, three
#: regimes: estimate-friendly, banded, heavy-tailed).
DEFAULT_SPECS = (
    "uniform",
    "banded",
    "power_law_rows:alpha=2.0",
)

#: Smaller instances + a smaller grid for the quick/CI path.
QUICK_SPECS = (
    "uniform:n=400,nnz=3000",
    "power_law_rows:n=400,nnz=3200,alpha=1.9",
)

DEFAULT_KERNELS = ("gram", "spmv")


@register(name="fig14", artifact="Fig. 14",
          title="traffic/energy Pareto frontier of the design space",
          quick_params={"specs": QUICK_SPECS, "kernels": ("gram",),
                        "glb_scales": (0.5, 1.0), "pe_scales": (1.0,),
                        "max_generations": 2},
          kernels=DEFAULT_KERNELS)
def run(context: ExperimentContext,
        specs: Sequence = DEFAULT_SPECS,
        kernels: Sequence[str] = DEFAULT_KERNELS,
        y_values: Sequence[float] = DEFAULT_Y_VALUES,
        glb_scales: Sequence[float] = DEFAULT_GLB_SCALES,
        pe_scales: Sequence[float] = DEFAULT_PE_SCALES,
        max_generations: int = DEFAULT_GENERATIONS,
        use_surrogate: bool = True, *,
        scheduler: EvaluationScheduler) -> FrontierResult:
    """Search the design space over the structure ladder.

    The context supplies the base architecture, and suite seed (the
    overbooking target is a *search axis* here, so the context's ``y`` seeds
    the axis rather than pinning it); the workloads come from the synthetic
    structure ladder.  All evaluations are batched per generation through
    ``scheduler`` (and its store, if it has one).  Refinement
    generations rank candidates through the surrogate by default (CLI:
    ``--no-surrogate`` for the brute-force reference; the quick grid is
    too small to train it, so the quick path is brute force either way).
    """
    y_axis = sorted({round(float(y), 6) for y in
                     (*y_values, context.overbooking_target)})
    suite = synth_suite(specs, seed=context.suite.seed)
    return search_frontier(
        suite=suite,
        kernels=kernels,
        y_values=y_axis,
        glb_scales=glb_scales,
        pe_scales=pe_scales,
        max_generations=max_generations,
        base_architecture=context.architecture,
        scheduler=scheduler,
        use_surrogate=use_surrogate,
    )


def format_result(result: FrontierResult) -> str:
    return format_frontier(result)


def to_json(result: FrontierResult):
    return result.to_jsonable()
