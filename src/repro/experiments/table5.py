"""Table 5 (extension): overbooking benefit across real corpora vs. synth.

The synthetic structure ladder (``table4``) measures overbooking against
*controlled* sparsity structure; this experiment closes the loop against
*real* structure.  It evaluates three workload sources side by side —
pruned-DNN weight masks from the Deep Learning Matrix Collection,
scientific/graph matrices from SuiteSparse, and the synthetic ladder — and
reports, per ``(source, workload, kernel)``, the tile-occupancy skew next to
the overbooking speedups, with per-source geomeans for the cross-corpus
comparison the synth subsystem was built to be measured against.

All three sources become canonical suites (``("corpus", ...)`` and
``("synth", ...)`` cache scopes), so every evaluation is batched through one
scheduler prefetch and is addressable by the report store: scheduler workers
rebuild the corpus suites from their dataset IDs through the shared on-disk
matrix cache (``$REPRO_CORPUS_CACHE``), exactly like they regenerate
synthetic matrices from seeds.

The quick/CI parameterization points at the offline fixture corpus under
``tests/data/corpus/`` — the whole experiment runs hermetically, zero
network access, which is also how its determinism (serial == parallel ==
resumed-from-store, byte-for-byte) is enforced in CI.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Union

from repro.experiments.registry import register
from repro.experiments.runner import ExperimentContext
from repro.experiments.scheduler import EvaluationScheduler, requests_for_context
from repro.model.stats import geometric_mean
from repro.tensor.suite import synth_suite
from repro.tensor.synth import synth_specs, tile_occupancy_cv

#: Default DLMC slice: magnitude vs. random pruning at two sparsities
#: (resolved through the built-in catalog; needs network or a warm cache).
DEFAULT_DLMC = (
    "dlmc:rn50/magnitude_pruning/0.5/"
    "bottleneck_projection_block_group_projection_block_group1",
    "dlmc:rn50/magnitude_pruning/0.9/"
    "bottleneck_projection_block_group_projection_block_group1",
    "dlmc:rn50/random_pruning/0.5/"
    "bottleneck_projection_block_group_projection_block_group1",
    "dlmc:rn50/random_pruning/0.9/"
    "bottleneck_projection_block_group_projection_block_group1",
)

#: Default SuiteSparse slice: one matrix per structure class of the paper's
#: evaluation (FEM band, power-law social graph, road network, web graph).
DEFAULT_SUITESPARSE = (
    "suitesparse:Williams/cant",
    "suitesparse:SNAP/soc-Epinions1",
    "suitesparse:SNAP/roadNet-CA",
    "suitesparse:SNAP/web-Google",
)

#: The synthetic comparison ladder (a subset of table4's).
DEFAULT_SYNTH = (
    "uniform",
    "banded",
    "power_law_rows:alpha=1.9",
)

DEFAULT_KERNELS = ("gram", "spmm", "spmv")

#: Offline CI parameterization: the committed fixture corpus.
QUICK_MANIFEST = "tests/data/corpus/manifest.json"
QUICK_DLMC = ("dlmc:fixture/magnitude-080", "dlmc:fixture/random-050")
QUICK_SUITESPARSE = ("suitesparse:fixture/fem-band",
                     "suitesparse:fixture/powerlaw-graph",
                     "suitesparse:fixture/cant-mini")
QUICK_SYNTH = ("uniform:n=300,nnz=2600",
               "power_law_rows:n=300,nnz=2800,alpha=1.9")
QUICK_KERNELS = ("gram", "spmv")


@dataclass(frozen=True)
class Table5Row:
    """Overbooking outcome of one ``(source, workload, kernel)`` triple."""

    source: str                  # "dlmc" | "suitesparse" | "synth"
    workload: str
    kernel: str
    rows: int
    cols: int
    nnz: int
    occupancy_cv: float
    speedup_ob_vs_naive: float
    speedup_ob_vs_prescient: float
    energy_ratio_ob_vs_naive: float
    glb_overbooking_rate: float


@dataclass(frozen=True)
class Table5Summary:
    """Per-source geomeans across workloads and kernels."""

    source: str
    workloads: int
    geomean_speedup_ob_vs_naive: float
    geomean_speedup_ob_vs_prescient: float
    geomean_energy_ratio_ob_vs_naive: float
    mean_occupancy_cv: float


@dataclass(frozen=True)
class Table5Result:
    """Rows source-major (dlmc, suitesparse, synth), kernel-minor."""

    sources: List[str]
    kernels: List[str]
    overbooking_target: float
    rows: List[Table5Row]
    summaries: List[Table5Summary]

    def summary(self, source: str) -> Table5Summary:
        for entry in self.summaries:
            if entry.source == source:
                return entry
        raise KeyError(source)


def _resolve_manifest(manifest):
    """Anchor a relative manifest path at the repo root when cwd misses.

    The quick parameterization names the committed fixture manifest by its
    repo-relative path; resolve it against this package's checkout so
    ``run table5 --quick`` works from any working directory.
    """
    from pathlib import Path

    if manifest is None or Path(manifest).exists():
        return manifest
    candidate = Path(__file__).resolve().parents[3] / manifest
    return str(candidate) if candidate.exists() else manifest


def _source_suites(context: ExperimentContext,
                   dlmc: Sequence[str], suitesparse: Sequence[str],
                   synth: Sequence, manifest) -> List[tuple]:
    """``(source, suite)`` pairs, skipping sources configured empty."""
    from repro.tensor.corpus import corpus_workload_suite

    manifest = _resolve_manifest(manifest)
    seed = context.suite.seed
    suites = []
    if dlmc:
        suites.append(("dlmc", corpus_workload_suite(
            list(dlmc), seed=seed, manifest=manifest)))
    if suitesparse:
        suites.append(("suitesparse", corpus_workload_suite(
            list(suitesparse), seed=seed, manifest=manifest)))
    if synth:
        suites.append(("synth", synth_suite(synth_specs(synth), seed=seed)))
    if not suites:
        raise ValueError("table5 needs at least one non-empty source "
                         "(dlmc, suitesparse, or synth)")
    return suites


@register(name="table5", artifact="Table 5",
          title="overbooking benefit across real corpora",
          quick_params={"dlmc": QUICK_DLMC, "suitesparse": QUICK_SUITESPARSE,
                        "synth": QUICK_SYNTH, "manifest": QUICK_MANIFEST,
                        "kernels": QUICK_KERNELS},
          kernels=DEFAULT_KERNELS)
def run(context: ExperimentContext,
        dlmc: Sequence[str] = DEFAULT_DLMC,
        suitesparse: Sequence[str] = DEFAULT_SUITESPARSE,
        synth: Sequence = DEFAULT_SYNTH,
        manifest: Union[str, None] = None,
        kernels: Sequence[str] = DEFAULT_KERNELS, *,
        scheduler: EvaluationScheduler) -> Table5Result:
    """Evaluate all three workload sources under every kernel.

    The context supplies the architecture, overbooking target and suite
    seed; the workloads come from the corpus manager (``dlmc`` /
    ``suitesparse`` dataset IDs, resolved through ``manifest`` when given)
    and the synthetic ladder.  Every ``(source, kernel)`` suite evaluation
    goes through one prefetch of ``scheduler`` — parallel workers rebuild
    the corpus suites from their ``("corpus", ...)`` tokens via the shared
    matrix cache, and the scheduler's store lets reruns resume warm.
    """
    suites = _source_suites(context, dlmc, suitesparse, synth, manifest)

    contexts = {}
    requests = []
    for source, suite in suites:
        base = ExperimentContext(
            suite=suite,
            architecture=context.architecture,
            overbooking_target=context.overbooking_target,
            kernel=kernels[0],
        )
        for kernel in kernels:
            ctx = base.with_kernel(kernel)
            contexts[(source, kernel)] = ctx
            requests.extend(requests_for_context(ctx))
    scheduler.prefetch(requests)

    rows: List[Table5Row] = []
    for source, suite in suites:
        for name in suite.names:
            matrix = suite.matrix(name)
            skew = tile_occupancy_cv(matrix)
            for kernel in kernels:
                ctx = contexts[(source, kernel)]
                reports = ctx.reports(name)
                naive = reports[ctx.naive_name]
                prescient = reports[ctx.prescient_name]
                overbooking = reports[ctx.overbooking_name]
                rows.append(Table5Row(
                    source=source,
                    workload=name,
                    kernel=kernel,
                    rows=matrix.num_rows,
                    cols=matrix.num_cols,
                    nnz=matrix.nnz,
                    occupancy_cv=skew,
                    speedup_ob_vs_naive=overbooking.speedup_over(naive),
                    speedup_ob_vs_prescient=overbooking.speedup_over(prescient),
                    energy_ratio_ob_vs_naive=overbooking.energy_ratio_over(naive),
                    glb_overbooking_rate=overbooking.glb_overbooking_rate,
                ))

    summaries = []
    for source, suite in suites:
        source_rows = [row for row in rows if row.source == source]
        summaries.append(Table5Summary(
            source=source,
            workloads=len(suite.names),
            geomean_speedup_ob_vs_naive=geometric_mean(
                row.speedup_ob_vs_naive for row in source_rows),
            geomean_speedup_ob_vs_prescient=geometric_mean(
                row.speedup_ob_vs_prescient for row in source_rows),
            geomean_energy_ratio_ob_vs_naive=geometric_mean(
                row.energy_ratio_ob_vs_naive for row in source_rows),
            mean_occupancy_cv=(sum(row.occupancy_cv for row in source_rows)
                               / len(source_rows)),
        ))

    return Table5Result(
        sources=[source for source, _ in suites],
        kernels=list(kernels),
        overbooking_target=context.overbooking_target,
        rows=rows,
        summaries=summaries,
    )


def format_result(result: Table5Result) -> str:
    from repro.utils.text import format_table

    lines = [format_table(
        ["source", "workload", "kernel", "shape", "nnz", "occ. CV",
         "OB/N speedup", "OB/P speedup", "OB/N energy"],
        [
            (r.source, r.workload, r.kernel, f"{r.rows}x{r.cols}", r.nnz,
             f"{r.occupancy_cv:.2f}", f"{r.speedup_ob_vs_naive:.2f}x",
             f"{r.speedup_ob_vs_prescient:.2f}x",
             f"{r.energy_ratio_ob_vs_naive:.2f}x")
            for r in result.rows
        ],
        title=(f"Table 5: overbooking benefit across real corpora "
               f"({' vs. '.join(result.sources)}, "
               f"y={result.overbooking_target:.0%})"),
    )]
    lines.append(format_table(
        ["source", "workloads", "geomean OB/N", "geomean OB/P",
         "geomean energy", "mean occ. CV"],
        [
            (s.source, s.workloads,
             f"{s.geomean_speedup_ob_vs_naive:.2f}x",
             f"{s.geomean_speedup_ob_vs_prescient:.2f}x",
             f"{s.geomean_energy_ratio_ob_vs_naive:.2f}x",
             f"{s.mean_occupancy_cv:.2f}")
            for s in result.summaries
        ],
        title="per-source geomeans",
    ))
    return "\n\n".join(lines)
