"""Parameter-sweep runner: grids over ``y`` and buffer scaling, scheduled.

The ROADMAP's scenario sweeps (overbooking target, GLB/PE capacity scaling,
kernels, suite subsets, sparsity models) all reduce to evaluating a suite
under a grid of ``(architecture, overbooking_target, kernel)`` configurations.
:func:`sweep_grid` plans one
:class:`~repro.experiments.scheduler.EvaluationRequest` per grid cell,
batches *all* of them through the
:class:`~repro.experiments.scheduler.EvaluationScheduler` (one fan-out for
the whole grid, deduplicated against anything already evaluated), then
collects per-workload rows and per-point geometric-mean summaries from the
warm process cache.

Results serialize to JSON (:meth:`SweepResult.write_json`) and CSV
(:meth:`SweepResult.write_csv`); both refuse to overwrite an existing file
unless ``force=True`` (the CLI's ``--force``).  The artifacts are
*deterministic*: run-dependent scheduling statistics are kept out of the
JSON, so the same grid over the same suite always produces byte-identical
files — which is what makes resumption verifiable.

Attach a :class:`~repro.experiments.store.ReportStore` (``store=``) to make
a sweep durable: every grid cell is persisted the moment it is evaluated,
and a *sweep manifest* describing the grid is published under the store's
``manifests/`` directory before evaluation starts.  A sweep that crashes
mid-grid can then be rerun with ``resume=True`` (CLI: ``--resume``) — cells
already on disk are served from the store and only the missing ones are
recomputed, yielding the same bytes an uninterrupted run would have written.

The CLI's ``sweep`` subcommand is a thin wrapper over this module.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence

from repro.accelerator.config import ArchitectureConfig, scaled_default_config
from repro.accelerator.extensor import (
    AcceleratorVariant,
    VARIANT_NAIVE,
    VARIANT_PRESCIENT,
)
from repro.experiments.registry import deterministic_payload, to_jsonable
from repro.experiments.runner import CACHE
from repro.experiments.scheduler import (
    EvaluationRequest,
    EvaluationScheduler,
    ScheduleStats,
)
from repro.model.stats import geometric_mean
from repro.tensor.kernels import kernel_spec
from repro.tensor.suite import WorkloadSuite, synth_suite
from repro.tensor.synth import specs_by_workload_name

#: Default overbooking-target grid: below, at, and above the paper's y = 10%.
DEFAULT_Y_VALUES = (0.05, 0.10, 0.22)


@dataclass(frozen=True)
class SweepPoint:
    """One grid configuration (scales are relative to the base architecture)."""

    overbooking_target: float
    glb_scale: float
    pe_scale: float
    glb_capacity_words: int
    pe_buffer_capacity_words: int
    kernel: str = "gram"

    @property
    def label(self) -> str:
        return (f"{self.kernel} y={self.overbooking_target:.0%} "
                f"glb×{self.glb_scale:g} pe×{self.pe_scale:g}")


@dataclass(frozen=True)
class SweepRow:
    """Per-workload outcome at one grid point.

    ``model`` / ``model_params`` carry the sparsity-model identity when the
    swept suite is synthetic (:func:`repro.tensor.suite.synth_suite`); they
    are empty strings for canonical and corpus suites.
    """

    overbooking_target: float
    glb_scale: float
    pe_scale: float
    kernel: str
    workload: str
    model: str
    model_params: str
    naive_cycles: float
    prescient_cycles: float
    overbooking_cycles: float
    naive_energy_pj: float
    prescient_energy_pj: float
    overbooking_energy_pj: float
    overbooking_dram_words: float
    glb_overbooking_rate: float

    @property
    def speedup_ob_vs_naive(self) -> float:
        return self.naive_cycles / self.overbooking_cycles

    @property
    def speedup_ob_vs_prescient(self) -> float:
        return self.prescient_cycles / self.overbooking_cycles

    @property
    def energy_ratio_ob_vs_naive(self) -> float:
        return self.naive_energy_pj / self.overbooking_energy_pj


@dataclass(frozen=True)
class SweepSummary:
    """Geometric-mean aggregates of one grid point over its workloads."""

    point: SweepPoint
    geomean_speedup_ob_vs_naive: float
    geomean_speedup_ob_vs_prescient: float
    geomean_energy_ratio_ob_vs_naive: float


#: Column order of :meth:`SweepResult.write_csv`.
_CSV_COLUMNS = (
    "overbooking_target", "glb_scale", "pe_scale", "kernel", "workload",
    "model", "model_params",
    "naive_cycles", "prescient_cycles", "overbooking_cycles",
    "speedup_ob_vs_naive", "speedup_ob_vs_prescient",
    "naive_energy_pj", "prescient_energy_pj", "overbooking_energy_pj",
    "energy_ratio_ob_vs_naive", "overbooking_dram_words",
    "glb_overbooking_rate",
)


@dataclass(frozen=True)
class SweepResult:
    """Everything a sweep produced, ready for artifacts."""

    suite_workloads: List[str]
    base_architecture: str
    points: List[SweepPoint]
    rows: List[SweepRow]
    summaries: List[SweepSummary]
    schedule: ScheduleStats

    def summary_at(self, y: float, *, glb_scale: float = 1.0,
                   pe_scale: float = 1.0, kernel: str = "gram") -> SweepSummary:
        for summary in self.summaries:
            point = summary.point
            if (abs(point.overbooking_target - y) < 1e-9
                    and abs(point.glb_scale - glb_scale) < 1e-9
                    and abs(point.pe_scale - pe_scale) < 1e-9
                    and point.kernel == kernel):
                return summary
        raise KeyError(f"no sweep point kernel={kernel} y={y} "
                       f"glb×{glb_scale} pe×{pe_scale}")

    def to_jsonable(self) -> dict:
        """JSON payload of the sweep — deterministic by construction.

        Run-dependent fields (the ``schedule`` statistics: warm/cold split,
        store hits, pool restarts) are stripped by
        :func:`repro.experiments.registry.deterministic_payload`, the
        centralized identity-vs-ephemera filter — so an interrupted-and-
        resumed run, an N-shard merged run, and an uninterrupted serial run
        all write *byte-identical* artifacts.  Read the schedule statistics
        from :attr:`SweepResult.schedule` in-process instead.
        """
        return deterministic_payload(self)

    def write_json(self, path, *, force: bool = False) -> Path:
        path = _refusing_overwrite(path, force)
        path.write_text(json.dumps(self.to_jsonable(), indent=2) + "\n")
        return path

    def write_csv(self, path, *, force: bool = False) -> Path:
        path = _refusing_overwrite(path, force)
        with path.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(_CSV_COLUMNS)
            for row in self.rows:
                writer.writerow([getattr(row, column) for column in _CSV_COLUMNS])
        return path


def _refusing_overwrite(path, force: bool) -> Path:
    """Guard artifact writes: refuse to clobber an existing file.

    Sweeps can be expensive; silently overwriting last night's grid with
    today's is never what anyone wanted.  Pass ``force=True`` (CLI:
    ``--force``, or ``--resume``, which by definition re-writes the outputs
    of the interrupted run) to overwrite deliberately.
    """
    path = Path(path)
    if path.exists() and not force:
        raise FileExistsError(
            f"{path} already exists; pass force=True (CLI: --force) to "
            f"overwrite it")
    return path


def sweep_signature(suite: WorkloadSuite, *, y_values, glb_scales, pe_scales,
                    kernels, base: ArchitectureConfig) -> str:
    """Stable identity of a sweep grid (names the manifest in the store).

    Two invocations with the same suite token (which encodes any workload
    subset via the token's workload order), grid axes and base architecture
    share a signature — and therefore a manifest — so a resumed run finds
    the record its interrupted predecessor published.
    """
    from repro.experiments.store import _plain

    payload = json.dumps({
        "suite": _plain(suite.cache_token),
        "y_values": [float(y) for y in y_values],
        "glb_scales": [float(s) for s in glb_scales],
        "pe_scales": [float(s) for s in pe_scales],
        "kernels": [str(k) for k in kernels],
        "architecture": to_jsonable(base),
    }, sort_keys=True, separators=(",", ":"))
    return "sweep-" + hashlib.sha256(payload.encode()).hexdigest()[:16]


def _store_aware_scheduler(scheduler: Optional[EvaluationScheduler], store,
                           max_workers: Optional[int]) -> EvaluationScheduler:
    """The scheduler a store-aware driver should use.

    Never mutates a caller-supplied scheduler: when one is given without a
    store attached, an equivalently-configured scheduler carrying ``store``
    is built for this call only (the scheduler holds configuration, not
    state, so this loses nothing).
    """
    if scheduler is None:
        return EvaluationScheduler(max_workers=max_workers, store=store)
    if store is not None and scheduler.store is None:
        return EvaluationScheduler(
            max_workers=scheduler.max_workers,
            min_parallel_requests=scheduler.min_parallel_requests,
            store=store)
    return scheduler


def check_scales(name: str, scales: Sequence[float]) -> None:
    """Reject an empty or nonpositive capacity-scale axis (``ValueError``)."""
    if not scales:
        raise ValueError(f"{name} must not be empty")
    bad = [scale for scale in scales if not 0.0 < float(scale) < math.inf]
    if bad:
        raise ValueError(f"{name} must be positive and finite, got {bad}")


def require_token(suite: WorkloadSuite):
    """The suite's cache token; a custom suite (``None``) cannot be planned,
    scheduled, stored or sharded (``ValueError``)."""
    if suite.cache_token is None:
        raise ValueError("a grid needs a suite with a cache token")
    return suite.cache_token


def _scaled_architecture(base: ArchitectureConfig, glb_scale: float,
                         pe_scale: float) -> ArchitectureConfig:
    if glb_scale == 1.0 and pe_scale == 1.0:
        return base
    return base.with_overrides(
        glb_capacity_words=max(1, int(round(base.glb_capacity_words * glb_scale))),
        pe_buffer_capacity_words=max(
            1, int(round(base.pe_buffer_capacity_words * pe_scale))),
    )


@dataclass(frozen=True)
class GridPlan:
    """Everything a grid evaluation *is*, before anything is evaluated.

    The plan is a pure function of its inputs: the same suite, axes and base
    architecture always produce the same points, requests (in the same
    order: every suite workload of ``points[0]``, then of ``points[1]``, …)
    and signature.  :func:`sweep_grid` evaluates a plan in one
    process; :mod:`repro.experiments.shard` partitions the same plan across
    cooperating workers and merges it back — both write identical artifacts
    because both start from this object.
    """

    suite: WorkloadSuite
    base: ArchitectureConfig
    y_values: tuple
    glb_scales: tuple
    pe_scales: tuple
    kernels: tuple
    points: tuple
    requests: tuple
    signature: str

    @property
    def unique_requests(self) -> List:
        """The grid's evaluation cells, deduplicated in plan order."""
        seen = {}
        for request in self.requests:
            seen.setdefault(request.memo_key, request)
        return list(seen.values())

    def manifest_payload(self, status: str, **extra) -> dict:
        """The store manifest describing this grid (``status`` = lifecycle).

        Identity fields only, plus whatever run-dependent ``extra`` the
        caller appends (e.g. ``computed`` on completion) — manifests are
        progress records inside the store, never artifacts, so ephemera are
        allowed but the identity part must be byte-stable so every shard
        worker publishes the same "in-progress" record.
        """
        payload = {
            "kind": "sweep",
            "status": status,
            "suite_workloads": list(self.suite.names),
            "y_values": [float(y) for y in self.y_values],
            "glb_scales": [float(s) for s in self.glb_scales],
            "pe_scales": [float(s) for s in self.pe_scales],
            "kernels": [str(k) for k in self.kernels],
            "grid_points": len(self.points),
            "cells": len(self.requests),
        }
        payload.update(extra)
        return payload


def plan_grid(suite: Optional[WorkloadSuite] = None, *,
              y_values: Sequence[float] = DEFAULT_Y_VALUES,
              glb_scales: Sequence[float] = (1.0,),
              pe_scales: Sequence[float] = (1.0,),
              kernels: Sequence[str] = ("gram",),
              synth: Optional[Sequence] = None,
              corpus: Optional[Sequence[str]] = None,
              corpus_manifest=None,
              base_architecture: Optional[ArchitectureConfig] = None,
              workloads: Optional[Sequence[str]] = None) -> GridPlan:
    """Resolve a sweep grid into its deterministic :class:`GridPlan`.

    Accepts exactly the grid-shaping arguments of :func:`sweep_grid` (which
    calls this first); the sharded runner and the ``merge``/``status``
    subcommands call it too, so every cooperating process agrees on the cell
    set, the request order, and the manifest signature.
    """
    if not y_values:
        raise ValueError("y_values must not be empty")
    if not kernels:
        raise ValueError("kernels must not be empty")
    for kernel in kernels:
        kernel_spec(str(kernel))  # KeyError naming the known kernels
    check_scales("glb_scales", glb_scales)
    check_scales("pe_scales", pe_scales)
    if sum(axis is not None for axis in (suite, synth, corpus)) > 1:
        raise ValueError(
            "pass exactly one of a suite, synth specs, or corpus ids")
    if synth is not None:
        suite = synth_suite(synth)
    elif corpus is not None:
        from repro.tensor.corpus import corpus_workload_suite

        suite = corpus_workload_suite(list(corpus),
                                      manifest=corpus_manifest)
    elif suite is None:
        raise ValueError("a grid needs a suite (or synth specs, or corpus "
                         "ids)")
    base = base_architecture or scaled_default_config()
    if workloads is not None:
        suite = suite.subset(list(workloads))

    token = require_token(suite)
    points: List[SweepPoint] = []
    requests: List[EvaluationRequest] = []
    for kernel in kernels:
        for glb_scale in glb_scales:
            for pe_scale in pe_scales:
                architecture = _scaled_architecture(base, float(glb_scale),
                                                    float(pe_scale))
                for y in y_values:
                    points.append(SweepPoint(
                        overbooking_target=float(y),
                        glb_scale=float(glb_scale),
                        pe_scale=float(pe_scale),
                        glb_capacity_words=architecture.glb_capacity_words,
                        pe_buffer_capacity_words=architecture.pe_buffer_capacity_words,
                        kernel=str(kernel),
                    ))
                    requests.extend(
                        EvaluationRequest(
                            suite_token=token, architecture=architecture,
                            overbooking_target=float(y), workload=name,
                            kernel=str(kernel))
                        for name in suite.names)

    signature = sweep_signature(
        suite, y_values=y_values, glb_scales=glb_scales,
        pe_scales=pe_scales, kernels=kernels, base=base)
    return GridPlan(
        suite=suite,
        base=base,
        y_values=tuple(float(y) for y in y_values),
        glb_scales=tuple(float(s) for s in glb_scales),
        pe_scales=tuple(float(s) for s in pe_scales),
        kernels=tuple(str(k) for k in kernels),
        points=tuple(points),
        requests=tuple(requests),
        signature=signature,
    )


def collect_result(plan: GridPlan, stats: ScheduleStats) -> SweepResult:
    """Assemble the :class:`SweepResult` of an evaluated plan.

    Every cell should already be warm (prefetched, store-served, or
    computed); this reads reports out of the process cache by memo key and
    aggregates.  Shared by :func:`sweep_grid` and the shard ``merge`` so
    both produce artifacts from literally the same code path.
    """
    synth_specs = specs_by_workload_name(plan.suite)
    names = plan.suite.names
    rows: List[SweepRow] = []
    summaries: List[SweepSummary] = []
    for index, point in enumerate(plan.points):
        point_rows: List[SweepRow] = []
        overbooking_name = AcceleratorVariant.overbooking(
            overbooking_target=point.overbooking_target).name
        cells = plan.requests[index * len(names):(index + 1) * len(names)]
        for request in cells:
            name = request.workload
            reports = CACHE.evaluate(request.memo_key, plan.suite)
            naive = reports[VARIANT_NAIVE]
            prescient = reports[VARIANT_PRESCIENT]
            overbooking = reports[overbooking_name]
            spec = synth_specs.get(name)
            point_rows.append(SweepRow(
                overbooking_target=point.overbooking_target,
                glb_scale=point.glb_scale,
                pe_scale=point.pe_scale,
                kernel=point.kernel,
                workload=name,
                model=spec.model if spec is not None else "",
                model_params=spec.params_label if spec is not None else "",
                naive_cycles=naive.cycles,
                prescient_cycles=prescient.cycles,
                overbooking_cycles=overbooking.cycles,
                naive_energy_pj=naive.total_energy_pj,
                prescient_energy_pj=prescient.total_energy_pj,
                overbooking_energy_pj=overbooking.total_energy_pj,
                overbooking_dram_words=overbooking.dram_words,
                glb_overbooking_rate=overbooking.glb_overbooking_rate,
            ))
        rows.extend(point_rows)
        summaries.append(SweepSummary(
            point=point,
            geomean_speedup_ob_vs_naive=geometric_mean(
                r.speedup_ob_vs_naive for r in point_rows),
            geomean_speedup_ob_vs_prescient=geometric_mean(
                r.speedup_ob_vs_prescient for r in point_rows),
            geomean_energy_ratio_ob_vs_naive=geometric_mean(
                r.energy_ratio_ob_vs_naive for r in point_rows),
        ))

    return SweepResult(
        suite_workloads=list(plan.suite.names),
        base_architecture=plan.base.name,
        points=list(plan.points),
        rows=rows,
        summaries=summaries,
        schedule=stats,
    )


def sweep_grid(suite: Optional[WorkloadSuite] = None, *,
               y_values: Sequence[float] = DEFAULT_Y_VALUES,
               glb_scales: Sequence[float] = (1.0,),
               pe_scales: Sequence[float] = (1.0,),
               kernels: Sequence[str] = ("gram",),
               synth: Optional[Sequence] = None,
               corpus: Optional[Sequence[str]] = None,
               corpus_manifest=None,
               base_architecture: Optional[ArchitectureConfig] = None,
               workloads: Optional[Sequence[str]] = None,
               scheduler: Optional[EvaluationScheduler] = None,
               max_workers: Optional[int] = None,
               store=None, resume: bool = False) -> SweepResult:
    """Evaluate the full ``kernel × glb × pe × y`` grid over ``suite``.

    ``workloads`` restricts the sweep to a subset of the suite; ``kernels``
    adds a kernel dimension to the grid (default: the paper's Gram kernel
    only).  ``synth`` makes sparsity *structure* the workload axis instead of
    a suite: a sequence of :class:`~repro.tensor.synth.SynthSpec`s (or CLI
    strings ``"model:param=value,..."``) swept as one synthetic suite, with
    each row carrying ``model`` / ``model_params`` columns in the JSON/CSV
    artifacts.  ``corpus`` instead sweeps *real* matrices: a sequence of
    ``dataset:group/name`` IDs resolved through the corpus cache
    (:func:`~repro.tensor.corpus.corpus_workload_suite`), with
    ``corpus_manifest`` overlaying a descriptor manifest (the offline CI
    fixtures are one).  All grid points are batched through one scheduler
    prefetch;
    pass ``max_workers=1`` (or a pre-configured ``scheduler``) to force
    serial evaluation.

    ``store`` (a :class:`~repro.experiments.store.ReportStore`) makes the
    sweep durable: each cell is persisted as it completes and a grid
    manifest is published before evaluation starts.  ``resume=True``
    (requires ``store``) reruns an interrupted grid — cells already on disk
    are not re-evaluated, and the resulting artifacts are byte-identical to
    an uninterrupted run's.

    Cold cells are evaluated through the vectorized batch engine
    (:mod:`repro.model.batch`), one batched evaluation per ``(kernel,
    workload)`` instead of one per cell.
    """
    if resume and store is None:
        raise ValueError("resume=True needs a store to resume from "
                         "(CLI: --resume requires --store)")
    plan = plan_grid(suite, y_values=y_values, glb_scales=glb_scales,
                     pe_scales=pe_scales, kernels=kernels, synth=synth,
                     corpus=corpus, corpus_manifest=corpus_manifest,
                     base_architecture=base_architecture, workloads=workloads)
    scheduler = _store_aware_scheduler(scheduler, store, max_workers)

    if store is not None:
        # Publish (atomically) what this sweep is about to do *before* doing
        # it, so a crash mid-grid leaves a record the rerun can check
        # against.  The manifest is keyed by the grid's signature: a resumed
        # run of the same grid finds — and finishes — its predecessor's.
        store.write_manifest(plan.signature,
                             plan.manifest_payload("in-progress"))

    stats = scheduler.prefetch(list(plan.requests))

    if store is not None:
        store.write_manifest(plan.signature, plan.manifest_payload(
            "complete", computed=stats.computed, store_hits=stats.store_hits))

    return collect_result(plan, stats)


def format_summaries(result: SweepResult) -> str:
    """Plain-text summary table of a sweep (one line per grid point)."""
    from repro.utils.text import format_table

    schedule = result.schedule
    notes = []
    if schedule.computed:
        notes.append(f"scheduler computed {schedule.computed} evaluations on "
                     f"{schedule.workers} worker(s)")
    if schedule.store_hits:
        notes.append(f"{schedule.store_hits} served from the report store")
    if not notes:
        notes.append("all evaluations served from the report memo")
    schedule_note = "; ".join(notes)
    return format_table(
        ["point", "OB/N speedup", "OB/P speedup", "OB/N energy"],
        [
            (s.point.label,
             f"{s.geomean_speedup_ob_vs_naive:.2f}x",
             f"{s.geomean_speedup_ob_vs_prescient:.2f}x",
             f"{s.geomean_energy_ratio_ob_vs_naive:.2f}x")
            for s in result.summaries
        ],
        title=(f"Sweep over {len(result.points)} grid points, "
               f"{len(result.suite_workloads)} workloads "
               f"(geometric means; {schedule_note})"),
    )
