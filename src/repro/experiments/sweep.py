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
from typing import Dict, List, Mapping, Optional, Sequence

from repro.accelerator.config import ArchitectureConfig, scaled_default_config
from repro.accelerator.extensor import (
    AcceleratorVariant,
    VARIANT_NAIVE,
    VARIANT_PRESCIENT,
)
from repro.experiments.registry import deterministic_payload, to_jsonable
from repro.experiments.scheduler import (
    EvaluationRequest,
    EvaluationScheduler,
    ScheduleStats,
    format_schedule,
)
from repro.model.stats import PerformanceReport, geometric_mean
from repro.tensor.kernels import kernel_spec
from repro.tensor.suite import WorkloadSuite
from repro.tensor.synth import specs_by_workload_name

#: Default overbooking-target grid: below, at, and above the paper's y = 10%.
DEFAULT_Y_VALUES = (0.05, 0.10, 0.22)
#: Default capacity-scale axis (the base architecture) and kernel axis (the
#: paper's Gram kernel).
DEFAULT_SCALES = (1.0,)
DEFAULT_KERNELS = ("gram",)


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


def check_axes(y_values: Sequence[float], glb_scales: Sequence[float],
               pe_scales: Sequence[float], kernels: Sequence[str],
               base: Optional[ArchitectureConfig] = None) -> None:
    """Reject an empty axis, a ``y`` outside [0, 1], a nonpositive scale or
    one that scales a capacity of ``base`` (default: the scaled default
    architecture) past the batched evaluator's ``int64`` columns
    (``ValueError``), or an unknown kernel (``KeyError``)."""
    base = base or scaled_default_config()
    if not y_values:
        raise ValueError("y_values must not be empty: every axis needs a "
                         "value")
    bad = [y for y in y_values if not 0.0 <= float(y) <= 1.0]
    if bad:
        raise ValueError(f"overbooking targets must be in [0, 1], got {bad}")
    for name, scales, words in (
            ("glb_scales", glb_scales, base.glb_capacity_words),
            ("pe_scales", pe_scales, base.pe_buffer_capacity_words)):
        if not scales:
            raise ValueError(f"{name} must not be empty")
        bad = [scale for scale in scales if not 0.0 < float(scale) < math.inf]
        if bad:
            raise ValueError(f"{name} must be positive and finite, got {bad}")
        bad = [scale for scale in scales if float(scale) * words >= 2.0 ** 63]
        if bad:
            raise ValueError(f"{name} {bad} scale the {words}-word base "
                             f"capacity past 2**63 words, the evaluator's "
                             f"int64 range")
    if not kernels:
        raise ValueError("kernels must not be empty")
    for kernel in kernels:
        kernel_spec(str(kernel))  # KeyError naming the known kernels


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


def plan_grid(suite: WorkloadSuite, *,
              y_values: Sequence[float] = DEFAULT_Y_VALUES,
              glb_scales: Sequence[float] = DEFAULT_SCALES,
              pe_scales: Sequence[float] = DEFAULT_SCALES,
              kernels: Sequence[str] = DEFAULT_KERNELS,
              base_architecture: Optional[ArchitectureConfig] = None,
              workloads: Optional[Sequence[str]] = None) -> GridPlan:
    """Resolve a sweep grid over ``suite`` into its deterministic
    :class:`GridPlan`.

    Accepts exactly the grid-shaping arguments of :func:`sweep_grid` (which
    calls this first); the sharded runner and the ``merge``/``status``
    subcommands call it too, so every cooperating process agrees on the cell
    set, the request order, and the manifest signature.
    """
    base = base_architecture or scaled_default_config()
    check_axes(y_values, glb_scales, pe_scales, kernels, base)
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


def collect_result(plan: GridPlan, stats: ScheduleStats,
                   reports: Mapping[tuple, Dict[str, PerformanceReport]]
                   ) -> SweepResult:
    """Assemble the :class:`SweepResult` of an evaluated plan.

    ``reports`` holds every cell's reports by memo key, as the plan's
    prefetch resolved them (its ``into``); collection never reads the
    bounded report memo, which a large grid outgrows.  Shared by
    :func:`sweep_grid`, the shard ``merge`` and the daemon's ``/sweep``
    so all produce artifacts from literally the same code path.
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
            cell = reports[request.memo_key]
            naive = cell[VARIANT_NAIVE]
            prescient = cell[VARIANT_PRESCIENT]
            overbooking = cell[overbooking_name]
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


def sweep_grid(suite: WorkloadSuite, *,
               scheduler: Optional[EvaluationScheduler] = None,
               max_workers: Optional[int] = None,
               store=None, resume: bool = False, **grid) -> SweepResult:
    """Evaluate the full ``kernel × glb × pe × y`` grid over ``suite``.

    ``grid`` holds the grid-shaping keyword arguments of :func:`plan_grid`:
    the ``y_values``, ``glb_scales``, ``pe_scales`` and ``kernels`` axes
    (default: the paper's Gram kernel only), ``base_architecture``, and
    ``workloads``, which restricts the sweep to a subset of the suite.  The
    suite decides what the workload axis is: a canonical suite,
    sparsity *structure* (:func:`~repro.tensor.suite.synth_suite`, whose
    rows carry ``model`` / ``model_params`` columns in the JSON/CSV
    artifacts) or real matrices
    (:func:`~repro.tensor.corpus.corpus_workload_suite`).  All grid points
    are batched through one prefetch of ``scheduler``, or of one built from
    ``max_workers`` and ``store`` (passing both kinds is a ``ValueError``)
    and closed on return; ``max_workers=1`` forces serial evaluation.

    A store (a :class:`~repro.experiments.store.ReportStore`, given directly
    or carried by ``scheduler``) makes the sweep durable: each cell is
    persisted as it completes and a grid manifest is published before
    evaluation starts.  ``resume=True`` (requires a store) reruns an
    interrupted grid — cells already on disk are not re-evaluated, and the
    resulting artifacts are byte-identical to an uninterrupted run's.

    Cold cells are evaluated through the vectorized batch engine
    (:mod:`repro.model.batch`), one batched evaluation per ``(kernel,
    workload)`` instead of one per cell.
    """
    if scheduler is None:
        with EvaluationScheduler(max_workers=max_workers,
                                 store=store) as scheduler:
            return sweep_grid(suite, scheduler=scheduler, resume=resume,
                              **grid)
    if max_workers is not None or store is not None:
        raise ValueError("pass a scheduler or max_workers/store, not both")
    store = scheduler.store
    if resume and store is None:
        raise ValueError("resume=True needs a store to resume from "
                         "(CLI: --resume requires --store)")
    plan = plan_grid(suite, **grid)

    if store is not None:
        # Publish (atomically) what this sweep is about to do *before* doing
        # it, so a crash mid-grid leaves a record the rerun can check
        # against.  The manifest is keyed by the grid's signature: a resumed
        # run of the same grid finds — and finishes — its predecessor's.
        store.write_manifest(plan.signature,
                             plan.manifest_payload("in-progress"))

    reports: Dict[tuple, Dict[str, PerformanceReport]] = {}
    stats = scheduler.prefetch(list(plan.requests), into=reports)

    if store is not None:
        store.write_manifest(plan.signature, plan.manifest_payload(
            "complete", computed=stats.computed, store_hits=stats.store_hits))

    return collect_result(plan, stats, reports)


def format_summaries(result: SweepResult) -> str:
    """Plain-text summary table of a sweep (one line per grid point)."""
    from repro.utils.text import format_table

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
               f"(geometric means; {format_schedule(result.schedule)})"),
    )
