"""Pareto design-space search: expand a buffer-geometry grid, keep the frontier.

The paper's question — *when does overbooking buffer capacity beat worst-case
provisioning?* — is at heart a design-space trade-off: a configuration
``(overbooking target y, GLB capacity scale, PE buffer scale)`` buys lower
DRAM traffic at some energy cost (or vice versa), and what's "best" depends
on which objective you weight.  Rather than answer with one grid point, this
module computes the **traffic/energy Pareto frontier** of the overbooking
variant, per ``kernel × workload`` (and, for synthetic suites, per sparsity
model):

* :func:`search_frontier` runs a *generational* search.  Generation 0
  evaluates the seed grid (every combination of the initial axis values)
  through the caller's batched :class:`~repro.experiments.scheduler.
  EvaluationScheduler` — store-aware when it carries a store, and therefore
  resumable.
* Between generations, dominated configurations are pruned: only
  configurations that are Pareto-optimal for at least one ``(kernel,
  workload)`` group survive, and the grid axes are *refined* around the
  survivors (midpoints toward each immediate neighbor).  Regions of the
  design space that no objective cares about are never evaluated densely.
* Within a refinement generation, a **rank-then-verify** loop (on by
  default, ``use_surrogate=False`` for the golden brute-force reference)
  consults the :class:`~repro.experiments.surrogate.DesignSurrogate`: all
  candidates are scored, the most promising fraction (``surrogate_budget``)
  plus an exploration band are evaluated exactly, and a candidate is
  skipped only when, in *every* ``(kernel, workload)`` group, an exactly
  evaluated point is predicted to be at least as good on every objective
  within the group's trust band (or the candidate is predicted to violate
  a constraint beyond the verified error margin).  The band tightens —
  through zero, into requiring a strict predicted deficit — as observed
  prediction errors grow, and no group may skip anything before its
  predictions have been verified at all, so an unreliable surrogate widens
  the evaluated fraction by itself.  The reported frontier only ever
  contains exactly evaluated points, and golden tests pin its equality
  with the brute-force reference.
* Optional **constraints** (``traffic <= X``, ``energy <= Y``,
  ``pe_area <= Z`` — see :func:`~repro.experiments.surrogate.
  parse_constraint`) gate the frontier: infeasible points never enter it
  and infeasible configurations are pruned before evaluation when that is
  provable (``pe_area`` exactly, the predicted metrics via the optimistic
  bound).
* The search stops when refinement proposes nothing new, when
  ``max_generations`` is reached, or when ``max_evaluations`` would be
  exceeded.

The result records every evaluated design point (so the search is fully
auditable), the per-group frontier, and per-generation statistics; the
``fig14`` experiment and the CLI's ``search`` subcommand render and
serialize it.  :func:`pareto_frontier` is the (deliberately simple) O(n²)
non-domination filter — golden tests cross-check the search output against
an independent brute-force sweep of the same space, and the surrogate path
against the brute-force path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.accelerator.config import ArchitectureConfig, scaled_default_config
from repro.experiments.registry import deterministic_payload
from repro.accelerator.extensor import AcceleratorVariant
from repro.experiments.runner import CACHE
from repro.experiments.scheduler import (
    EvaluationRequest,
    EvaluationScheduler,
    ScheduleStats,
)
from repro.experiments.surrogate import (
    PREDICTED_METRICS,
    Constraint,
    DesignSurrogate,
    parse_constraint,
    pe_area_words,
)
from repro.experiments.sweep import (
    DEFAULT_KERNELS,
    DEFAULT_Y_VALUES,
    _refusing_overwrite,
    _scaled_architecture,
    check_axes,
    require_token,
)
from repro.tensor.kernels import kernel_spec
from repro.tensor.suite import WorkloadSuite
from repro.tensor.synth import specs_by_workload_name

#: Seed axes of the default search: the sweep's y ladder and halving/doubling
#: of each buffer level.
DEFAULT_GLB_SCALES = (0.5, 1.0, 2.0)
DEFAULT_PE_SCALES = (0.5, 1.0, 2.0)
#: Generations of the default search: the seed grid plus two refinements.
DEFAULT_GENERATIONS = 3

#: Fraction of a generation's candidates the rank-then-verify loop evaluates
#: per batch before re-checking what the surrogate can prove about the rest.
DEFAULT_SURROGATE_BUDGET = 0.25

#: Decimal places configurations are rounded to when axes are refined —
#: keeps the search space finite and the signatures stable.
_AXIS_DECIMALS = 6


@dataclass(frozen=True)
class DesignConfig:
    """One candidate configuration of the search space."""

    overbooking_target: float
    glb_scale: float
    pe_scale: float

    @property
    def label(self) -> str:
        return (f"y={self.overbooking_target:.2%} "
                f"glb×{self.glb_scale:g} pe×{self.pe_scale:g}")


@dataclass(frozen=True)
class DesignPoint:
    """One evaluated ``(kernel, workload, configuration)`` outcome.

    The objectives the frontier minimizes are ``dram_words`` (total DRAM
    traffic of the overbooking variant, the paper's Fig. 9 axis) and
    ``energy_pj`` (its total energy); ``cycles`` and the overbooking rate
    ride along for the reports.
    """

    kernel: str
    workload: str
    model: str
    model_params: str
    config: DesignConfig
    glb_capacity_words: int
    pe_buffer_capacity_words: int
    generation: int
    cycles: float
    energy_pj: float
    dram_words: float
    glb_overbooking_rate: float

    @property
    def objectives(self) -> Tuple[float, float]:
        """The minimized objective vector: (DRAM words, energy pJ)."""
        return (self.dram_words, self.energy_pj)


@dataclass(frozen=True)
class GenerationStats:
    """What one generation of the search did.

    ``candidates`` counts the configurations proposed for the generation,
    ``evaluated_configs`` the ones evaluated exactly; the difference is what
    the surrogate pruned (``pruned_configs``) — zero on the brute-force
    path.  ``trust_margin`` is the widest per-group trust margin the
    rank-then-verify loop ended the generation with (0 when ranking never
    engaged).  Like ``schedule``, these are run-*shape* diagnostics that
    live inside the ephemeral ``generations`` field, never in artifacts.
    """

    generation: int
    evaluated_configs: int
    total_configs: int
    frontier_size: int
    schedule: ScheduleStats
    candidates: int = 0
    pruned_configs: int = 0
    trust_margin: float = 0.0


@dataclass(frozen=True)
class FrontierResult:
    """Everything :func:`search_frontier` found."""

    kernels: List[str]
    workloads: List[str]
    base_architecture: str
    points: List[DesignPoint]
    frontier: List[DesignPoint]
    generations: List[GenerationStats]
    constraints: List[str] = field(default_factory=list)
    use_surrogate: bool = True

    def frontier_for(self, kernel: str, workload: str) -> List[DesignPoint]:
        """The non-dominated set of one ``(kernel, workload)`` group."""
        return [point for point in self.frontier
                if point.kernel == kernel and point.workload == workload]

    def to_jsonable(self) -> dict:
        """Deterministic JSON payload (generation schedules excluded via
        :func:`repro.experiments.registry.deterministic_payload` — like
        :meth:`~repro.experiments.sweep.SweepResult.to_jsonable`, the
        warm/cold split varies between resumed and fresh runs)."""
        return deterministic_payload(self)

    def write_json(self, path, *, force: bool = False):
        import json

        path = _refusing_overwrite(path, force)
        path.write_text(json.dumps(self.to_jsonable(), indent=2) + "\n")
        return path

    def write_csv(self, path, *, force: bool = False):
        import csv

        path = _refusing_overwrite(path, force)
        columns = ("kernel", "workload", "model", "model_params",
                   "overbooking_target", "glb_scale", "pe_scale",
                   "glb_capacity_words", "pe_buffer_capacity_words",
                   "generation", "cycles", "energy_pj", "dram_words",
                   "glb_overbooking_rate", "on_frontier")
        # Each (kernel, workload, config) is evaluated exactly once, so the
        # triple is the point's identity (robust to copies, unlike id()).
        frontier = {(point.kernel, point.workload, point.config)
                    for point in self.frontier}
        with path.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(columns)
            for point in self.points:
                writer.writerow([
                    point.kernel, point.workload, point.model,
                    point.model_params, point.config.overbooking_target,
                    point.config.glb_scale, point.config.pe_scale,
                    point.glb_capacity_words, point.pe_buffer_capacity_words,
                    point.generation, point.cycles, point.energy_pj,
                    point.dram_words, point.glb_overbooking_rate,
                    int((point.kernel, point.workload, point.config)
                        in frontier),
                ])
        return path


def dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """Whether objective vector ``a`` Pareto-dominates ``b`` (minimization):
    no worse in every objective and strictly better in at least one."""
    return (all(x <= y for x, y in zip(a, b))
            and any(x < y for x, y in zip(a, b)))


def pareto_frontier(points: Sequence[DesignPoint]) -> List[DesignPoint]:
    """The non-dominated subset of ``points`` (one homogeneous group).

    O(n²) by design — the grids here are hundreds of points, and the simple
    quadratic filter is trivially auditable (the golden tests re-derive it
    independently).  Ties on the full objective vector keep the first point
    in input order, so the result is deterministic.
    """
    frontier: List[DesignPoint] = []
    seen_objectives = set()
    for candidate in points:
        if candidate.objectives in seen_objectives:
            continue
        if any(dominates(other.objectives, candidate.objectives)
               for other in points):
            continue
        seen_objectives.add(candidate.objectives)
        frontier.append(candidate)
    return frontier


def _round(value: float) -> float:
    return round(float(value), _AXIS_DECIMALS)


def _refined_axis(values: List[float], survivors: set) -> List[float]:
    """Refine one axis around surviving values: midpoints to each neighbor.

    Both the incoming values and the proposed midpoints are deduplicated
    *after* rounding to :data:`_AXIS_DECIMALS` — adjacent survivors whose
    midpoint rounds onto an existing value (or two inputs that only differ
    below the rounding precision) must collapse to one candidate, not two
    near-identical configurations that each cost an exact evaluation.
    """
    ordered = sorted({_round(value) for value in values})
    survivors = {_round(value) for value in survivors}
    proposals = set(ordered)
    for index, value in enumerate(ordered):
        if value not in survivors:
            continue
        if index > 0:
            proposals.add(_round((value + ordered[index - 1]) / 2.0))
        if index + 1 < len(ordered):
            proposals.add(_round((value + ordered[index + 1]) / 2.0))
    return sorted(proposals)


def _merged_schedule(batches: Sequence[ScheduleStats]) -> ScheduleStats:
    """One generation's schedule stats, summed over its exact batches.

    The rank-then-verify loop issues several prefetches per generation (one
    per verified batch); merging keeps :class:`GenerationStats.schedule` a
    single per-generation record, with every counter — including the
    ``computed == 0`` warm-resume invariant the tests pin — additive over
    disjoint request sets.
    """
    if len(batches) == 1:
        return batches[0]
    return ScheduleStats(
        requested=sum(stats.requested for stats in batches),
        unique=sum(stats.unique for stats in batches),
        warm=sum(stats.warm for stats in batches),
        computed=sum(stats.computed for stats in batches),
        workers=max((stats.workers for stats in batches), default=0),
        store_hits=sum(stats.store_hits for stats in batches),
        store_writes=sum(stats.store_writes for stats in batches),
        pool_restarts=sum(stats.pool_restarts for stats in batches),
        degraded_serial=any(stats.degraded_serial for stats in batches),
        batch_groups=sum(stats.batch_groups for stats in batches),
    )


def check_search_knobs(max_generations: int, surrogate_budget: float) -> None:
    """Reject fewer than one generation or a surrogate budget outside (0, 1]
    (``ValueError``)."""
    if max_generations < 1:
        raise ValueError(f"generations must be >= 1, got {max_generations}")
    if not 0.0 < surrogate_budget <= 1.0:
        raise ValueError(f"surrogate_budget must be in (0, 1], got "
                         f"{surrogate_budget!r}")


def search_frontier(suite: WorkloadSuite, *,
                    scheduler: EvaluationScheduler,
                    kernels: Sequence[str] = DEFAULT_KERNELS,
                    y_values: Sequence[float] = DEFAULT_Y_VALUES,
                    glb_scales: Sequence[float] = DEFAULT_GLB_SCALES,
                    pe_scales: Sequence[float] = DEFAULT_PE_SCALES,
                    max_generations: int = DEFAULT_GENERATIONS,
                    max_evaluations: int = 2000,
                    base_architecture: Optional[ArchitectureConfig] = None,
                    workloads: Optional[Sequence[str]] = None,
                    use_surrogate: bool = True,
                    surrogate_budget: float = DEFAULT_SURROGATE_BUDGET,
                    constraints: Optional[Sequence] = None) -> FrontierResult:
    """Generationally explore the ``(y, GLB, PE)`` space, keep the frontier.

    Every generation's exact evaluations go through ``scheduler``: its
    worker budget, and its report store when it has one.  Parameters
    mirror :func:`~repro.experiments.sweep.sweep_grid` where they overlap
    (``suite``/``kernels``/``workloads``); the
    search-specific knobs are the seed axes (``y_values``, ``glb_scales``,
    ``pe_scales``), ``max_generations`` (generation 0 is the seed grid; each
    further generation refines the axes around the current frontier and
    prunes dominated configurations), ``max_evaluations``, a hard cap on
    scheduled ``(kernel, workload, config)`` evaluations, and the surrogate
    knobs:

    ``use_surrogate`` (default ``True``)
        Rank-then-verify refinement generations through the
        :class:`~repro.experiments.surrogate.DesignSurrogate`; candidates
        are skipped only when, in every ``(kernel, workload)`` group, an
        exactly evaluated point is predicted at least as good within the
        group's verified trust band, so the reported frontier matches the
        ``use_surrogate=False`` brute-force reference (pinned by golden
        tests) while evaluating far fewer configurations.  Ranking engages
        once every group has enough exact training points; until then
        (always for generation 0) candidates are evaluated exhaustively.
    ``surrogate_budget``
        Fraction of a generation's candidates evaluated per verification
        batch (plus an exploration band on the first batch).
    ``constraints``
        Upper bounds (:class:`~repro.experiments.surrogate.Constraint` or
        strings like ``"traffic<=1e9"``): the frontier is computed over
        feasible, exactly evaluated points only; ``pe_area``-infeasible
        configurations are rejected before evaluation, predicted-infeasible
        ones once the optimistic bound proves the violation.

    Returns a :class:`FrontierResult`; ``result.frontier`` is the union of
    the per-``(kernel, workload)`` non-dominated sets over *all* evaluated
    generations, verified against every evaluated (and feasible) point.
    Every decision the search makes is a function of exact values only —
    whether they came from the memo, the report store, or a fresh
    computation — so a warm re-search over a covering store replays the
    cold run byte-for-byte with ``computed == 0``.
    """
    check_axes(y_values, glb_scales, pe_scales, kernels)
    check_search_knobs(max_generations, surrogate_budget)
    if workloads is not None:
        suite = suite.subset(list(workloads))
    token = require_token(suite)
    constraint_list: List[Constraint] = [parse_constraint(item)
                                         for item in (constraints or ())]
    synth_specs = specs_by_workload_name(suite)
    base = base_architecture or scaled_default_config()

    axes = {
        "y": sorted(_round(y) for y in y_values),
        "glb": sorted(_round(s) for s in glb_scales),
        "pe": sorted(_round(s) for s in pe_scales),
    }
    kernels = [kernel_spec(str(kernel)).name for kernel in kernels]
    group_keys = [(kernel, name) for kernel in kernels for name in suite.names]
    surrogate = DesignSurrogate(num_pes=base.num_pes) if use_surrogate else None
    predicted_bounds = [(PREDICTED_METRICS[c.metric], c.bound)
                        for c in constraint_list
                        if c.metric in PREDICTED_METRICS]
    area_bound = min((c.bound for c in constraint_list
                      if c.metric == "pe_area"), default=None)

    evaluated: Dict[DesignConfig, List[DesignPoint]] = {}
    rejected: set = set()  # pe_area-infeasible: provably off every frontier
    survivors: set = set()  # frontier configs after the latest generation
    generations: List[GenerationStats] = []
    points: List[DesignPoint] = []
    point_by: Dict[Tuple[DesignConfig, str, str], DesignPoint] = {}

    def grid_configs() -> List[DesignConfig]:
        return [DesignConfig(y, glb, pe)
                for y in axes["y"] for glb in axes["glb"] for pe in axes["pe"]]

    def point_feasible(point: DesignPoint) -> bool:
        for constraint in constraint_list:
            if constraint.metric == "traffic" \
                    and point.dram_words > constraint.bound:
                return False
            if constraint.metric == "energy" \
                    and point.energy_pj > constraint.bound:
                return False
            if constraint.metric == "pe_area" and (
                    base.num_pes * point.pe_buffer_capacity_words
                    > constraint.bound):
                return False
        return True

    def canonical_key(point: DesignPoint) -> tuple:
        # Within a group, evaluation order is (generation, y, glb, pe) on
        # the brute-force path but batch order on the surrogate path; the
        # frontier is computed over the canonically sorted group so both
        # paths report identical frontiers (a stable no-op for brute force).
        return (point.generation, point.config.overbooking_target,
                point.config.glb_scale, point.config.pe_scale)

    def feasible_group_frontiers() -> Dict[Tuple[str, str], List[DesignPoint]]:
        groups: Dict[Tuple[str, str], List[DesignPoint]] = {}
        for point in points:
            if point_feasible(point):
                groups.setdefault((point.kernel, point.workload),
                                  []).append(point)
        return {key: pareto_frontier(sorted(group, key=canonical_key))
                for key, group in groups.items()}

    def current_frontier() -> List[DesignPoint]:
        frontiers = feasible_group_frontiers()
        frontier: List[DesignPoint] = []
        for key in sorted(frontiers):
            frontier.extend(frontiers[key])
        return frontier

    def evaluate_batch(configs: Sequence[DesignConfig],
                       generation: int) -> ScheduleStats:
        """One batched, store-aware fan-out; results land in ``points``."""
        cells = []
        for config in configs:
            architecture = _scaled_architecture(
                base, config.glb_scale, config.pe_scale)
            cells.extend((config, EvaluationRequest(
                suite_token=token, architecture=architecture,
                overbooking_target=config.overbooking_target, workload=name,
                kernel=kernel)) for kernel in kernels for name in suite.names)
        stats = scheduler.prefetch([request for _, request in cells])

        for config in configs:
            evaluated[config] = []
        for config, request in cells:
            kernel, name = request.kernel, request.workload
            overbooking = CACHE.evaluate(request.memo_key, suite)[
                AcceleratorVariant.overbooking(
                    overbooking_target=config.overbooking_target).name]
            spec = synth_specs.get(name)
            point = DesignPoint(
                kernel=kernel,
                workload=name,
                model=spec.model if spec is not None else "",
                model_params=spec.params_label if spec is not None else "",
                config=config,
                glb_capacity_words=request.architecture.glb_capacity_words,
                pe_buffer_capacity_words=(
                    request.architecture.pe_buffer_capacity_words),
                generation=generation,
                cycles=overbooking.cycles,
                energy_pj=overbooking.total_energy_pj,
                dram_words=overbooking.dram_words,
                glb_overbooking_rate=overbooking.glb_overbooking_rate,
            )
            evaluated[config].append(point)
            points.append(point)
            point_by[(config, kernel, name)] = point
            if surrogate is not None:
                surrogate.observe(kernel, name, config, point.objectives)
        return stats

    def survivor_adjacent(config: DesignConfig,
                          survivors: set) -> bool:
        """Whether ``config`` is within one refined-axis step of a frontier
        survivor on *every* axis.

        Axis refinement inserts midpoints next to survivors, so the
        configurations most likely to move the frontier in a refinement
        generation live in this neighborhood — the far-field rest of the
        cross-product grid is where the surrogate earns its keep.
        """
        indices = {axis: {value: index for index, value in enumerate(values)}
                   for axis, values in axes.items()}
        config_idx = (indices["y"][config.overbooking_target],
                      indices["glb"][config.glb_scale],
                      indices["pe"][config.pe_scale])
        for survivor in survivors:
            survivor_idx = (indices["y"][survivor.overbooking_target],
                            indices["glb"][survivor.glb_scale],
                            indices["pe"][survivor.pe_scale])
            if all(abs(a - b) <= 1
                   for a, b in zip(config_idx, survivor_idx)):
                return True
        return False

    def ranked_generation(pending: List[DesignConfig], generation: int,
                          survivors: set) -> Tuple[List[ScheduleStats], int]:
        """Rank-then-verify a refinement generation.

        Two tiers:

        1. The **survivor neighborhood** — every candidate within one
           refined-axis step of a current frontier configuration — is
           evaluated exactly, unconditionally, as the generation's first
           batch.  Axis refinement only inserts values next to survivors,
           so this is where frontier movement happens; evaluating it
           exactly keeps the search trajectory (per-generation frontiers,
           hence refinement axes) identical to the brute-force reference
           without trusting the model at all.  The neighborhood batch also
           verifies the surrogate's predictions for it, seeding the trust
           bands.
        2. The **far field** (the rest of the cross-product grid) goes
           through the surrogate: candidates whose predictions an exactly
           evaluated point matches-or-beats within the group's trust band
           in every group (or that are predicted constraint-infeasible
           beyond the verified error margin) are skipped; the rest are
           evaluated in promise-ranked batches of ``surrogate_budget ×
           len(pending)``, re-fitting, re-verifying, and re-deciding after
           each batch until nothing unverified remains.  A group with no
           verified predictions cannot skip anything.
        """
        batches: List[ScheduleStats] = []
        remaining = list(pending)
        chunk = max(1, math.ceil(surrogate_budget * len(pending)))
        first_batch = True
        core = [config for config in remaining
                if survivor_adjacent(config, survivors)]
        if core:
            core_predictions = {
                key: surrogate.predict(key[0], key[1], core)
                for key in group_keys}
            batches.append(evaluate_batch(core, generation))
            for kernel, name in group_keys:
                exact = np.vstack([
                    point_by[(config, kernel, name)].objectives
                    for config in core])
                surrogate.record_errors(
                    kernel, name, core_predictions[(kernel, name)], exact)
            core_set = set(core)
            remaining = [config for config in remaining
                         if config not in core_set]
        while remaining:
            frontiers = feasible_group_frontiers()
            predictions = {key: surrogate.predict(key[0], key[1], remaining)
                           for key in group_keys}
            bands = {key: surrogate.trust_band(*key) for key in group_keys}
            margins = {key: surrogate.error_margin(*key) for key in group_keys}

            def prunable(index: int) -> bool:
                for key in group_keys:
                    band, margin = bands[key], margins[key]
                    if band is None:
                        return False  # nothing verified: no trust, no skip
                    predicted = predictions[key][index]
                    if any(predicted[metric] > bound * (1.0 + margin)
                           for metric, bound in predicted_bounds):
                        continue  # predicted infeasible beyond the margin
                    if any(all(front.objectives[i]
                               <= predicted[i] * (1.0 + band)
                               for i in range(len(predicted)))
                           for front in frontiers.get(key, ())):
                        continue  # an exact point is as good, within band
                    return False
                return True

            def promise(index: int) -> float:
                best = math.inf
                for key in group_keys:
                    predicted = predictions[key][index]
                    if any(predicted[metric] > bound
                           for metric, bound in predicted_bounds):
                        continue  # predicted infeasible: no promise here
                    frontier = frontiers.get(key)
                    if not frontier:
                        return -math.inf  # nothing feasible yet: explore
                    best = min(best, min(
                        max((predicted[0] - front.dram_words)
                            / max(front.dram_words, 1e-300),
                            (predicted[1] - front.energy_pj)
                            / max(front.energy_pj, 1e-300))
                        for front in frontier))
                return best

            active = [(index, config)
                      for index, config in enumerate(remaining)
                      if not prunable(index)]
            if not active:
                break  # the rest is provably off the frontier
            ordered = sorted(active, key=lambda item: (
                promise(item[0]), item[1].overbooking_target,
                item[1].glb_scale, item[1].pe_scale))
            chosen = ordered[:chunk]
            if first_batch and len(ordered) > chunk:
                # Exploration band: a few evenly spaced lower-ranked
                # candidates keep the error estimate honest outside the
                # model's comfort zone.
                rest = ordered[chunk:]
                band = max(1, chunk // 4)
                step = max(1, len(rest) // band)
                chosen = chosen + rest[::step][:band]
            first_batch = False

            batches.append(evaluate_batch([config for _, config in chosen],
                                          generation))
            for kernel, name in group_keys:
                predicted = np.vstack([predictions[(kernel, name)][index]
                                       for index, _ in chosen])
                exact = np.vstack([
                    point_by[(config, kernel, name)].objectives
                    for _, config in chosen])
                surrogate.record_errors(kernel, name, predicted, exact)
            batch_set = {config for _, config in chosen}
            remaining = [config for config in remaining
                         if config not in batch_set]
        evaluated_configs = len(pending) - len(remaining)
        return batches, evaluated_configs

    for generation in range(max_generations):
        pending = [config for config in grid_configs()
                   if config not in evaluated and config not in rejected]
        if area_bound is not None:
            # pe_area is an exact function of the configuration: infeasible
            # candidates are rejected before costing anything, on both the
            # surrogate and the brute-force path.
            allowed = []
            for config in pending:
                architecture = _scaled_architecture(
                    base, config.glb_scale, config.pe_scale)
                if pe_area_words(architecture) > area_bound:
                    rejected.add(config)
                else:
                    allowed.append(config)
            pending = allowed
        budget_left = max_evaluations - sum(
            len(group) for group in evaluated.values())
        if budget_left < len(pending) * len(kernels) * len(suite.names):
            pending = pending[:max(
                0, budget_left // max(1, len(kernels) * len(suite.names)))]
        if not pending:
            break

        candidates = len(pending)
        ranked = surrogate is not None and all(
            surrogate.trained(kernel, name) for kernel, name in group_keys)
        if ranked:
            batch_stats, evaluated_configs = ranked_generation(
                pending, generation, survivors)
            trust_margin = max((surrogate.error_margin(kernel, name) or 0.0)
                               for kernel, name in group_keys)
        else:
            # No (or an undertrained) surrogate: evaluate the whole
            # generation exactly — one batched, store-aware fan-out.
            batch_stats = [evaluate_batch(pending, generation)]
            evaluated_configs = candidates
            trust_margin = 0.0

        frontier = current_frontier()
        generations.append(GenerationStats(
            generation=generation,
            evaluated_configs=evaluated_configs,
            total_configs=len(evaluated),
            frontier_size=len(frontier),
            schedule=_merged_schedule(batch_stats),
            candidates=candidates,
            pruned_configs=candidates - evaluated_configs,
            trust_margin=trust_margin,
        ))

        # The frontier's configurations both seed the next generation's axis
        # refinement and define the neighborhood its ranked evaluation must
        # cover exactly.
        survivors = {point.config for point in frontier}
        if generation + 1 >= max_generations:
            break
        axes = {
            "y": _refined_axis(
                axes["y"], {c.overbooking_target for c in survivors}),
            "glb": _refined_axis(
                axes["glb"], {c.glb_scale for c in survivors}),
            "pe": _refined_axis(
                axes["pe"], {c.pe_scale for c in survivors}),
        }

    return FrontierResult(
        kernels=list(kernels),
        workloads=list(suite.names),
        base_architecture=base.name,
        points=points,
        frontier=current_frontier(),
        generations=generations,
        constraints=[constraint.label for constraint in constraint_list],
        use_surrogate=surrogate is not None,
    )


def format_frontier(result: FrontierResult) -> str:
    """Plain-text rendering of the frontier (one block per kernel×workload)."""
    from repro.utils.text import format_table

    rows = []
    for point in result.frontier:
        rows.append((
            point.kernel,
            point.model or point.workload,
            point.config.label,
            f"{point.dram_words:,.0f}",
            f"{point.energy_pj:,.0f}",
            f"{point.cycles:,.0f}",
            f"{point.glb_overbooking_rate:.1%}",
        ))
    evaluated = len(result.points)
    gens = len(result.generations)
    constrained = (f", constraints: {', '.join(result.constraints)}"
                   if result.constraints else "")
    return format_table(
        ["kernel", "workload", "config", "DRAM words", "energy pJ",
         "cycles", "GLB overbook"],
        rows,
        title=(f"Traffic/energy Pareto frontier — {len(result.frontier)} "
               f"non-dominated of {evaluated} evaluated points "
               f"({gens} generation(s), objectives minimized: DRAM words, "
               f"energy{constrained})"),
    )
