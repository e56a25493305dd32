"""Vectorized batched grid evaluation (the array-program engine).

The paper's headline artifacts are *grids* — overbooking benefit swept over
``y × GLB capacity × PE capacity`` per kernel and workload — yet
:class:`~repro.model.engine.AnalyticalEngine` evaluates one
``(architecture, y)`` point at a time, paying per-cell Python overhead
(context/engine/energy-table construction, four tiling wrappers, ~20 NumPy
reduction calls, dataclass churn) thousands of times per sweep.

:class:`BatchWorkloadEvaluator` evaluates the same grid from one workload's
precomputed per-tile occupancy arrays (the SoA
:class:`~repro.tiling.base.Tiling` objects, shared with the per-point path
through ``matrix.memo``) as an array program over the *config axis*:

* **Effective-config dedup.**  Naive and prescient tilings — and therefore
  their whole reports — do not depend on ``y``; one evaluation is shared
  across the entire ``y`` axis of one :meth:`~BatchWorkloadEvaluator.prime`
  call.  ExTensor-OB cells dedup on ``(architecture, y)``.
* **Cached occupancy reductions.**  All engine scalars derived from an
  occupancy array are affine in a handful of exact integer sums
  (:class:`~repro.tiling.base.OccupancyReductions`); the O(num_tiles) array
  passes run once per ``(tiling, capacity)`` and are shared across every grid
  cell that reuses the tiling — e.g. the PE-level reductions across the whole
  GLB-scale axis, and vice versa.
* **Columnar evaluation.**  :meth:`BatchWorkloadEvaluator.prime` gathers the
  reduction scalars of every pending config into ``int64`` columns and runs
  the engine's whole scaffolding — tile counts, pass counts, fetch totals,
  per-level traffic words — as ~30 broadcast NumPy calls over the config
  axis.  The per-config Python that remains is report *construction* (two
  :class:`~repro.model.traffic.LevelTraffic` rows, the energy report, the
  stats dataclass), which the sweep needs per cell anyway.

This is the only evaluator production code calls.  The per-point engine is
kept as the independent test oracle: every value produced here is
**bit-identical** to ``AnalyticalEngine.evaluate`` (not just within 1e-9)
because all occupancy sums are exact integers below 2**53 — float64 sums
over them are exact regardless of summation order, the int64
column arithmetic equals the engine's Python-int arithmetic, and every
remaining float operation replicates the engine's expression order verbatim.
``tests/model/test_batch.py`` pins this differentially across kernels,
suites, and random grids.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.accelerator.config import ArchitectureConfig
from repro.accelerator.extensor import AcceleratorVariant
from repro.accelerator.pe import PEArray
from repro.energy.accelergy import EnergyModel, EnergyReport
from repro.model.engine import _OUTPUT_WORDS_PER_NONZERO, VariantSpec
from repro.model.stats import PerformanceReport, TrafficBreakdown
from repro.model.traffic import FetchPolicy, LevelTraffic
from repro.model.workload import WorkloadDescriptor
from repro.tiling.base import OccupancyReductions

#: A grid cell: the architecture to evaluate and the ExTensor-OB target ``y``.
GridConfig = Tuple[ArchitectureConfig, float]


@lru_cache(maxsize=None)
def _energy_model(glb_capacity_words: int, pe_buffer_capacity_words: int,
                  word_bits: int) -> EnergyModel:
    """The engine's default energy table, shared across grid cells."""
    return EnergyModel.for_architecture(
        glb_capacity_words=glb_capacity_words,
        pe_buffer_capacity_words=pe_buffer_capacity_words,
        word_bits=word_bits,
    )


@lru_cache(maxsize=None)
def _pe_array(num_pes: int) -> PEArray:
    return PEArray(num_pes=num_pes)


@lru_cache(maxsize=None)
def _energy_table(glb_capacity_words: int, pe_buffer_capacity_words: int,
                  word_bits: int) -> tuple:
    """Per-action energies of the engine's five components, as flat floats.

    The batched path inlines ``EnergyModel.report`` (same multiplies and
    adds, same component order, minus the per-cell validation): these are the
    exact ``read_pj`` / ``write_pj`` values the per-point engine multiplies
    with.
    """
    components = _energy_model(glb_capacity_words, pe_buffer_capacity_words,
                               word_bits).components
    return tuple(
        pj
        for name in ("dram", "global_buffer", "pe_buffer", "mac",
                     "intersection")
        for pj in (components[name].read_pj, components[name].write_pj)
    )


def _overbooking_rate(reductions: OccupancyReductions) -> float:
    """``float((occ > capacity).mean())`` from the exact counts."""
    if reductions.num_tiles == 0:
        return 0.0
    return reductions.over_count / reductions.num_tiles


def _buffer_utilization(reductions: OccupancyReductions) -> float:
    """``float(np.minimum(occ, capacity).mean() / capacity)`` exactly.

    ``min(occ, capacity)`` is ``occ`` on fitting tiles and ``capacity`` on
    overbooked ones, so its sum is ``fit_sum + capacity * over_count``.
    """
    if reductions.num_tiles == 0:
        return 0.0
    min_sum = reductions.fit_sum + reductions.capacity * reductions.over_count
    return (min_sum / reductions.num_tiles) / reductions.capacity


def _bumped_fraction(reductions: OccupancyReductions) -> float:
    """``bumped_elements / total_nonzeros`` with the per-point guards."""
    if reductions.total == 0 or reductions.over_count == 0:
        return 0.0
    return reductions.bumped_sum / reductions.total


def _ceil_div(numerator: np.ndarray, denominator: np.ndarray) -> np.ndarray:
    """``math.ceil(n / d)`` per config, via the same float64 division.

    The engine divides Python ints (exact float64 values below 2**53) and
    ceils the float quotient; ``int64 / int64`` broadcasts to the identical
    IEEE division, so the cast back to ``int64`` is exact.
    """
    return np.ceil(numerator / denominator).astype(np.int64)


def _fetch_totals(fit_sum: np.ndarray, over_sum: np.ndarray,
                  over_count: np.ndarray, resident: np.ndarray,
                  passes: np.ndarray, policy: FetchPolicy) -> np.ndarray:
    """:meth:`OccupancyReductions.fetch_total` over the config axis (int64)."""
    if policy in (FetchPolicy.FIT, FetchPolicy.BUFFET):
        return fit_sum + passes * over_sum
    if policy is FetchPolicy.TAILORS:
        bumped_sum = over_sum - over_count * resident
        return fit_sum + over_count * resident + passes * bumped_sum
    raise ValueError(f"unknown policy {policy!r}")


class BatchWorkloadEvaluator:
    """Evaluate one workload across a grid of ``(architecture, y)`` configs.

    Instances accumulate tiling caches (tilings via ``matrix.memo``,
    occupancy reductions on the tilings), so evaluating a ``y × GLB × PE``
    grid costs the per-point engine's array work only once per *distinct
    tiling*, plus one broadcast pass over the config axis.

    Hand the whole grid to :meth:`prime`, which returns one report set per
    cell; :meth:`reports` is the single-cell form, without the cross-config
    amortization.
    """

    def __init__(self, workload: WorkloadDescriptor):
        self.workload = workload
        self._a = workload.a
        self._b = workload.b
        self._b_by_columns = self._b.transpose()
        self._naive = AcceleratorVariant.naive()
        self._prescient = AcceleratorVariant.prescient()
        self._ob_variants: Dict[float, AcceleratorVariant] = {}
        #: (variant key, operand, capacity, fifo) -> (TilerResult, reductions).
        self._levels: Dict[tuple, tuple] = {}
        #: (variant key, glb cap, pe cap, fifo fractions) -> everything about a
        #: config that depends only on capacities: the 19 reduction ints of
        #: the four levels plus the capacity-only report scalars.  One dict
        #: hit covers the whole ``num_pes × bandwidth`` axis of a grid.
        self._quads: Dict[tuple, tuple] = {}
        self._tilers: Dict[object, object] = {}
        self._compute_cycles: Dict[int, float] = {}
        # Workload constants, resolved once (the scipy nnz property chain and
        # the float conversions are measurable per-cell costs at grid scale).
        self._a_nnz = int(self._a.nnz)
        self._b_nnz = int(self._b.nnz)
        self._a_nnz_f = float(self._a_nnz)
        self._b_nnz_f = float(self._b_nnz)
        self._effectual = workload.effectual_multiplies
        self._output_writes = (float(workload.output_nonzeros)
                               * _OUTPUT_WORDS_PER_NONZERO)
        self._pe_buffer_reads = 2.0 * self._effectual
        self._mac_reads = float(self._effectual)
        self._intersection_steps = (2.0 * self._effectual
                                    + (self._a_nnz + self._b_nnz))

    # ------------------------------------------------------------------ #
    # Public surface
    # ------------------------------------------------------------------ #
    def reports(self, architecture: ArchitectureConfig,
                overbooking_target: float) -> Dict[str, PerformanceReport]:
        """The three variant reports of one grid cell, in report order.

        Matches ``ExTensorModel.evaluate_workload`` key-for-key (naive,
        prescient, overbooking — the overbooking key carries the ``y`` suffix
        for non-default targets) and value-for-value bitwise.
        """
        return self.prime(((architecture, overbooking_target),))[0]

    def prime(self, configs: Sequence[GridConfig]
              ) -> List[Dict[str, PerformanceReport]]:
        """Evaluate every ``(architecture, y)`` cell, aligned with ``configs``.

        This is the batched entry point: the distinct effective configs of
        ``configs`` are evaluated columnarly in one broadcast pass per fetch
        policy.  Reports are not cached across calls (the caller's report
        memo is the cache); within one call, cells sharing an effective
        config share the report object.
        """
        pending: Dict[tuple, tuple] = {}
        cells = []
        for architecture, overbooking_target in configs:
            ob = self._ob_variant(overbooking_target)
            keys = []
            for key, spec, variant_key in (
                    (("N", architecture), self._naive.spec, "N"),
                    (("P", architecture), self._prescient.spec, "P"),
                    (("OB", architecture, overbooking_target), ob.spec,
                     ("OB", overbooking_target))):
                keys.append(key)
                if key not in pending:
                    pending[key] = (architecture, spec, variant_key)
            cells.append((ob.name, keys))
        by_policy: Dict[FetchPolicy, list] = {}
        for key, (architecture, spec, variant_key) in pending.items():
            by_policy.setdefault(spec.policy, []).append(
                (key, architecture, spec, variant_key))
        reports: Dict[tuple, PerformanceReport] = {}
        for policy, rows in by_policy.items():
            self._evaluate_rows(policy, rows, reports)
        naive_name, prescient_name = self._naive.name, self._prescient.name
        return [{naive_name: reports[naive_key],
                 prescient_name: reports[prescient_key],
                 ob_name: reports[ob_key]}
                for ob_name, (naive_key, prescient_key, ob_key) in cells]

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _ob_variant(self, overbooking_target: float) -> AcceleratorVariant:
        variant = self._ob_variants.get(overbooking_target)
        if variant is None:
            variant = AcceleratorVariant.overbooking(
                overbooking_target=overbooking_target)
            self._ob_variants[overbooking_target] = variant
        return variant

    def _tiled(self, variant_key, spec: VariantSpec, operand: str, matrix,
               capacity: int, fifo_words: int) -> tuple:
        """One level's ``(TilerResult, OccupancyReductions)``, cached.

        Tiler results are memoized on the operand matrices, so these are the
        *same objects* the per-point engine uses; the evaluator-local cache
        just skips re-hashing the tiler parameters per cell.
        """
        key = (variant_key, operand, capacity, fifo_words)
        entry = self._levels.get(key)
        if entry is None:
            tiler = self._tilers.get(variant_key)
            if tiler is None:
                tiler = spec.make_tiler()
                self._tilers[variant_key] = tiler
            result = tiler.tile(matrix, capacity)
            entry = (result,
                     result.tiling.occupancy_reductions(capacity, fifo_words))
            self._levels[key] = entry
        return entry

    def _quad(self, variant_key, spec: VariantSpec,
              arch: ArchitectureConfig) -> tuple:
        """Everything about a config that only its capacities determine.

        Returns ``(reduction ints, block_rows, tax, glb rate/util/bumped,
        pe rate/util)`` — the per-row inputs of :meth:`_evaluate_rows` that
        are invariant along the ``num_pes`` / bandwidth / frequency axes, so
        the gather loop pays one dict lookup instead of four level lookups
        and ~25 attribute reads per row.
        """
        glb_cap = arch.glb_capacity_words
        pe_cap = arch.pe_buffer_capacity_words
        glb_a = self._tiled(variant_key, spec, "A", self._a, glb_cap,
                            arch.glb_fifo_words)
        glb_b = self._tiled(variant_key, spec, "B", self._b_by_columns,
                            glb_cap, arch.glb_fifo_words)
        pe_a = self._tiled(variant_key, spec, "A", self._a, pe_cap,
                           arch.pe_fifo_words)
        pe_b = self._tiled(variant_key, spec, "B", self._b_by_columns,
                           pe_cap, arch.pe_fifo_words)
        r_ga, r_gb, r_pa, r_pb = glb_a[1], glb_b[1], pe_a[1], pe_b[1]
        ints = (
            r_ga.num_tiles, r_gb.num_tiles, r_pa.num_tiles, r_pb.num_tiles,
            r_gb.chunks, r_pb.chunks,
            r_ga.fit_sum, r_ga.over_sum, r_ga.over_count, r_ga.resident,
            r_ga.total,
            r_gb.fit_sum, r_gb.over_sum, r_gb.over_count, r_gb.resident,
            r_pa.fit_sum, r_pa.over_sum, r_pa.over_count, r_pa.resident,
        )
        tax = (glb_a[0].tax.total_elements
               + glb_b[0].tax.total_elements
               + pe_a[0].tax.total_elements
               + pe_b[0].tax.total_elements)
        return (ints, glb_a[0].block_rows, tax,
                _overbooking_rate(r_ga), _buffer_utilization(r_ga),
                _bumped_fraction(r_ga),
                _overbooking_rate(r_pa), _buffer_utilization(r_pa))

    def _cycles_of(self, num_pes: int) -> float:
        cycles = self._compute_cycles.get(num_pes)
        if cycles is None:
            cycles = _pe_array(num_pes).compute_cycles(self._effectual)
            self._compute_cycles[num_pes] = cycles
        return cycles

    def _evaluate_rows(self, policy: FetchPolicy, rows: Sequence[tuple],
                       reports: Dict[tuple, PerformanceReport]) -> None:
        """Evaluate one fetch policy's pending configs into ``reports``.

        ``AnalyticalEngine.evaluate`` replicated over the config axis: the
        integer scaffolding (tile counts, pass counts, affine fetch totals)
        runs as broadcast ``int64`` math — exact as long as the intermediate
        products stay below 2**63, orders of magnitude above any real
        workload — and the traffic words as broadcast ``float64`` products in
        the engine's exact expression order.
        """
        workload = self.workload
        n = len(rows)

        quads: List[tuple] = []
        ints: List[int] = []
        floats: List[tuple] = []
        quad_cache = self._quads
        for key, arch, spec, variant_key in rows:
            quad_key = (variant_key, arch.glb_capacity_words,
                        arch.pe_buffer_capacity_words,
                        arch.glb_fifo_fraction, arch.pe_fifo_fraction)
            quad = quad_cache.get(quad_key)
            if quad is None:
                quad = self._quad(variant_key, spec, arch)
                quad_cache[quad_key] = quad
            quads.append(quad)
            ints.extend(quad[0])
            ints.append(arch.num_pes)
            floats.append(
                (arch.traffic_words_per_nonzero,
                 arch.dram_bandwidth_words_per_cycle,
                 arch.glb_bandwidth_words_per_cycle)
                + _energy_table(arch.glb_capacity_words,
                                arch.pe_buffer_capacity_words,
                                arch.word_bits))

        columns = np.array(ints, dtype=np.int64).reshape(n, 20).T
        (nt_ga, nt_gb, nt_pa, nt_pb, chunks_gb, chunks_pb,
         ga_fit, ga_over, ga_count, ga_resident, ga_total,
         gb_fit, gb_over, gb_count, gb_resident,
         pa_fit, pa_over, pa_count, pa_resident, num_pes) = columns
        fcolumns = np.array(floats, dtype=np.float64).T
        wpn_column = fcolumns[0]
        dram_bandwidth = fcolumns[1]
        glb_bandwidth = fcolumns[2]
        (dram_r, dram_w, glb_r, glb_w, pe_r, pe_w,
         mac_r, mac_w, isect_r, isect_w) = fcolumns[3:]

        num_a_glb = np.maximum(1, nt_ga)
        num_b_glb = np.maximum(1, nt_gb)
        num_a_pe = np.maximum(1, nt_pa)
        num_b_pe = np.maximum(1, nt_pb)

        subtiles_per_a_glb = np.maximum(1, _ceil_div(num_a_pe, num_a_glb))
        rounds_per_pair = np.maximum(1, _ceil_div(subtiles_per_a_glb, num_pes))
        subtiles_per_b_glb = np.maximum(1, _ceil_div(num_b_pe, num_b_glb))

        passes_a_glb = np.maximum(num_b_glb, chunks_gb)
        passes_a_pe = np.maximum(subtiles_per_b_glb,
                                 _ceil_div(chunks_pb, num_b_glb))

        a_fetch = _fetch_totals(ga_fit, ga_over, ga_count, ga_resident,
                                passes_a_glb, policy)
        b_fetch = _fetch_totals(gb_fit, gb_over, gb_count, gb_resident,
                                rounds_per_pair, policy)
        a_pe_fetch = _fetch_totals(pa_fit, pa_over, pa_count, pa_resident,
                                   passes_a_pe, policy)

        # Traffic words: each product sequence mirrors the engine verbatim
        # (left-associated ``float(int) * float(int) * wpn``).
        dram_sr = a_fetch.astype(np.float64) * wpn_column
        dram_sb = ga_total.astype(np.float64) * wpn_column
        dram_st = (num_a_glb.astype(np.float64)
                   * b_fetch.astype(np.float64)) * wpn_column
        glb_sr = (num_b_glb.astype(np.float64)
                  * a_pe_fetch.astype(np.float64)) * wpn_column
        glb_sb = (num_b_glb.astype(np.float64)
                  * self._a_nnz_f) * wpn_column
        glb_st = ((num_a_glb * rounds_per_pair).astype(np.float64)
                  * self._b_nnz_f) * wpn_column

        # Cycles, energy and data reuse, still on the config axis — each
        # column is the engine's scalar expression broadcast elementwise (the
        # ``LevelTraffic`` property sums and ``EnergyModel.report`` products,
        # in the same association order, on the same float64 values).
        output_writes = self._output_writes
        compute_cycles = np.array([self._cycles_of(pes)
                                   for pes in num_pes.tolist()])
        dram_total_reads = dram_sr + dram_st
        glb_total_reads = glb_sr + glb_st
        dram_cycles = (dram_total_reads + output_writes) / dram_bandwidth
        glb_cycles = (glb_total_reads + output_writes) / glb_bandwidth
        cycles = np.maximum(np.maximum(dram_cycles, glb_cycles),
                            compute_cycles)
        dram_bound = ((dram_cycles >= glb_cycles)
                      & (dram_cycles >= compute_cycles)).tolist()
        glb_bound = (glb_cycles >= compute_cycles).tolist()

        e_dram = dram_total_reads * dram_r + output_writes * dram_w
        e_glb = (glb_total_reads * glb_r
                 + (dram_total_reads + output_writes) * glb_w)
        e_pe = self._pe_buffer_reads * pe_r + glb_total_reads * pe_w
        e_mac = self._mac_reads * mac_r + 0.0 * mac_w
        e_isect = self._intersection_steps * isect_r + 0.0 * isect_w

        accesses = self._a_nnz_f * passes_a_glb.astype(np.float64)
        actual_fetches = dram_sr / wpn_column
        reusable = np.maximum(accesses - self._a_nnz_f, 1.0)
        data_reuse = np.maximum(
            0.0, 1.0 - (actual_fetches - self._a_nnz_f) / reusable)

        dram_sr = dram_sr.tolist()
        dram_sb = dram_sb.tolist()
        dram_st = dram_st.tolist()
        glb_sr = glb_sr.tolist()
        glb_sb = glb_sb.tolist()
        glb_st = glb_st.tolist()
        dram_cycles = dram_cycles.tolist()
        glb_cycles = glb_cycles.tolist()
        compute_cycles = compute_cycles.tolist()
        cycles = cycles.tolist()
        e_dram = e_dram.tolist()
        e_glb = e_glb.tolist()
        e_pe = e_pe.tolist()
        e_mac = e_mac.tolist()
        e_isect = e_isect.tolist()
        data_reuse = data_reuse.tolist()
        num_a_glb = num_a_glb.tolist()
        num_b_glb = num_b_glb.tolist()
        num_a_pe = num_a_pe.tolist()
        num_b_pe = num_b_pe.tolist()
        rounds_per_pair = rounds_per_pair.tolist()

        # Report construction seeds each frozen dataclass's ``__dict__``
        # directly instead of calling ``__init__``: every field value is
        # already computed (and non-negative by construction, which is all
        # ``LevelTraffic.__post_init__`` would check), so the instances are
        # indistinguishable from engine-built ones — same fields, same
        # equality/hash/pickle behaviour — at a fraction of the per-cell
        # cost.  ``tests/model/test_batch.py`` pins the bitwise identity.
        new = object.__new__
        workload_name = workload.name
        output_nonzeros = workload.output_nonzeros
        kernel = workload.kernel
        effectual = self._effectual
        for i, (key, arch, spec, variant_key) in enumerate(rows):
            (_, block_rows, tax, glb_rate, glb_util, bumped,
             pe_rate, pe_util) = quads[i]

            dram = new(LevelTraffic)
            dram.__dict__.update(
                level="dram", stationary_reads=dram_sr[i],
                stationary_baseline=dram_sb[i], streaming_reads=dram_st[i],
                output_writes=output_writes)
            glb = new(LevelTraffic)
            glb.__dict__.update(
                level="global_buffer", stationary_reads=glb_sr[i],
                stationary_baseline=glb_sb[i], streaming_reads=glb_st[i],
                output_writes=output_writes)
            traffic = new(TrafficBreakdown)
            traffic.__dict__.update(dram=dram, global_buffer=glb)
            energy = new(EnergyReport)
            energy.__dict__["per_component_pj"] = {
                "dram": e_dram[i],
                "global_buffer": e_glb[i],
                "pe_buffer": e_pe[i],
                "mac": e_mac[i],
                "intersection": e_isect[i],
            }

            report = new(PerformanceReport)
            report.__dict__.update(
                workload=workload_name,
                variant=spec.name,
                cycles=cycles[i],
                energy=energy,
                traffic=traffic,
                effectual_multiplies=effectual,
                output_nonzeros=output_nonzeros,
                glb_block_rows=block_rows,
                glb_overbooking_rate=glb_rate,
                glb_utilization=glb_util,
                bumped_fraction=bumped,
                data_reuse_fraction=data_reuse[i],
                tiling_tax_elements=tax,
                bound=("dram" if dram_bound[i]
                       else "glb" if glb_bound[i] else "compute"),
                details={
                    "num_a_glb_tiles": float(num_a_glb[i]),
                    "num_b_glb_tiles": float(num_b_glb[i]),
                    "num_a_pe_tiles": float(num_a_pe[i]),
                    "num_b_pe_tiles": float(num_b_pe[i]),
                    "rounds_per_pair": float(rounds_per_pair[i]),
                    "dram_cycles": dram_cycles[i],
                    "glb_cycles": glb_cycles[i],
                    "compute_cycles": compute_cycles[i],
                    "pe_overbooking_rate": pe_rate,
                    "pe_utilization": pe_util,
                },
                kernel=kernel)
            reports[key] = report


def config_grid(base: ArchitectureConfig, *, y_values: Iterable[float],
                glb_capacities: Optional[Iterable[int]] = None,
                pe_buffer_capacities: Optional[Iterable[int]] = None,
                num_pes: Optional[Iterable[int]] = None) -> List[GridConfig]:
    """The full cross product of the given axes as ``(architecture, y)`` cells.

    Axis order (GLB outermost, then PE buffer, then PE count, then ``y``)
    matches the sweep planner's loop nesting.  ``None`` axes stay at the base
    architecture's value.
    """
    glb_axis = list(glb_capacities) if glb_capacities is not None \
        else [base.glb_capacity_words]
    pe_axis = list(pe_buffer_capacities) if pe_buffer_capacities is not None \
        else [base.pe_buffer_capacity_words]
    pes_axis = list(num_pes) if num_pes is not None else [base.num_pes]
    configs: List[GridConfig] = []
    for glb in glb_axis:
        for pe in pe_axis:
            for pes in pes_axis:
                overrides = {}
                if glb != base.glb_capacity_words:
                    overrides["glb_capacity_words"] = int(glb)
                if pe != base.pe_buffer_capacity_words:
                    overrides["pe_buffer_capacity_words"] = int(pe)
                if pes != base.num_pes:
                    overrides["num_pes"] = int(pes)
                arch = base.with_overrides(**overrides) if overrides else base
                for y in y_values:
                    configs.append((arch, float(y)))
    return configs

