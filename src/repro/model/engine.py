"""The end-to-end analytical evaluation engine.

:class:`AnalyticalEngine` reproduces the role Sparseloop plays in the paper's
methodology: given a workload, an architecture, and an accelerator variant
(a tiling strategy plus an overflow-handling policy), it computes the traffic
at every level of the memory hierarchy, converts it into a cycle count
(bandwidth- or compute-bound), and charges every action to the Accelergy-like
energy model.

Model structure (see DESIGN.md §5 for the derivation):

* **DRAM → GLB.**  The stationary operand A is tiled into row blocks; tile
  ``i`` is fetched according to the variant's overflow policy and re-scanned
  once per streaming-operand GLB tile (``T_B`` passes).  The streaming operand
  B is fetched once per stationary GLB tile; if a B tile overbooks its GLB
  partition, its bumped portion is re-fetched once per PE round of the paired
  stationary tile.
* **GLB → PE.**  The same structure one level down: stationary PE subtiles are
  re-read from the GLB once per streaming GLB tile and, when they overbook the
  PE buffer, their bumped portion is re-read once per streaming PE subtile.
* **Cycles.**  ``max(DRAM words / DRAM bandwidth, GLB words / GLB bandwidth,
  effectual multiplies / PE array throughput)``.
* **Energy.**  Per-action energies applied to the per-component action counts.

Production code evaluates through the vectorized
:class:`~repro.model.batch.BatchWorkloadEvaluator`, which replicates this
engine bit for bit over whole grids; the engine is kept as the readable,
independent oracle the tests compare it against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Protocol, runtime_checkable

import numpy as np

from repro.accelerator.config import ArchitectureConfig
from repro.accelerator.pe import PEArray
from repro.energy.accelergy import EnergyModel
from repro.model.sparsity import TileOccupancyModel
from repro.model.stats import PerformanceReport, TrafficBreakdown
from repro.model.traffic import FetchPolicy, LevelTraffic, operand_fetches
from repro.model.workload import WorkloadDescriptor

if TYPE_CHECKING:
    from repro.core.overbooking import TilerResult
    from repro.tensor.sparse import SparseMatrix

#: Words written per output nonzero (coordinate + value).
_OUTPUT_WORDS_PER_NONZERO = 2.0


@runtime_checkable
class Tiler(Protocol):
    """Structural type of a tiling strategy.

    Anything with a ``tile(matrix, capacity) -> TilerResult`` method — the
    concrete strategies live in :mod:`repro.core.overbooking` and
    :mod:`repro.tiling.position`.
    """

    def tile(self, matrix: "SparseMatrix", capacity: int) -> "TilerResult":
        ...


@runtime_checkable
class TilerFactory(Protocol):
    """Zero-argument callable producing a fresh :class:`Tiler`.

    Implementations must be picklable (a class, or an instance of a
    module-level class — not a closure) so that :class:`VariantSpec` can cross
    the process boundary of the evaluation scheduler.
    """

    def __call__(self) -> Tiler:
        ...


@dataclass(frozen=True)
class VariantSpec:
    """What the engine needs to know about an accelerator variant.

    Attributes
    ----------
    name:
        Variant name used in reports (e.g. ``"ExTensor-OB"``).
    tiler_factory:
        A :class:`TilerFactory`: zero-argument callable returning a fresh
        tiler.  A fresh tiler per evaluation keeps random sampling streams
        independent across workloads.
    policy:
        Overflow-handling policy of the variant's buffers.
    """

    name: str
    tiler_factory: TilerFactory
    policy: FetchPolicy

    def make_tiler(self) -> Tiler:
        return self.tiler_factory()


class AnalyticalEngine:
    """Evaluate workloads on an architecture under different variants."""

    def __init__(self, architecture: ArchitectureConfig, *,
                 energy_model: Optional[EnergyModel] = None):
        self.architecture = architecture
        self.energy_model = energy_model or EnergyModel.for_architecture(
            glb_capacity_words=architecture.glb_capacity_words,
            pe_buffer_capacity_words=architecture.pe_buffer_capacity_words,
            word_bits=architecture.word_bits,
        )
        self._pe_array = PEArray(num_pes=architecture.num_pes)

    # ------------------------------------------------------------------ #
    # Main entry point
    # ------------------------------------------------------------------ #
    def evaluate(self, workload: WorkloadDescriptor, variant: VariantSpec) -> PerformanceReport:
        """Evaluate one workload under one accelerator variant.

        The equations are kernel-agnostic: ``workload.a`` is whatever the
        kernel declares stationary (tiled in row blocks, possibly overbooked)
        and ``workload.b`` is its streaming operand — ``Aᵀ`` for the paper's
        Gram kernel, a distinct sparse matrix for general SpMSpM, or a
        shape-only :class:`~repro.tensor.sparse.DenseOperand` for the dense
        factor of SpMM/SpMV/SDDMM, whose tile occupancies are their areas.
        Shapes, densities and the per-tile occupancy statistics all come from
        the operands, so nothing below assumes a square ``A × Aᵀ``.
        """
        arch = self.architecture
        a = workload.a
        b = workload.b
        b_by_columns = b.transpose()  # column blocks of B == row blocks of Bᵀ
        wpn = arch.traffic_words_per_nonzero

        tiler = variant.make_tiler()

        # ---------------- GLB-level tilings ---------------- #
        glb_a = TileOccupancyModel.from_tiler(
            a, tiler, operand="A", level="global_buffer",
            capacity=arch.glb_capacity_words, fifo_words=arch.glb_fifo_words)
        glb_b = TileOccupancyModel.from_tiler(
            b_by_columns, tiler, operand="B", level="global_buffer",
            capacity=arch.glb_capacity_words, fifo_words=arch.glb_fifo_words)

        # ---------------- PE-level tilings ---------------- #
        pe_a = TileOccupancyModel.from_tiler(
            a, tiler, operand="A", level="pe_buffer",
            capacity=arch.pe_buffer_capacity_words, fifo_words=arch.pe_fifo_words)
        pe_b = TileOccupancyModel.from_tiler(
            b_by_columns, tiler, operand="B", level="pe_buffer",
            capacity=arch.pe_buffer_capacity_words, fifo_words=arch.pe_fifo_words)

        num_a_glb = max(1, glb_a.num_tiles)
        num_b_glb = max(1, glb_b.num_tiles)
        num_a_pe = max(1, pe_a.num_tiles)
        num_b_pe = max(1, pe_b.num_tiles)

        # A PE subtiles per A GLB tile, and the number of PE "rounds" each
        # pair requires (the PE array rotates through the subtiles).
        subtiles_per_a_glb = max(1, math.ceil(num_a_pe / num_a_glb))
        rounds_per_pair = max(1, math.ceil(subtiles_per_a_glb / arch.num_pes))
        subtiles_per_b_glb = max(1, math.ceil(num_b_pe / num_b_glb))

        # The stationary tile is re-scanned once per *buffer-sized chunk* of
        # the streaming operand, not once per nominal streaming tile: a
        # streaming tile that overbooks its partition is consumed in
        # capacity-sized chunks, each of which requires another scan of the
        # stationary tile (and hence another re-fetch of its bumped portion).
        # For non-overbooked tilings this reduces to the streaming tile count.
        b_glb_chunks = int(np.ceil(glb_b.occupancies / arch.glb_capacity_words).sum())
        passes_a_glb = max(1, num_b_glb, b_glb_chunks)
        b_pe_chunks = int(np.ceil(pe_b.occupancies / arch.pe_buffer_capacity_words).sum())
        passes_a_pe = max(1, subtiles_per_b_glb,
                          math.ceil(b_pe_chunks / num_b_glb))

        # ---------------- DRAM traffic ---------------- #
        a_fetches = operand_fetches(
            glb_a.occupancies, arch.glb_capacity_words,
            fifo_words=arch.glb_fifo_words, passes=passes_a_glb, policy=variant.policy)
        b_fetches = operand_fetches(
            glb_b.occupancies, arch.glb_capacity_words,
            fifo_words=arch.glb_fifo_words, passes=rounds_per_pair, policy=variant.policy)

        dram = LevelTraffic(
            level="dram",
            stationary_reads=float(a_fetches.sum()) * wpn,
            stationary_baseline=float(glb_a.occupancies.sum()) * wpn,
            streaming_reads=float(num_a_glb) * float(b_fetches.sum()) * wpn,
            output_writes=float(workload.output_nonzeros) * _OUTPUT_WORDS_PER_NONZERO,
        )

        # ---------------- GLB traffic ---------------- #
        a_pe_fetches = operand_fetches(
            pe_a.occupancies, arch.pe_buffer_capacity_words,
            fifo_words=arch.pe_fifo_words, passes=passes_a_pe, policy=variant.policy)
        glb_stationary_reads = float(num_b_glb) * float(a_pe_fetches.sum()) * wpn
        glb_stationary_baseline = float(num_b_glb) * float(a.nnz) * wpn
        glb_streaming_reads = float(num_a_glb * rounds_per_pair) * float(b.nnz) * wpn

        glb = LevelTraffic(
            level="global_buffer",
            stationary_reads=glb_stationary_reads,
            stationary_baseline=glb_stationary_baseline,
            streaming_reads=glb_streaming_reads,
            output_writes=float(workload.output_nonzeros) * _OUTPUT_WORDS_PER_NONZERO,
        )

        traffic = TrafficBreakdown(dram=dram, global_buffer=glb)

        # ---------------- Cycles ---------------- #
        effectual = workload.effectual_multiplies
        dram_cycles = dram.total_words / arch.dram_bandwidth_words_per_cycle
        glb_cycles = glb.total_words / arch.glb_bandwidth_words_per_cycle
        compute_cycles = self._pe_array.compute_cycles(effectual)
        cycles = max(dram_cycles, glb_cycles, compute_cycles)
        # Deterministic tie-break (dram > glb > compute): a float-keyed dict
        # silently collapses tied cycle counts and reports whichever bottleneck
        # happened to be inserted last.
        if dram_cycles >= glb_cycles and dram_cycles >= compute_cycles:
            bound = "dram"
        elif glb_cycles >= compute_cycles:
            bound = "glb"
        else:
            bound = "compute"

        # ---------------- Energy ---------------- #
        intersection_steps = 2.0 * effectual + (a.nnz + b.nnz)
        action_counts = {
            "dram": {"reads": dram.total_reads, "writes": dram.output_writes},
            "global_buffer": {
                "reads": glb.total_reads,
                "writes": dram.total_reads + glb.output_writes,
            },
            "pe_buffer": {"reads": 2.0 * effectual, "writes": glb.total_reads},
            "mac": {"reads": float(effectual)},
            "intersection": {"reads": intersection_steps},
        }
        energy = self.energy_model.report(action_counts)

        # ---------------- Reuse / utilization statistics ---------------- #
        accesses = float(a.nnz) * passes_a_glb
        ideal_fetches = float(a.nnz)
        actual_fetches = dram.stationary_reads / wpn
        reusable = max(accesses - ideal_fetches, 1.0)
        data_reuse = max(0.0, 1.0 - (actual_fetches - ideal_fetches) / reusable)

        tax = (glb_a.tiler_result.tax.total_elements
               + glb_b.tiler_result.tax.total_elements
               + pe_a.tiler_result.tax.total_elements
               + pe_b.tiler_result.tax.total_elements)

        details = {
            "num_a_glb_tiles": float(num_a_glb),
            "num_b_glb_tiles": float(num_b_glb),
            "num_a_pe_tiles": float(num_a_pe),
            "num_b_pe_tiles": float(num_b_pe),
            "rounds_per_pair": float(rounds_per_pair),
            "dram_cycles": dram_cycles,
            "glb_cycles": glb_cycles,
            "compute_cycles": compute_cycles,
            "pe_overbooking_rate": pe_a.overbooking_rate,
            "pe_utilization": pe_a.buffer_utilization,
        }

        return PerformanceReport(
            workload=workload.name,
            variant=variant.name,
            cycles=cycles,
            energy=energy,
            traffic=traffic,
            effectual_multiplies=effectual,
            output_nonzeros=workload.output_nonzeros,
            glb_block_rows=glb_a.tiler_result.block_rows,
            glb_overbooking_rate=glb_a.overbooking_rate,
            glb_utilization=glb_a.buffer_utilization,
            bumped_fraction=glb_a.bumped_fraction,
            data_reuse_fraction=data_reuse,
            tiling_tax_elements=tax,
            bound=bound,
            details=details,
            kernel=workload.kernel,
        )
