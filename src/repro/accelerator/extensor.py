"""The three evaluated accelerator variants and a convenience top-level model.

Section 5.2 of the paper evaluates three variants of ExTensor that differ only
in their tiling strategy (and, for the overbooked variant, in the storage
idiom that makes overbooking safe):

* **ExTensor-N** — the original design: uniform-shape tiles sized for the
  dense worst case, no preprocessing.
* **ExTensor-P** — prescient uniform-shape tiles: the largest size whose
  maximum observed occupancy fits each buffer (an idealized baseline whose
  preprocessing cost is not charged, as in the paper).
* **ExTensor-OB** — overbooked tiles sized by Swiftiles (y = 10% by default),
  executed with Tailors buffers.

:class:`ExTensorModel` bundles an architecture, the per-point analytical
engine, and the variant definitions.  The experiment harness evaluates
through :mod:`repro.model.batch` instead; ``ExTensorModel`` is the
independent per-point oracle the tests hold that evaluator to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from repro.accelerator.config import ArchitectureConfig, scaled_default_config
from repro.core.overbooking import NaiveTiler, OverbookingTiler, PrescientTiler
from repro.core.swiftiles import SwiftilesConfig
from repro.model.engine import AnalyticalEngine, VariantSpec
from repro.model.stats import PerformanceReport
from repro.model.traffic import FetchPolicy
from repro.model.workload import WorkloadDescriptor
from repro.tensor.sparse import SparseMatrix

#: Canonical variant names used across experiments and reports.
VARIANT_NAIVE = "ExTensor-N"
VARIANT_PRESCIENT = "ExTensor-P"
VARIANT_OVERBOOKING = "ExTensor-OB"


@dataclass(frozen=True)
class OverbookingTilerFactory:
    """Picklable :class:`~repro.model.engine.TilerFactory` for ExTensor-OB.

    A module-level dataclass rather than a closure so that variant specs can
    cross the process boundary of the evaluation scheduler.
    """

    config: SwiftilesConfig
    rng_seed: int = 7

    def __call__(self) -> OverbookingTiler:
        return OverbookingTiler(self.config, rng=self.rng_seed)


@dataclass(frozen=True)
class AcceleratorVariant:
    """A named accelerator variant: a tiling strategy plus an overflow policy."""

    name: str
    spec: VariantSpec

    @classmethod
    def naive(cls) -> "AcceleratorVariant":
        """ExTensor-N: dense worst-case uniform-shape tiling, buffet buffers."""
        return cls(VARIANT_NAIVE, VariantSpec(
            name=VARIANT_NAIVE,
            tiler_factory=NaiveTiler,
            policy=FetchPolicy.FIT,
        ))

    @classmethod
    def prescient(cls) -> "AcceleratorVariant":
        """ExTensor-P: prescient uniform-shape tiling, buffet buffers."""
        return cls(VARIANT_PRESCIENT, VariantSpec(
            name=VARIANT_PRESCIENT,
            tiler_factory=PrescientTiler,
            policy=FetchPolicy.BUFFET,
        ))

    @classmethod
    def overbooking(cls, *, overbooking_target: float = 0.10,
                    samples_in_tail: int = 10,
                    sample_all_tiles: bool = False,
                    rng_seed: int = 7) -> "AcceleratorVariant":
        """ExTensor-OB: Swiftiles tiling at the given ``y``, Tailors buffers."""
        config = SwiftilesConfig(
            overbooking_target=overbooking_target,
            samples_in_tail=samples_in_tail,
            sample_all_tiles=sample_all_tiles,
        )
        name = VARIANT_OVERBOOKING
        if abs(overbooking_target - 0.10) > 1e-12:
            name = f"{VARIANT_OVERBOOKING}(y={overbooking_target:.0%})"
        return cls(name, VariantSpec(
            name=name,
            tiler_factory=OverbookingTilerFactory(config, rng_seed=rng_seed),
            policy=FetchPolicy.TAILORS,
        ))


def default_variants() -> List[AcceleratorVariant]:
    """The three variants evaluated throughout the paper, in report order."""
    return [
        AcceleratorVariant.naive(),
        AcceleratorVariant.prescient(),
        AcceleratorVariant.overbooking(),
    ]


class ExTensorModel:
    """Convenience wrapper: evaluate workloads on every variant of interest.

    Parameters
    ----------
    architecture:
        Architecture configuration; defaults to the scaled configuration that
        matches the synthetic workload suite.
    variants:
        The accelerator variants to evaluate; defaults to N / P / OB.
    """

    def __init__(self, architecture: Optional[ArchitectureConfig] = None,
                 variants: Optional[Iterable[AcceleratorVariant]] = None):
        self.architecture = architecture or scaled_default_config()
        self.variants = list(variants) if variants is not None else default_variants()
        self.engine = AnalyticalEngine(self.architecture)

    def variant_names(self) -> List[str]:
        return [variant.name for variant in self.variants]

    def evaluate_matrix(self, matrix: SparseMatrix,
                        name: Optional[str] = None) -> Dict[str, PerformanceReport]:
        """Evaluate the ``A × Aᵀ`` workload for ``matrix`` on every variant."""
        workload = WorkloadDescriptor.gram(matrix, name=name or matrix.name)
        return self.evaluate_workload(workload)

    def evaluate_workload(self, workload: WorkloadDescriptor) -> Dict[str, PerformanceReport]:
        """Evaluate a prepared workload descriptor on every variant.

        Tilings are memoized per operand matrix (see
        :mod:`repro.core.overbooking`), so the per-variant evaluations share
        the transpose, the row-block occupancy scans and — across repeated
        calls — the tilings themselves.
        """
        return {
            variant.name: self.engine.evaluate(workload, variant.spec)
            for variant in self.variants
        }

    def evaluate_variant(self, workload: WorkloadDescriptor,
                         variant: AcceleratorVariant) -> PerformanceReport:
        """Evaluate one workload under a single variant."""
        return self.engine.evaluate(workload, variant.spec)
