"""repro — a reproduction of *Tailors: Accelerating Sparse Tensor Algebra by
Overbooking Buffer Capacity* (MICRO 2023).

The package is organized as:

* :mod:`repro.tensor` — sparse tensor substrate (sparse matrices,
  generators, the synthetic evaluation suite).
* :mod:`repro.tiling` — coordinate-space and position-space tiling baselines.
* :mod:`repro.buffers` — EDDO storage idioms (buffets, caches).
* :mod:`repro.core` — the paper's contribution: Tailors, Swiftiles, the
  overbooking tiler, and reuse accounting.
* :mod:`repro.accelerator`, :mod:`repro.model`, :mod:`repro.energy` — the
  ExTensor-like accelerator, the Sparseloop-like analytical engine and the
  Accelergy-like energy model.
* :mod:`repro.experiments` — registry, scheduler and sweep runner that
  regenerate every table and figure of the paper.
* :mod:`repro.cli` — the ``python -m repro`` command line (list / run /
  sweep experiments, write JSON artifacts).

Quickstart::

    from repro import ExperimentContext

    context = ExperimentContext.full()
    reports = context.reports("roadNet-CA")
    print(reports["ExTensor-OB"].speedup_over(reports["ExTensor-N"]))

or from a shell: ``python -m repro run --all``.
"""

from repro.accelerator.config import ArchitectureConfig, paper_extensor_config, scaled_default_config
from repro.accelerator.extensor import AcceleratorVariant, ExTensorModel, default_variants
from repro.core.overbooking import NaiveTiler, OverbookingTiler, PrescientTiler
from repro.core.swiftiles import Swiftiles, SwiftilesConfig
from repro.core.tailors import Tailors, TailorsConfig
from repro.experiments import ExperimentContext
from repro.model.workload import WorkloadDescriptor
from repro.tensor.kernels import KERNELS, build_kernel_workload, kernel_names
from repro.tensor.sparse import SparseMatrix
from repro.tensor.suite import WorkloadSuite, corpus_suite, default_suite, small_suite

__version__ = "1.2.0"

__all__ = [
    "ExperimentContext",
    "ArchitectureConfig",
    "paper_extensor_config",
    "scaled_default_config",
    "AcceleratorVariant",
    "ExTensorModel",
    "default_variants",
    "NaiveTiler",
    "PrescientTiler",
    "OverbookingTiler",
    "Swiftiles",
    "SwiftilesConfig",
    "Tailors",
    "TailorsConfig",
    "WorkloadDescriptor",
    "SparseMatrix",
    "WorkloadSuite",
    "KERNELS",
    "build_kernel_workload",
    "kernel_names",
    "corpus_suite",
    "default_suite",
    "small_suite",
    "__version__",
]
