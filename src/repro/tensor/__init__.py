"""Sparse tensor substrate.

This subpackage provides everything the rest of the library needs to talk
about sparse tensors:

* :mod:`repro.tensor.coords` — coordinate ranges.
* :mod:`repro.tensor.sparse` — the :class:`SparseMatrix` workhorse (COO/CSR
  backed, with fast per-tile occupancy counting) and :class:`DenseOperand`,
  a fully-dense operand described by its shape alone.
* :mod:`repro.tensor.einsum` — Einsum workload descriptions and operation
  counting for SpMSpM.
* :mod:`repro.tensor.kernels` — the pluggable kernel family (general SpMSpM,
  SpMM, SpMV, SDDMM) behind the workload layer.
* :mod:`repro.tensor.generators` — synthetic sparse matrix generators that
  mimic the SuiteSparse matrix classes used in the paper's evaluation.
* :mod:`repro.tensor.synth` — the seeded sparsity-model registry
  (:class:`SynthSpec`) that turns sparsity structure into a first-class,
  exactly reproducible experiment axis.
* :mod:`repro.tensor.suite` — the 22-workload synthetic evaluation suite
  mirroring Table 2 of the paper, plus MatrixMarket corpus suites.
* :mod:`repro.tensor.corpus` — the real-world corpus manager: DLMC +
  SuiteSparse dataset descriptors, an offline-first checksummed matrix
  cache with injectable transports, and corpus-addressed workload suites.
* :mod:`repro.tensor.io` — MatrixMarket-style persistence.
"""

from repro.tensor.coords import Range
from repro.tensor.sparse import DenseOperand, SparseMatrix
from repro.tensor.einsum import EinsumSpec, MatmulWorkload, count_spmspm_operations
from repro.tensor.kernels import (
    KERNELS,
    SDDMMWorkload,
    SpMMWorkload,
    SpMVWorkload,
    build_kernel_workload,
    kernel_names,
)
from repro.tensor.generators import (
    banded_matrix,
    block_diagonal_matrix,
    density_gradient_matrix,
    power_law_matrix,
    road_network_matrix,
    uniform_random_matrix,
)
from repro.tensor.suite import (
    WorkloadSpec,
    WorkloadSuite,
    corpus_suite,
    default_suite,
    synth_suite,
)
from repro.tensor.synth import SynthSpec, model_names, parse_synth_spec
from repro.tensor.corpus import (
    CorpusCache,
    CorpusError,
    InMemoryTransport,
    MatrixDescriptor,
    builtin_catalog,
    corpus_workload_suite,
    load_manifest,
    parse_corpus_ids,
)

__all__ = [
    "Range",
    "SparseMatrix",
    "DenseOperand",
    "EinsumSpec",
    "MatmulWorkload",
    "count_spmspm_operations",
    "KERNELS",
    "SDDMMWorkload",
    "SpMMWorkload",
    "SpMVWorkload",
    "build_kernel_workload",
    "kernel_names",
    "banded_matrix",
    "block_diagonal_matrix",
    "density_gradient_matrix",
    "power_law_matrix",
    "road_network_matrix",
    "uniform_random_matrix",
    "WorkloadSpec",
    "WorkloadSuite",
    "corpus_suite",
    "default_suite",
    "synth_suite",
    "SynthSpec",
    "model_names",
    "parse_synth_spec",
    "CorpusCache",
    "CorpusError",
    "InMemoryTransport",
    "MatrixDescriptor",
    "builtin_catalog",
    "corpus_workload_suite",
    "load_manifest",
    "parse_corpus_ids",
]
