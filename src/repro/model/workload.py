"""Workload descriptors with cached derived quantities.

The analytical engine evaluates the same workload under several accelerator
variants and parameter sweeps (Figs. 7–12 all reuse the same 22 workloads), so
the expensive derived quantities — the exact effectual-multiply count and the
output occupancy — are computed once per workload and cached here.

A descriptor wraps one member of the kernel family
(:mod:`repro.tensor.kernels`): the paper's Gram SpMSpM by default, or any of
the generalized kernels (SpMSpM with distinct operands, SpMM, SpMV, SDDMM).
The engine consumes only the uniform surface — stationary/streaming operands
plus operation counts — so every kernel flows through the same traffic and
energy equations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.tensor.einsum import EinsumSpec, MatmulWorkload, OperationCounts
from repro.tensor.kernels import (
    DEFAULT_FEATURE_DIM,
    KernelWorkload,
    build_kernel_workload,
    kernel_spec,
)
from repro.tensor.sparse import SparseMatrix
from repro.tensor.suite import WorkloadSuite


@dataclass
class WorkloadDescriptor:
    """A kernel workload plus lazily-computed operation counts."""

    name: str
    workload: KernelWorkload
    kernel: str = "gram"
    _counts: Optional[OperationCounts] = field(default=None, repr=False)

    @classmethod
    def gram(cls, matrix: SparseMatrix, name: str | None = None) -> "WorkloadDescriptor":
        """Build the ``A × Aᵀ`` workload the paper evaluates for ``matrix``."""
        workload_name = name or matrix.name
        return cls(name=workload_name, kernel="gram",
                   workload=MatmulWorkload.gram(matrix, name=workload_name))

    @classmethod
    def for_kernel(cls, kernel: str, matrix: SparseMatrix, *,
                   name: str | None = None,
                   paired_matrix: SparseMatrix | None = None,
                   rng: np.random.Generator | None = None,
                   feature_dim: int = DEFAULT_FEATURE_DIM) -> "WorkloadDescriptor":
        """Build the ``kernel`` workload for ``matrix``.

        ``paired_matrix`` supplies the ``B`` of a general SpMSpM; ``rng``
        drives the deterministic dense factors of SpMM/SpMV/SDDMM (see
        :func:`repro.tensor.kernels.build_kernel_workload`).
        """
        workload_name = name or matrix.name
        if kernel == "gram":
            return cls.gram(matrix, name=workload_name)
        workload = build_kernel_workload(
            kernel, matrix, name=workload_name, paired_matrix=paired_matrix,
            rng=rng, feature_dim=feature_dim)
        return cls(name=workload_name, workload=workload, kernel=kernel)

    @classmethod
    def from_suite(cls, suite: WorkloadSuite, name: str, *,
                   kernel: str = "gram",
                   feature_dim: int = DEFAULT_FEATURE_DIM) -> "WorkloadDescriptor":
        """Build the ``kernel`` workload for suite workload ``name``.

        Resolves the kernel's extra operands from the suite: the paired ``B``
        matrix for general SpMSpM and the deterministic per-(workload, kernel)
        random stream for dense factors — both pure functions of the suite
        token, so descriptors built here match the ones scheduler workers
        rebuild.
        """
        spec = kernel_spec(kernel)
        matrix = suite.matrix(name)
        paired = suite.paired_matrix(name) if spec.needs_paired_operand else None
        rng = (suite.kernel_rng(name, spec.stream_salt)
               if spec.needs_dense_operand else None)
        return cls.for_kernel(kernel, matrix, name=name, paired_matrix=paired,
                              rng=rng, feature_dim=feature_dim)

    # ------------------------------------------------------------------ #
    # Uniform kernel surface consumed by the engine
    # ------------------------------------------------------------------ #
    @property
    def einsum(self) -> EinsumSpec:
        return self.workload.einsum

    @property
    def a(self) -> SparseMatrix:
        """The stationary operand (tiled in row blocks by the dataflow)."""
        return self.workload.stationary_operand

    @property
    def b(self) -> SparseMatrix:
        """The streaming operand (scanned once per stationary tile)."""
        return self.workload.streaming_operand

    @property
    def operation_counts(self) -> OperationCounts:
        """Exact effectual multiplies / output nonzeros (computed once)."""
        if self._counts is None:
            self._counts = self.workload.operation_counts()
        return self._counts

    @property
    def effectual_multiplies(self) -> int:
        return self.operation_counts.effectual_multiplies

    @property
    def output_nonzeros(self) -> int:
        return self.operation_counts.output_nonzeros
