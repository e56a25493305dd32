"""Workload descriptors with cached derived quantities.

The analytical engine evaluates the same workload under several accelerator
variants and parameter sweeps (Figs. 7–12 all reuse the same 22 workloads), so
the expensive derived quantities — the exact effectual-multiply count and the
output occupancy — are computed once per workload and cached here.

A descriptor holds one kernel's two operands (:mod:`repro.tensor.kernels`):
the paper's Gram SpMSpM by default, or any other registry row (SpMSpM with
distinct operands, SpMM, SpMV, SDDMM).  The engine consumes only the
stationary/streaming operands plus operation counts, so every kernel flows
through the same traffic and energy equations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.tensor.kernels import Operand, OperationCounts, kernel_spec
from repro.tensor.sparse import SparseMatrix
from repro.tensor.suite import WorkloadSuite


@dataclass
class WorkloadDescriptor:
    """A kernel's operands plus lazily-computed operation counts.

    ``a`` is the stationary operand (tiled in row blocks by the dataflow) and
    ``b`` the streaming operand (scanned once per stationary tile).
    """

    name: str
    kernel: str
    a: SparseMatrix
    b: Operand
    _counts: Optional[OperationCounts] = field(default=None, repr=False)

    @classmethod
    def gram(cls, matrix: SparseMatrix, name: str | None = None) -> "WorkloadDescriptor":
        """Build the ``A × Aᵀ`` workload the paper evaluates for ``matrix``."""
        return cls(name=name or matrix.name, kernel="gram", a=matrix,
                   b=matrix.transpose())

    @classmethod
    def from_suite(cls, suite: WorkloadSuite, name: str, *,
                   kernel: str = "gram") -> "WorkloadDescriptor":
        """Build the ``kernel`` workload for suite workload ``name``.

        The paired ``B`` of a general SpMSpM comes from the suite — a pure
        function of the suite token, so descriptors built here match the ones
        scheduler workers rebuild.
        """
        spec = kernel_spec(kernel)
        matrix = suite.matrix(name)
        paired = suite.paired_matrix(name) if spec.needs_paired_operand else None
        return cls(name=name, kernel=kernel, a=matrix,
                   b=spec.streaming(matrix, paired))

    @property
    def operation_counts(self) -> OperationCounts:
        """Exact effectual multiplies / output nonzeros (computed once)."""
        if self._counts is None:
            self._counts = kernel_spec(self.kernel).counts(self.a, self.b)
        return self._counts

    @property
    def effectual_multiplies(self) -> int:
        return self.operation_counts.effectual_multiplies

    @property
    def output_nonzeros(self) -> int:
        return self.operation_counts.output_nonzeros
