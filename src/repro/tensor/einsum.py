"""Einsum workload descriptions and SpMSpM operation counting.

The paper expresses its kernels in Einstein-summation notation, e.g.
``Z[m,n] = A[m,k] * B[k,n]`` (Eq. 1), and evaluates ``A × Aᵀ`` on every
workload.  This module provides:

* :class:`EinsumSpec` — a tiny parser for two-operand einsums; each kernel
  of the family names the einsum it instantiates (Table 3 prints them).
* :class:`MatmulWorkload` — a concrete SpMSpM problem (two sparse operands).
* :func:`count_spmspm_operations` — exact counting of effectual multiplies
  and output nonzeros, the compute-side inputs to the cycle/energy model.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.tensor.sparse import SparseMatrix

_EINSUM_PATTERN = re.compile(
    r"^\s*(?P<out>\w+)\[(?P<out_idx>[^\]]+)\]\s*=\s*"
    r"(?P<a>\w+)\[(?P<a_idx>[^\]]+)\]\s*\*\s*"
    r"(?P<b>\w+)\[(?P<b_idx>[^\]]+)\]\s*$"
)


def _split_indices(text: str) -> Tuple[str, ...]:
    parts = tuple(p.strip() for p in text.split(","))
    if any(not p for p in parts):
        raise ValueError(f"malformed index list: {text!r}")
    return parts


@dataclass(frozen=True)
class EinsumSpec:
    """A parsed two-operand Einsum of the form ``Z[m,n] = A[m,k] * B[k,n]``.

    Attributes
    ----------
    output, operand_a, operand_b:
        Tensor names.
    output_indices, a_indices, b_indices:
        Index tuples for each tensor.
    """

    output: str
    output_indices: Tuple[str, ...]
    operand_a: str
    a_indices: Tuple[str, ...]
    operand_b: str
    b_indices: Tuple[str, ...]

    @classmethod
    def parse(cls, expression: str) -> "EinsumSpec":
        """Parse an einsum expression string.

        >>> spec = EinsumSpec.parse("Z[m,n] = A[m,k] * B[k,n]")
        >>> spec.b_indices
        ('k', 'n')
        """
        match = _EINSUM_PATTERN.match(expression)
        if match is None:
            raise ValueError(
                "expected an expression like 'Z[m,n] = A[m,k] * B[k,n]', "
                f"got {expression!r}"
            )
        return cls(
            output=match["out"],
            output_indices=_split_indices(match["out_idx"]),
            operand_a=match["a"],
            a_indices=_split_indices(match["a_idx"]),
            operand_b=match["b"],
            b_indices=_split_indices(match["b_idx"]),
        )


#: The matrix-multiplication einsum from Eq. 1 of the paper.
MATMUL_EINSUM = EinsumSpec.parse("Z[m,n] = A[m,k] * B[k,n]")


@dataclass(frozen=True)
class OperationCounts:
    """Exact work of an SpMSpM problem.

    Attributes
    ----------
    effectual_multiplies:
        Number of scalar multiplications between two nonzeros — the work an
        ideal sparse accelerator performs.
    output_nonzeros:
        Number of nonzeros in the output tensor.
    dense_multiplies:
        Work a dense engine would perform (``M * K * N``); the ratio to
        ``effectual_multiplies`` is the compute saving from sparsity.
    """

    effectual_multiplies: int
    output_nonzeros: int
    dense_multiplies: int


def _output_pattern_nnz(a: SparseMatrix, b: SparseMatrix) -> int:
    """Stored nonzeros of ``A @ B`` without computing the product's values.

    SciPy's SpGEMM is two-phase (SMMP): a symbolic pass sizes the output
    pattern, then a numeric pass fills it.  The stored ``nnz`` of the product
    equals the symbolic pattern size (SciPy does not prune entries that cancel
    numerically), so running only the symbolic pass yields the identical count
    at a fraction of the cost.  Falls back to the full (memoized) multiply if
    the SciPy internal is unavailable.
    """
    try:
        from scipy.sparse import _sparsetools
        csr_matmat_maxnnz = _sparsetools.csr_matmat_maxnnz
        from scipy.sparse import _sputils
        get_index_dtype = _sputils.get_index_dtype
    except (ImportError, AttributeError):
        # Raw SciPy product: its stored nnz is the pattern size (SciPy keeps
        # entries that cancel numerically), matching the fast path exactly.
        return int((a.csr @ b.csr).nnz)
    left = a.csr
    right = b.csr
    m, _ = left.shape
    n = right.shape[1]
    idx_dtype = get_index_dtype(
        (left.indptr, left.indices, right.indptr, right.indices))
    return int(csr_matmat_maxnnz(
        m, n,
        left.indptr.astype(idx_dtype, copy=False),
        left.indices.astype(idx_dtype, copy=False),
        right.indptr.astype(idx_dtype, copy=False),
        right.indices.astype(idx_dtype, copy=False),
    ))


def count_spmspm_operations(a: SparseMatrix, b: SparseMatrix) -> OperationCounts:
    """Count effectual multiplies and output nonzeros of ``A @ B``.

    The number of effectual multiplications of a row-times-column formulation
    equals ``sum_k nnz(A[:, k]) * nnz(B[k, :])`` — each nonzero in column ``k``
    of ``A`` meets each nonzero in row ``k`` of ``B`` exactly once.
    """
    if a.num_cols != b.num_rows:
        raise ValueError(
            f"inner dimensions do not match: {a.num_cols} vs {b.num_rows}"
        )
    key = ("spmspm_operations", b.uid)
    cached = a.memo.get(key)
    if cached is not None:
        return cached
    a_col_occ = a.col_occupancies()
    b_row_occ = b.row_occupancies()
    effectual = int(np.dot(a_col_occ.astype(np.float64), b_row_occ.astype(np.float64)))
    output_nnz = _output_pattern_nnz(a, b)
    dense = a.num_rows * a.num_cols * b.num_cols
    counts = OperationCounts(
        effectual_multiplies=effectual,
        output_nonzeros=output_nnz,
        dense_multiplies=dense,
    )
    a.memo[key] = counts
    return counts


@dataclass(frozen=True)
class MatmulWorkload:
    """A concrete SpMSpM workload: ``Z = A @ B`` with both operands sparse.

    The paper evaluates ``A × Aᵀ``; :meth:`gram` builds that case.  As part of
    the kernel family (see :mod:`repro.tensor.kernels`) the workload exposes
    the uniform ``kernel`` / ``stationary_operand`` / ``streaming_operand`` /
    ``reference_dense`` surface the model layer consumes; ``A`` is the tiled
    stationary operand and ``B`` streams.
    """

    a: SparseMatrix
    b: SparseMatrix
    name: str = "matmul"

    @property
    def kernel(self) -> str:
        """Kernel-family name: ``"gram"`` when ``B`` is ``A``'s transpose.

        Gram workloads share ``A``'s cached transpose instance (see
        :meth:`gram`), so the identity check is exact and free.
        """
        return "gram" if self.b is self.a.transpose() else "spmspm"

    def __post_init__(self) -> None:
        if self.a.num_cols != self.b.num_rows:
            raise ValueError(
                "operand shapes are incompatible: "
                f"A is {self.a.csr.shape}, B is {self.b.csr.shape}"
            )

    @classmethod
    def gram(cls, a: SparseMatrix, name: str | None = None) -> "MatmulWorkload":
        """Build the ``A × Aᵀ`` workload used throughout the evaluation."""
        return cls(a=a, b=a.transpose(), name=name or f"{a.name} x {a.name}^T")

    @property
    def einsum(self) -> EinsumSpec:
        """The einsum this workload instantiates."""
        return MATMUL_EINSUM

    @property
    def m(self) -> int:
        return self.a.num_rows

    @property
    def k(self) -> int:
        return self.a.num_cols

    @property
    def n(self) -> int:
        return self.b.num_cols

    @property
    def stationary_operand(self) -> SparseMatrix:
        """The operand tiled in row blocks by the dataflow (``A``)."""
        return self.a

    @property
    def streaming_operand(self) -> SparseMatrix:
        """The operand streamed once per stationary tile (``B``)."""
        return self.b

    def operation_counts(self) -> OperationCounts:
        """Exact effectual work of the workload."""
        return count_spmspm_operations(self.a, self.b)

    def reference_result(self) -> SparseMatrix:
        """Functional ground truth computed with SciPy."""
        return self.a.matmul(self.b)

    def reference_dense(self) -> np.ndarray:
        """Dense NumPy reference result (kernel-family validation surface)."""
        return self.a.to_dense() @ self.b.to_dense()
