"""The kernel family: one registry row per kernel.

The paper evaluates a single kernel — the Gram SpMSpM ``A × Aᵀ`` (Eq. 1) —
but the overbooking/Tailors traffic model reads only four things from a
kernel: a *stationary* operand (tiled in row blocks, possibly overbooking its
buffer), a *streaming* operand (scanned once per stationary tile), the
effectual multiplies and the output nonzeros.  A :class:`KernelSpec` row
states them, and :data:`KERNELS` holds one row per row of the README's
"Kernels" table.

The stationary operand is always the workload's matrix.  A row's
``streaming`` function builds the streaming operand from it (and from the
suite's paired matrix, which only SpMSpM reads); a dense factor is a
:class:`~repro.tensor.sparse.DenseOperand`, its shape alone, because the model
needs none of its values.  A row's ``counts`` function returns the exact
:class:`OperationCounts` from the two operands, symbolically: no product is
materialized.

:func:`kernel_spec` is the fail-fast validator every layer calls on its
``kernel`` argument.  The kernel *name* is part of the evaluation identity —
it appears in report memo keys, scheduler requests, and the persistent report
store's content addresses (see ``docs/ARCHITECTURE.md``), so renaming a kernel
invalidates its cached evaluations by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple, Union

import numpy as np

from repro.tensor.sparse import DenseOperand, SparseMatrix

#: Inner rank of the dense factors of SpMM and SDDMM.
DENSE_RANK = 32

Operand = Union[SparseMatrix, DenseOperand]


@dataclass(frozen=True)
class OperationCounts:
    """Exact work of a kernel workload.

    Attributes
    ----------
    effectual_multiplies:
        Number of scalar multiplications between two nonzeros — the work an
        ideal sparse accelerator performs.
    output_nonzeros:
        Number of nonzeros in the output tensor.
    """

    effectual_multiplies: int
    output_nonzeros: int


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
    counts = OperationCounts(
        effectual_multiplies=effectual,
        output_nonzeros=output_nnz,
    )
    a.memo[key] = counts
    return counts


def _dense_factor_counts(a: SparseMatrix, b: DenseOperand) -> OperationCounts:
    """SpMM / SpMV: every stored nonzero of ``A`` meets each of the ``f``
    columns of ``B`` once, and an output row is nonzero iff ``A``'s row is
    (dense values are positive, so no dot product cancels)."""
    f = b.num_cols
    return OperationCounts(
        effectual_multiplies=a.nnz * f,
        output_nonzeros=int(np.count_nonzero(a.row_occupancies())) * f,
    )


def _sddmm_counts(s: SparseMatrix, d2: DenseOperand) -> OperationCounts:
    """SDDMM: each stored nonzero of ``S`` costs one ``f``-long dot product
    plus the sampling scale, and the output pattern is exactly ``S``'s."""
    f = d2.num_rows
    return OperationCounts(
        effectual_multiplies=s.nnz * (f + 1),
        output_nonzeros=s.nnz,
    )


@dataclass(frozen=True)
class KernelSpec:
    """One kernel of the family: one row of the README's "Kernels" table.

    Attributes
    ----------
    name:
        Kernel name used across the pipeline (CLI ``--kernel``, memo keys,
        scheduler requests, sweep grids).
    einsum:
        The einsum expression the kernel instantiates (Table 3 prints it).
    title:
        One-line description for reports and ``python -m repro list``.
    streaming:
        ``(A, paired B) → streaming operand``; the paired sparse matrix is
        ``None`` unless ``needs_paired_operand``.
    counts:
        ``(A, streaming operand) → OperationCounts``.
    needs_paired_operand:
        Whether the kernel streams a second *sparse* operand (general SpMSpM),
        which the suite derives deterministically for each workload.
    """

    name: str
    einsum: str
    title: str
    streaming: Callable[[SparseMatrix, Optional[SparseMatrix]], Operand]
    counts: Callable[[SparseMatrix, Operand], OperationCounts]
    needs_paired_operand: bool = False


#: The kernel family, keyed by name.  ``"gram"`` is the paper's kernel; the
#: rest are scenario extensions.
KERNELS: Dict[str, KernelSpec] = {
    spec.name: spec for spec in (
        KernelSpec(
            name="gram",
            einsum="Z[m,n] = A[m,k] * A^T[k,n]",
            title="Gram SpMSpM A x A^T (the paper's kernel)",
            streaming=lambda a, paired: a.transpose(),
            counts=count_spmspm_operations,
        ),
        KernelSpec(
            name="spmspm",
            einsum="Z[m,n] = A[m,k] * B[k,n]",
            title="general SpMSpM with two distinct sparse operands",
            streaming=lambda a, paired: paired,
            counts=count_spmspm_operations,
            needs_paired_operand=True,
        ),
        KernelSpec(
            name="spmm",
            einsum="Z[m,f] = A[m,k] * B[k,f]",
            title="SpMM: sparse x dense feature factor",
            streaming=lambda a, paired: DenseOperand(a.num_cols, DENSE_RANK),
            counts=_dense_factor_counts,
        ),
        KernelSpec(
            name="spmv",
            einsum="z[m] = A[m,k] * x[k]",
            title="SpMV: sparse matrix x dense vector",
            streaming=lambda a, paired: DenseOperand(a.num_cols, 1),
            counts=_dense_factor_counts,
        ),
        KernelSpec(
            name="sddmm",
            einsum="Z[m,n] = S[m,n] * (D1 @ D2)[m,n]",
            title="SDDMM: dense product sampled by the sparse pattern",
            streaming=lambda a, paired: DenseOperand(DENSE_RANK, a.num_cols),
            counts=_sddmm_counts,
        ),
    )
}


def kernel_names() -> Tuple[str, ...]:
    """The registered kernel names, Gram first."""
    return tuple(KERNELS)


def kernel_spec(name: str) -> KernelSpec:
    """The :class:`KernelSpec` registered as ``name`` (KeyError with hint)."""
    try:
        return KERNELS[name]
    except KeyError:
        raise KeyError(f"unknown kernel {name!r}; "
                       f"known: {list(KERNELS)}") from None
