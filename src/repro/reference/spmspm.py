"""A pure-Python Gustavson (row-wise) SpMSpM reference implementation.

The accelerator model is analytical — it never multiplies numbers — so the
library needs an independent functional reference to check that (a) the
SpMSpM operation counting of the kernel registry
(:func:`repro.tensor.kernels.count_spmspm_operations`, behind the ``gram``
and ``spmspm`` rows) is exact and (b) the SciPy
product used elsewhere agrees with a from-scratch implementation.  This module
is that reference: simple, slow, and obviously correct.
"""

from __future__ import annotations

from typing import Dict

from repro.tensor.sparse import SparseMatrix


def gustavson_spmspm(a: SparseMatrix, b: SparseMatrix) -> SparseMatrix:
    """Multiply two sparse matrices row by row (Gustavson's algorithm).

    For each row ``i`` of A, every nonzero ``A[i, k]`` is combined with row
    ``k`` of B, accumulating partial sums into a per-row hash map — the same
    algorithm GAMMA accelerates in hardware.
    """
    if a.num_cols != b.num_rows:
        raise ValueError(
            f"inner dimensions do not match: {a.num_cols} vs {b.num_rows}"
        )
    a_csr = a.csr
    b_csr = b.csr
    rows_out = []
    cols_out = []
    vals_out = []
    for i in range(a.num_rows):
        accumulator: Dict[int, float] = {}
        for idx in range(a_csr.indptr[i], a_csr.indptr[i + 1]):
            k = int(a_csr.indices[idx])
            a_val = float(a_csr.data[idx])
            for jdx in range(b_csr.indptr[k], b_csr.indptr[k + 1]):
                j = int(b_csr.indices[jdx])
                accumulator[j] = accumulator.get(j, 0.0) + a_val * float(b_csr.data[jdx])
        for j, value in accumulator.items():
            if value != 0.0:
                rows_out.append(i)
                cols_out.append(j)
                vals_out.append(value)
    return SparseMatrix.from_coo(rows_out, cols_out, vals_out,
                                 (a.num_rows, b.num_cols),
                                 name=f"{a.name}@{b.name} (gustavson)")


def multiply_count(a: SparseMatrix, b: SparseMatrix) -> int:
    """Count scalar multiplications performed by Gustavson's algorithm.

    This equals the number of *effectual* multiplications an ideal sparse
    accelerator performs and is used to validate
    :func:`repro.tensor.kernels.count_spmspm_operations`.
    """
    if a.num_cols != b.num_rows:
        raise ValueError(
            f"inner dimensions do not match: {a.num_cols} vs {b.num_rows}"
        )
    a_csr = a.csr
    b_row_occ = b.row_occupancies()
    count = 0
    for i in range(a.num_rows):
        for idx in range(a_csr.indptr[i], a_csr.indptr[i + 1]):
            count += int(b_row_occ[int(a_csr.indices[idx])])
    return count
