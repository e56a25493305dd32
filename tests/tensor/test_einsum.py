"""The matmul einsum of Eq. 1, ``Z[m,n] = A[m,k] * B[k,n]``: exact SpMSpM
operation counting and the Gram ``A × Aᵀ`` workload."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.model.workload import WorkloadDescriptor
from repro.tensor.kernels import count_spmspm_operations
from repro.tensor.sparse import SparseMatrix


class TestOperationCounts:
    def test_identity_times_identity(self):
        eye = SparseMatrix(sp.identity(5))
        counts = count_spmspm_operations(eye, eye)
        assert counts.effectual_multiplies == 5
        assert counts.output_nonzeros == 5

    def test_tiny_matrix_gram(self, tiny_dense_matrix):
        counts = count_spmspm_operations(tiny_dense_matrix, tiny_dense_matrix.transpose())
        # sum over k of nnz(col k of A) * nnz(row k of A^T) = sum col_occ^2.
        col_occ = tiny_dense_matrix.col_occupancies()
        assert counts.effectual_multiplies == int((col_occ ** 2).sum())
        assert counts.output_nonzeros == np.count_nonzero(
            tiny_dense_matrix.to_dense() @ tiny_dense_matrix.to_dense().T)

    def test_dimension_mismatch_raises(self, tiny_dense_matrix):
        with pytest.raises(ValueError):
            count_spmspm_operations(tiny_dense_matrix, SparseMatrix(sp.identity(3)))


class TestMatmulWorkload:
    def test_gram_shapes(self, tiny_dense_matrix):
        workload = WorkloadDescriptor.gram(tiny_dense_matrix)
        assert workload.a.csr.shape == (4, 4)
        assert workload.b.csr.shape == (4, 4)

    def test_gram_b_is_transpose(self, tiny_dense_matrix):
        workload = WorkloadDescriptor.gram(tiny_dense_matrix)
        assert workload.b is tiny_dense_matrix.transpose()

    def test_reference_result_matches_scipy(self, tiny_dense_matrix):
        workload = WorkloadDescriptor.gram(tiny_dense_matrix)
        dense = tiny_dense_matrix.to_dense()
        assert np.allclose(workload.a.matmul(workload.b).to_dense(), dense @ dense.T)

    def test_incompatible_operands_raise(self, tiny_dense_matrix):
        workload = WorkloadDescriptor(name="bad", kernel="spmspm",
                                      a=tiny_dense_matrix,
                                      b=SparseMatrix(sp.identity(3)))
        with pytest.raises(ValueError, match="inner dimensions"):
            workload.operation_counts

    def test_operation_counts_consistent(self, banded):
        workload = WorkloadDescriptor.gram(banded)
        assert workload.output_nonzeros == workload.a.matmul(workload.b).nnz
