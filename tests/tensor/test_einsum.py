"""Tests for einsum parsing and SpMSpM operation counting."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.tensor.einsum import (
    EinsumSpec,
    MATMUL_EINSUM,
    MatmulWorkload,
    count_spmspm_operations,
)
from repro.tensor.sparse import SparseMatrix


class TestEinsumSpec:
    def test_parse_matmul(self):
        spec = EinsumSpec.parse("Z[m,n] = A[m,k] * B[k,n]")
        assert spec.output == "Z"
        assert spec.a_indices == ("m", "k")
        assert spec.b_indices == ("k", "n")

    def test_parse_whitespace_tolerant(self):
        spec = EinsumSpec.parse("  Z[ m , n ]  =  A[ m , k ] * B[ k , n ] ")
        assert spec.output_indices == ("m", "n")

    def test_parse_malformed_raises(self):
        with pytest.raises(ValueError):
            EinsumSpec.parse("Z = A * B")


class TestEinsumSpecErrorPaths:
    """Error paths of the parser."""

    @pytest.mark.parametrize("expression", [
        "Z[m,] = A[m,k] * B[k,n]",      # trailing comma: empty index
        "Z[m,n] = A[,k] * B[k,n]",      # leading comma: empty index
        "Z[m,n] = A[m, ,k] * B[k,n]",   # blank middle index
    ])
    def test_malformed_index_lists_raise(self, expression):
        with pytest.raises(ValueError, match="malformed index list"):
            EinsumSpec.parse(expression)

    @pytest.mark.parametrize("expression", [
        "Z[m,n] = A[m,k]",              # single operand
        "Z[m,n] = A[m,k] + B[k,n]",     # wrong operator
        "Z[m,n] = A[m,k] * B[k,n] * C[n,p]",  # three operands
        "",
    ])
    def test_unparseable_expressions_raise(self, expression):
        with pytest.raises(ValueError, match="expected an expression"):
            EinsumSpec.parse(expression)


class TestOperationCounts:
    def test_identity_times_identity(self):
        eye = SparseMatrix(sp.identity(5))
        counts = count_spmspm_operations(eye, eye)
        assert counts.effectual_multiplies == 5
        assert counts.output_nonzeros == 5
        assert counts.dense_multiplies == 125

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
        workload = MatmulWorkload.gram(tiny_dense_matrix)
        assert workload.m == 4 and workload.k == 4 and workload.n == 4

    def test_gram_b_is_transpose(self, tiny_dense_matrix):
        workload = MatmulWorkload.gram(tiny_dense_matrix)
        assert workload.b == tiny_dense_matrix.transpose()

    def test_reference_result_matches_scipy(self, tiny_dense_matrix):
        workload = MatmulWorkload.gram(tiny_dense_matrix)
        dense = tiny_dense_matrix.to_dense()
        assert np.allclose(workload.reference_result().to_dense(), dense @ dense.T)

    def test_incompatible_operands_raise(self, tiny_dense_matrix):
        with pytest.raises(ValueError):
            MatmulWorkload(a=tiny_dense_matrix, b=SparseMatrix(sp.identity(3)))

    def test_einsum_property(self, tiny_dense_matrix):
        assert MatmulWorkload.gram(tiny_dense_matrix).einsum is MATMUL_EINSUM

    def test_operation_counts_consistent(self, banded):
        workload = MatmulWorkload.gram(banded)
        counts = workload.operation_counts()
        assert counts.output_nonzeros == workload.reference_result().nnz
