"""Tests for the Gustavson reference SpMSpM implementation."""

import numpy as np
import scipy.sparse as sp

from repro.reference.spmspm import gustavson_spmspm, multiply_count
from repro.tensor.kernels import count_spmspm_operations
from repro.tensor.generators import uniform_random_matrix
from repro.tensor.sparse import SparseMatrix


class TestGustavson:
    def test_matches_scipy_on_tiny(self, tiny_dense_matrix):
        ours = gustavson_spmspm(tiny_dense_matrix, tiny_dense_matrix.transpose())
        scipy_result = tiny_dense_matrix.matmul(tiny_dense_matrix.transpose())
        assert np.allclose(ours.to_dense(), scipy_result.to_dense())

    def test_matches_scipy_on_random(self):
        a = uniform_random_matrix(30, 25, 150, rng=0)
        b = uniform_random_matrix(25, 40, 180, rng=1)
        ours = gustavson_spmspm(a, b)
        assert np.allclose(ours.to_dense(), (a.csr @ b.csr).toarray())

    def test_identity(self):
        eye = SparseMatrix(sp.identity(8))
        assert gustavson_spmspm(eye, eye) == eye

    def test_dimension_mismatch(self, tiny_dense_matrix):
        try:
            gustavson_spmspm(tiny_dense_matrix, SparseMatrix(sp.identity(3)))
        except ValueError:
            pass
        else:  # pragma: no cover - defensive
            raise AssertionError("expected ValueError")


class TestMultiplyCount:
    def test_matches_einsum_counting(self):
        a = uniform_random_matrix(40, 30, 200, rng=2)
        b = uniform_random_matrix(30, 35, 210, rng=3)
        assert multiply_count(a, b) == count_spmspm_operations(a, b).effectual_multiplies

    def test_gram_count(self, tiny_dense_matrix):
        b = tiny_dense_matrix.transpose()
        assert multiply_count(tiny_dense_matrix, b) == \
            count_spmspm_operations(tiny_dense_matrix, b).effectual_multiplies
