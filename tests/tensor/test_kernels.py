"""Kernel family: exact operation counts validated against dense references."""

import numpy as np
import pytest

from repro.reference.spmspm import multiply_count
from repro.tensor.kernels import (
    KERNELS,
    SDDMMWorkload,
    SpMMWorkload,
    SpMVWorkload,
    build_kernel_workload,
    dense_operand,
    kernel_names,
    kernel_spec,
)
from repro.tensor.einsum import MatmulWorkload
from repro.tensor.sparse import SparseMatrix


@pytest.fixture
def rng():
    return np.random.default_rng(99)


@pytest.fixture
def sparse_a(rng):
    dense = np.where(rng.random((17, 13)) < 0.3, rng.uniform(0.5, 1.5, (17, 13)), 0.0)
    dense[4, :] = 0.0  # one guaranteed-empty row for output-occupancy counting
    return SparseMatrix.from_dense(dense, name="A")


@pytest.fixture
def sparse_b(rng):
    dense = np.where(rng.random((13, 11)) < 0.35, rng.uniform(0.5, 1.5, (13, 11)), 0.0)
    return SparseMatrix.from_dense(dense, name="B")


class TestSpMSpMGeneral:
    def test_distinct_operands_counts_match_gustavson(self, sparse_a, sparse_b):
        workload = MatmulWorkload(a=sparse_a, b=sparse_b, name="AxB")
        counts = workload.operation_counts()
        assert counts.effectual_multiplies == multiply_count(sparse_a, sparse_b)
        assert counts.dense_multiplies == 17 * 13 * 11

    def test_reference_dense_matches_numpy(self, sparse_a, sparse_b):
        workload = MatmulWorkload(a=sparse_a, b=sparse_b)
        expected = sparse_a.to_dense() @ sparse_b.to_dense()
        np.testing.assert_allclose(workload.reference_dense(), expected)

    def test_output_nonzeros_matches_pattern(self, sparse_a, sparse_b):
        # Positive values cannot cancel, so the symbolic pattern count equals
        # the dense nonzero count.
        workload = MatmulWorkload(a=sparse_a, b=sparse_b)
        counts = workload.operation_counts()
        dense = sparse_a.to_dense() @ sparse_b.to_dense()
        assert counts.output_nonzeros == int(np.count_nonzero(dense))

    def test_stationary_streaming_are_a_b(self, sparse_a, sparse_b):
        workload = MatmulWorkload(a=sparse_a, b=sparse_b)
        assert workload.stationary_operand is sparse_a
        assert workload.streaming_operand is sparse_b
        assert workload.kernel == "spmspm"


class TestSpMM:
    def test_counts_and_reference(self, sparse_a, rng):
        factor = dense_operand(rng, sparse_a.num_cols, 5)
        workload = SpMMWorkload(sparse_a, factor)
        counts = workload.operation_counts()
        assert counts.effectual_multiplies == sparse_a.nnz * 5
        assert counts.dense_multiplies == 17 * 13 * 5
        dense = sparse_a.to_dense() @ factor
        np.testing.assert_allclose(workload.reference_dense(), dense)
        # Symbolic output occupancy == dense nonzero count (no cancellation).
        assert counts.output_nonzeros == int(np.count_nonzero(dense))

    def test_streaming_operand_is_fully_dense(self, sparse_a, rng):
        workload = SpMMWorkload(sparse_a, dense_operand(rng, sparse_a.num_cols, 4))
        streaming = workload.streaming_operand
        assert streaming.nnz == sparse_a.num_cols * 4
        assert streaming.density == 1.0

    def test_inner_dimension_mismatch_raises(self, sparse_a, rng):
        with pytest.raises(ValueError, match="inner dimensions"):
            SpMMWorkload(sparse_a, dense_operand(rng, 7, 4))


class TestSpMV:
    def test_counts_and_reference(self, sparse_a, rng):
        vector = dense_operand(rng, sparse_a.num_cols, 1).reshape(-1)
        workload = SpMVWorkload(sparse_a, vector)
        counts = workload.operation_counts()
        assert counts.effectual_multiplies == sparse_a.nnz
        assert counts.dense_multiplies == 17 * 13
        result = sparse_a.to_dense() @ vector
        np.testing.assert_allclose(workload.reference_dense(), result)
        assert counts.output_nonzeros == int(np.count_nonzero(result))

    def test_streaming_operand_is_column_vector(self, sparse_a, rng):
        workload = SpMVWorkload(sparse_a, dense_operand(rng, sparse_a.num_cols, 1))
        operand = workload.streaming_operand
        assert (operand.num_rows, operand.num_cols) == (sparse_a.num_cols, 1)

    def test_einsum_is_not_a_matmul(self, sparse_a, rng):
        workload = SpMVWorkload(sparse_a, dense_operand(rng, sparse_a.num_cols, 1))
        assert workload.einsum.b_indices == ("k",)
        assert workload.einsum.output_indices == ("m",)


class TestSDDMM:
    def test_counts_and_reference(self, sparse_a, rng):
        f = 6
        d1 = dense_operand(rng, sparse_a.num_rows, f)
        d2 = dense_operand(rng, f, sparse_a.num_cols)
        workload = SDDMMWorkload(sparse_a, d1, d2)
        counts = workload.operation_counts()
        assert counts.effectual_multiplies == sparse_a.nnz * (f + 1)
        assert counts.output_nonzeros == sparse_a.nnz
        assert counts.dense_multiplies == 17 * 13 * f + 17 * 13
        expected = sparse_a.to_dense() * (d1 @ d2)
        np.testing.assert_allclose(workload.reference_dense(), expected)
        assert int(np.count_nonzero(expected)) == sparse_a.nnz

    def test_shape_validation(self, sparse_a, rng):
        with pytest.raises(ValueError, match="inner dimensions"):
            SDDMMWorkload(sparse_a, dense_operand(rng, 17, 4),
                          dense_operand(rng, 5, 13))
        with pytest.raises(ValueError, match="sampler shape"):
            SDDMMWorkload(sparse_a, dense_operand(rng, 16, 4),
                          dense_operand(rng, 4, 13))


class TestKernelRegistry:
    def test_family_members(self):
        assert set(kernel_names()) == {"gram", "spmspm", "spmm", "spmv", "sddmm"}
        assert kernel_names()[0] == "gram"

    def test_unknown_kernel_raises_with_hint(self):
        with pytest.raises(KeyError, match="spmm"):
            kernel_spec("nonesuch")

    def test_stream_salts_are_distinct(self):
        salts = [spec.stream_salt for spec in KERNELS.values()
                 if spec.needs_dense_operand]
        assert len(set(salts)) == len(salts)

    def test_build_gram_matches_gram_constructor(self, sparse_a):
        built = build_kernel_workload("gram", sparse_a)
        assert built.kernel == "gram"  # B is A's cached transpose
        assert built.b.csr.shape == (sparse_a.num_cols, sparse_a.num_rows)
        counts = built.operation_counts()
        assert counts.effectual_multiplies == \
            MatmulWorkload.gram(sparse_a).operation_counts().effectual_multiplies

    def test_build_requires_paired_operand(self, sparse_a):
        with pytest.raises(ValueError, match="paired"):
            build_kernel_workload("spmspm", sparse_a)

    def test_build_requires_rng_for_dense_kernels(self, sparse_a):
        for kernel in ("spmm", "spmv", "sddmm"):
            with pytest.raises(ValueError, match="rng"):
                build_kernel_workload(kernel, sparse_a)

    def test_build_is_deterministic_per_seed(self, sparse_a):
        one = build_kernel_workload("spmm", sparse_a,
                                    rng=np.random.default_rng(5), feature_dim=3)
        two = build_kernel_workload("spmm", sparse_a,
                                    rng=np.random.default_rng(5), feature_dim=3)
        np.testing.assert_array_equal(one.b_dense, two.b_dense)

    @pytest.mark.parametrize("kernel", ["spmm", "spmv", "sddmm"])
    def test_factors_are_drawn_only_when_read(self, sparse_a, kernel):
        rng = np.random.default_rng(7)
        untouched = rng.bit_generator.state
        workload = build_kernel_workload(kernel, sparse_a, rng=rng,
                                         feature_dim=3)
        streaming = workload.streaming_operand
        workload.operation_counts()
        assert streaming.nnz == streaming.size
        assert not hasattr(streaming, "csr")
        assert rng.bit_generator.state == untouched
        workload.reference_dense()
        assert rng.bit_generator.state != untouched

    def test_lazy_factors_equal_eager_draws(self, sparse_a):
        # Same generator, same draws in the same order (SDDMM: D1 before D2),
        # whichever factor is read first.
        eager = np.random.default_rng(11)
        b = dense_operand(eager, sparse_a.num_cols, 3)
        spmm = build_kernel_workload("spmm", sparse_a, feature_dim=3,
                                     rng=np.random.default_rng(11))
        np.testing.assert_array_equal(spmm.b_dense, b)

        eager = np.random.default_rng(12)
        x = dense_operand(eager, sparse_a.num_cols, 1).reshape(-1)
        spmv = build_kernel_workload("spmv", sparse_a,
                                     rng=np.random.default_rng(12))
        np.testing.assert_array_equal(spmv.x, x)

        eager = np.random.default_rng(13)
        d1 = dense_operand(eager, sparse_a.num_rows, 3)
        d2 = dense_operand(eager, sparse_a.num_cols, 3).T
        sddmm = build_kernel_workload("sddmm", sparse_a, feature_dim=3,
                                      rng=np.random.default_rng(13))
        np.testing.assert_array_equal(sddmm.d2, d2)
        np.testing.assert_array_equal(sddmm.d1, d1)
        operand = sddmm.streaming_operand
        assert (operand.num_rows, operand.num_cols) == d2.shape

    def test_factors_or_rng_but_not_both(self, sparse_a, rng):
        with pytest.raises(ValueError, match="rng"):
            SpMMWorkload(sparse_a)
        with pytest.raises(ValueError, match="rng"):
            SpMVWorkload(sparse_a, dense_operand(rng, sparse_a.num_cols, 1),
                         rng=rng)

    def test_dense_operand_has_no_zeros(self, rng):
        factor = dense_operand(rng, 30, 7)
        assert factor.shape == (30, 7)
        assert np.all(factor >= 0.5) and np.all(factor < 1.5)
