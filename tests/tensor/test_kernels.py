"""Kernel registry: each row's operands and exact counts against dense references."""

import numpy as np
import pytest

from repro.model.workload import WorkloadDescriptor
from repro.reference.spmspm import gustavson_spmspm, multiply_count
from repro.tensor.kernels import DENSE_RANK, kernel_names, kernel_spec
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


def _descriptor(kernel, a, paired):
    spec = kernel_spec(kernel)
    b = spec.streaming(a, paired if spec.needs_paired_operand else None)
    return WorkloadDescriptor(name=kernel, kernel=kernel, a=a, b=b)


def _positive(rng, rows, cols):
    # Positive values cannot cancel, so the dense nonzero count is the
    # symbolic output occupancy.
    return rng.uniform(0.5, 1.5, size=(rows, cols))


#: kernel → (streaming shape for the 17×13 ``A`` and 13×11 ``B``, effectual
#: multiplies in closed form from ``nnz(A)``; ``None`` = Gustavson's count).
EXPECTED = {
    "gram": ((13, 17), None),
    "spmspm": ((13, 11), None),
    "spmm": ((13, DENSE_RANK), lambda nnz: nnz * DENSE_RANK),
    "spmv": ((13, 1), lambda nnz: nnz),
    "sddmm": ((DENSE_RANK, 13), lambda nnz: nnz * (DENSE_RANK + 1)),
}


@pytest.mark.parametrize("kernel", kernel_names())
def test_counts_match_dense_reference(kernel, sparse_a, sparse_b, rng):
    workload = _descriptor(kernel, sparse_a, sparse_b)
    shape, closed_form = EXPECTED[kernel]
    assert (workload.b.num_rows, workload.b.num_cols) == shape

    a = sparse_a.to_dense()
    if closed_form is None:
        result = a @ workload.b.to_dense()
        expected_multiplies = multiply_count(sparse_a, workload.b)
    else:
        factor = _positive(rng, *shape)
        if kernel == "sddmm":
            result = a * (_positive(rng, a.shape[0], DENSE_RANK) @ factor)
        else:
            result = a @ factor
        expected_multiplies = closed_form(sparse_a.nnz)
    assert workload.effectual_multiplies == expected_multiplies
    assert workload.output_nonzeros == int(np.count_nonzero(result))


class TestSpMSpMGeneral:
    def test_distinct_operands_counts_match_gustavson(self, sparse_a, sparse_b):
        workload = _descriptor("spmspm", sparse_a, sparse_b)
        assert workload.effectual_multiplies == multiply_count(sparse_a, sparse_b)

    def test_reference_dense_matches_numpy(self, sparse_a, sparse_b):
        workload = _descriptor("spmspm", sparse_a, sparse_b)
        expected = sparse_a.to_dense() @ sparse_b.to_dense()
        product = gustavson_spmspm(workload.a, workload.b)
        np.testing.assert_allclose(product.to_dense(), expected)

    def test_output_nonzeros_matches_pattern(self, sparse_a, sparse_b):
        # Positive values cannot cancel, so the symbolic pattern count equals
        # the dense nonzero count.
        workload = _descriptor("spmspm", sparse_a, sparse_b)
        dense = sparse_a.to_dense() @ sparse_b.to_dense()
        assert workload.output_nonzeros == int(np.count_nonzero(dense))

    def test_stationary_streaming_are_a_b(self, sparse_a, sparse_b):
        workload = _descriptor("spmspm", sparse_a, sparse_b)
        assert workload.a is sparse_a
        assert workload.b is sparse_b


class TestSpMM:
    def test_streaming_operand_is_fully_dense(self, sparse_a):
        streaming = _descriptor("spmm", sparse_a, None).b
        assert streaming.nnz == sparse_a.num_cols * DENSE_RANK
        assert streaming.density == 1.0


class TestSpMV:
    def test_streaming_operand_is_column_vector(self, sparse_a):
        operand = _descriptor("spmv", sparse_a, None).b
        assert (operand.num_rows, operand.num_cols) == (sparse_a.num_cols, 1)


class TestKernelRegistry:
    def test_family_members(self):
        assert set(kernel_names()) == {"gram", "spmspm", "spmm", "spmv", "sddmm"}
        assert kernel_names()[0] == "gram"

    def test_unknown_kernel_raises_with_hint(self):
        with pytest.raises(KeyError, match="spmm"):
            kernel_spec("nonesuch")

    def test_build_gram_matches_gram_constructor(self, sparse_a):
        built = _descriptor("gram", sparse_a, None)
        gram = WorkloadDescriptor.gram(sparse_a)
        assert built.b is gram.b is sparse_a.transpose()
        assert built.operation_counts == gram.operation_counts
