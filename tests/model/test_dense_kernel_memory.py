"""Dense kernels hold no dense factor on the evaluation path.

The streaming factor of SpMM/SDDMM is a shape-only ``DenseOperand`` and its
values are never drawn by the model, so building a full-suite descriptor and
evaluator and priming one cell allocates little beyond the stationary
operand's tilings.  Measured with ``tracemalloc`` (allocation bytes, no wall
clock); when the factor was a materialized CSR matrix the same build held
~15-18 MB.
"""

import gc
import tracemalloc

import pytest

from repro.accelerator.config import scaled_default_config
from repro.model.batch import BatchWorkloadEvaluator
from repro.model.workload import WorkloadDescriptor
from repro.tensor.suite import default_suite

MIB = 2 ** 20


@pytest.fixture(scope="module")
def full_suite():
    suite = default_suite()
    suite.matrix("roadNet-CA")  # the stationary operand is not under test
    return suite


@pytest.mark.parametrize("kernel", ["spmm", "sddmm"])
def test_descriptor_and_evaluator_hold_under_2mb(full_suite, kernel):
    gc.collect()
    tracemalloc.start()
    try:
        descriptor = WorkloadDescriptor.from_suite(full_suite, "roadNet-CA",
                                                   kernel=kernel)
        evaluator = BatchWorkloadEvaluator(descriptor)
        evaluator.prime(((scaled_default_config(), 0.10),))
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 2 * MIB, f"{kernel}: {held / MIB:.2f} MB held"
    assert peak < 4 * MIB, f"{kernel}: {peak / MIB:.2f} MB peak"
