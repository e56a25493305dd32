"""One process evaluation cache.

Contexts, the scheduler and shard workers share the suites, batched
evaluators and report dicts of :data:`repro.experiments.runner.CACHE`, so a
context miss after a prefetch goes through the prefetch's evaluator: no new
evaluator, no repeated operation count, no repeated tiling.
"""

from collections import Counter

import pytest

from repro.core import overbooking
from repro.experiments.runner import (
    CACHE,
    ExperimentContext,
    clear_process_caches,
)
from repro.experiments.scheduler import EvaluationScheduler
from repro.model.batch import BatchWorkloadEvaluator
from repro.model.workload import WorkloadDescriptor
from repro.tensor.suite import shared_matrix_cache_size


@pytest.fixture()
def work(monkeypatch):
    """Counts evaluator constructions, operation counts and tiling builds."""
    counts = Counter()
    init = BatchWorkloadEvaluator.__init__
    operation_counts = WorkloadDescriptor.operation_counts.fget

    def counted_init(self, workload):
        counts["evaluators"] += 1
        init(self, workload)

    def counted_operation_counts(self):
        if self._counts is None:
            counts["operation_counts"] += 1
        return operation_counts(self)

    monkeypatch.setattr(BatchWorkloadEvaluator, "__init__", counted_init)
    monkeypatch.setattr(WorkloadDescriptor, "operation_counts",
                        property(counted_operation_counts))
    for tiler, tag in ((overbooking.NaiveTiler, "fixed_tilings"),
                       (overbooking.PrescientTiler, "fixed_tilings"),
                       (overbooking.OverbookingTiler, "ob_tilings")):
        def counted_build(self, matrix, capacity, _build=tiler._build,
                          _tag=tag):
            counts[_tag] += 1
            return _build(self, matrix, capacity)

        monkeypatch.setattr(tiler, "_build", counted_build)
    clear_process_caches()
    yield counts
    clear_process_caches()


def test_context_misses_reuse_the_prefetch_evaluators(work):
    context = ExperimentContext.quick(kernel="spmm")
    EvaluationScheduler(max_workers=1).prefetch_context(context)
    prefetched = dict(work)
    workloads = len(context.workload_names)
    assert prefetched["evaluators"] == workloads
    assert prefetched["operation_counts"] == workloads

    for y in (0.07, 0.31):
        derived = context.with_overbooking_target(y)
        for name in derived.workload_names:
            assert derived.reports(name) is CACHE.reports[
                derived.memo_key(name)]

    assert work["evaluators"] == prefetched["evaluators"]
    assert work["operation_counts"] == prefetched["operation_counts"]
    # The N/P tilings do not depend on y: every one was built by the
    # prefetch.  Each new y builds exactly the OB tilings one y needs.
    assert work["fixed_tilings"] == prefetched["fixed_tilings"]
    assert work["ob_tilings"] == 3 * prefetched["ob_tilings"]


def test_workload_is_the_cached_evaluator_descriptor(work):
    context = ExperimentContext.quick(kernel="spmm")
    name = context.workload_names[0]
    descriptor = context.workload(name)
    assert descriptor is context.with_overbooking_target(0.3).workload(name)
    assert descriptor is CACHE.evaluators[
        (context.suite_token, "spmm", name)].workload
    assert work["evaluators"] == 1


def test_tokenless_contexts_keep_a_private_cache(work):
    suite = ExperimentContext.quick().suite
    custom = type(suite)([suite.spec(name) for name in suite.names], seed=7)
    context = ExperimentContext(suite=custom)
    context.all_reports()
    assert not CACHE.suites and not CACHE.evaluators and not CACHE.reports


def test_clear_process_caches_empties_every_tier(work):
    context = ExperimentContext.quick()
    EvaluationScheduler(max_workers=1).prefetch_context(context)
    context.with_kernel("spmv").all_reports()
    assert CACHE.suites and CACHE.evaluators and CACHE.reports
    assert shared_matrix_cache_size() > 0

    clear_process_caches()
    assert CACHE.suites == {}
    assert CACHE.evaluators == {}
    assert CACHE.reports == {}
    assert shared_matrix_cache_size() == 0
