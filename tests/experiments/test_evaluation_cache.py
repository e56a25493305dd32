"""One process evaluation cache.

Contexts, the scheduler and shard workers share the suites, batched
evaluators and report dicts of :data:`repro.experiments.runner.CACHE`, so a
context miss after a prefetch goes through the prefetch's evaluator: no new
evaluator, no repeated operation count, no repeated tiling.
"""

import dataclasses
from collections import Counter

import pytest

from repro.accelerator.extensor import VARIANT_NAIVE, VARIANT_PRESCIENT
from repro.core import overbooking
from repro.experiments.runner import (
    CACHE,
    ExperimentContext,
    clear_process_caches,
)
from repro.experiments.scheduler import EvaluationScheduler, requests_for_context
from repro.experiments.store import ReportStore
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
    EvaluationScheduler(max_workers=1).prefetch(requests_for_context(context))
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
    EvaluationScheduler(max_workers=1).prefetch(requests_for_context(context))
    context.with_kernel("spmv").all_reports()
    assert CACHE.suites and CACHE.evaluators and CACHE.reports
    assert shared_matrix_cache_size() > 0

    assert CACHE.y_independent
    clear_process_caches()
    assert CACHE.suites == {}
    assert CACHE.evaluators == {}
    assert CACHE.reports == {}
    assert CACHE.y_independent == {}
    assert shared_matrix_cache_size() == 0


def test_warm_full_context_adds_nothing(work):
    """A second full context after one ``all_reports()`` is pure cache
    reads: the same report objects, and no new cache entry, evaluator,
    operation count or tiling."""
    first = ExperimentContext.full().all_reports()
    tiers = (CACHE.suites, CACHE.evaluators, CACHE.reports)
    sizes = [len(tier) for tier in tiers]
    built = dict(work)
    assert sizes == [1, 22, 22]
    assert built["evaluators"] == built["operation_counts"] == 22
    assert built["fixed_tilings"] > 0 and built["ob_tilings"] > 0

    reports = ExperimentContext.full().all_reports()
    assert len(reports) == 22
    assert all(len(per_variant) == 3 for per_variant in reports.values())
    assert all(reports[name] is first[name] for name in first)
    assert [len(tier) for tier in tiers] == sizes
    assert dict(work) == built


Y_PAIR = (0.05, 0.07)


def _prefetch_at(y_values, store=None):
    """Prefetch the quick context at each ``y`` in turn (one pass each);
    returns each y's context."""
    contexts = [ExperimentContext.quick(overbooking_target=y)
                for y in y_values]
    with EvaluationScheduler(max_workers=1, store=store) as scheduler:
        for context in contexts:
            scheduler.prefetch(requests_for_context(context))
    return contexts


def _assert_y_independent_reports_are_shared(contexts):
    first, second = contexts
    for name in first.workload_names:
        one, other = first.reports(name), second.reports(name)
        for variant in (VARIANT_NAIVE, VARIANT_PRESCIENT):
            assert one[variant] is other[variant]
        assert (one[first.overbooking_name]
                is not other[second.overbooking_name])


def test_y_independent_reports_are_kept_once(work):
    """N and P do not read y: the cells of two y values, each from its own
    pass, hold one N and one P object, equal to a fresh evaluation."""
    contexts = _prefetch_at(Y_PAIR)
    _assert_y_independent_reports_are_shared(contexts)
    for context in contexts:
        for name in context.workload_names:
            fresh = BatchWorkloadEvaluator(WorkloadDescriptor.from_suite(
                context.suite, name)).reports(context.architecture,
                                              context.overbooking_target)
            assert context.reports(name) == fresh


def test_store_hits_share_y_independent_reports(work, tmp_path):
    store = ReportStore(tmp_path / "store")
    _prefetch_at(Y_PAIR, store=store)
    clear_process_caches()
    contexts = _prefetch_at(Y_PAIR, store=store)
    assert store.session.hits == len(Y_PAIR) * len(
        contexts[0].workload_names)
    _assert_y_independent_reports_are_shared(contexts)


def test_unequal_report_is_never_replaced(work):
    context = ExperimentContext.quick()
    name = context.workload_names[0]
    held = context.reports(name)
    key = context.memo_key(name)
    other = {**held, VARIANT_NAIVE: dataclasses.replace(
        held[VARIANT_NAIVE], cycles=held[VARIANT_NAIVE].cycles + 1)}

    kept = CACHE.put(key[:2] + (0.5,) + key[3:], other)
    assert kept[VARIANT_NAIVE] is other[VARIANT_NAIVE]
    assert kept[VARIANT_PRESCIENT] is held[VARIANT_PRESCIENT]
    # The held report stays the one later equal reports resolve to.
    again = CACHE.put(key[:2] + (0.6,) + key[3:], {
        variant: dataclasses.replace(report)
        for variant, report in held.items()})
    assert again[VARIANT_NAIVE] is held[VARIANT_NAIVE]
