"""Scheduler determinism and bookkeeping.

The headline test is the golden comparison: reports produced by the
multi-process scheduler (2 workers, suites rebuilt from seeds in the
workers) must match the single-process per-point engine
(``ExTensorModel.evaluate_workload``, independent of the batch evaluator the
scheduler runs) to 1e-9 on every headline quantity.
"""

import pytest

from repro.accelerator.extensor import AcceleratorVariant, ExTensorModel
from repro.experiments.runner import (
    CACHE,
    ExperimentContext,
    clear_process_caches,
)
from repro.experiments import scheduler as scheduler_module
from repro.experiments.scheduler import (
    MIN_PARALLEL_REQUESTS,
    EvaluationRequest,
    EvaluationScheduler,
    requests_for_context,
)
from repro.experiments.sweep import plan_grid, sweep_grid
from repro.tensor.suite import small_suite, suite_from_token


def _report_values(report):
    return {
        "bound": report.bound,
        "bumped_fraction": report.bumped_fraction,
        "cycles": report.cycles,
        "data_reuse_fraction": report.data_reuse_fraction,
        "dram_total_words": report.traffic.dram.total_words,
        "effectual_multiplies": report.effectual_multiplies,
        "energy_total_pj": report.energy.total_pj,
        "glb_block_rows": report.glb_block_rows,
        "glb_overbooking_rate": report.glb_overbooking_rate,
        "glb_total_words": report.traffic.global_buffer.total_words,
        "glb_utilization": report.glb_utilization,
        "output_nonzeros": report.output_nonzeros,
        "tiling_tax_elements": report.tiling_tax_elements,
    }


def _engine_reports(context):
    """Every workload of ``context`` through the per-point engine."""
    model = ExTensorModel(context.architecture, [
        AcceleratorVariant.naive(),
        AcceleratorVariant.prescient(),
        AcceleratorVariant.overbooking(
            overbooking_target=context.overbooking_target),
    ])
    return {name: model.evaluate_workload(context.workload(name))
            for name in context.workload_names}


def _assert_reports_equal(serial, parallel, rel=1e-9):
    assert sorted(parallel) == sorted(serial)
    for workload, per_variant in serial.items():
        assert sorted(parallel[workload]) == sorted(per_variant)
        for variant, expected in per_variant.items():
            actual = _report_values(parallel[workload][variant])
            for key, value in _report_values(expected).items():
                if isinstance(value, str):
                    assert actual[key] == value, f"{workload}/{variant}/{key}"
                else:
                    assert actual[key] == pytest.approx(value, rel=rel, abs=rel), \
                        f"{workload}/{variant}/{key}"


class TestParallelEqualsSerial:
    def test_full_suite_two_workers_matches_serial_golden(self):
        clear_process_caches()
        serial = _engine_reports(ExperimentContext.full())

        clear_process_caches()
        context = ExperimentContext.full()
        scheduler = EvaluationScheduler(max_workers=2)
        stats = scheduler.prefetch(requests_for_context(context))
        assert stats.computed == len(context.workload_names)
        assert stats.workers == 2
        parallel = context.all_reports()

        _assert_reports_equal(serial, parallel)

    def test_quick_suite_two_workers_matches_serial(self, monkeypatch):
        # Three cold requests: below the pooling threshold unless lowered.
        monkeypatch.setattr(scheduler_module, "MIN_PARALLEL_REQUESTS", 1)
        clear_process_caches()
        serial = _engine_reports(ExperimentContext.quick())

        clear_process_caches()
        context = ExperimentContext.quick()
        stats = EvaluationScheduler(max_workers=2) \
            .prefetch(requests_for_context(context))
        assert stats.workers == 2
        _assert_reports_equal(serial, context.all_reports())


class TestSchedulerBookkeeping:
    def test_prefetch_deduplicates_and_warms(self):
        clear_process_caches()
        context = ExperimentContext.quick()
        scheduler = EvaluationScheduler(max_workers=1)
        requests = requests_for_context(context) * 2  # duplicates

        first = scheduler.prefetch(requests)
        assert first.requested == 6
        assert first.unique == 3
        assert first.computed == 3
        for request in requests:
            assert request.memo_key in CACHE.reports

        second = scheduler.prefetch(requests)
        assert second.warm == 3
        assert second.computed == 0
        assert second.workers == 0

    def test_serial_fallback_below_threshold(self):
        clear_process_caches()
        context = ExperimentContext.quick()
        requests = requests_for_context(context)
        assert len(requests) < MIN_PARALLEL_REQUESTS
        stats = EvaluationScheduler(max_workers=8).prefetch(requests)
        assert stats.computed == 3
        assert stats.workers <= 1  # fell back to in-process evaluation

    def test_custom_suite_yields_no_requests(self):
        suite = small_suite().subset(["tiny-fem"])
        context = ExperimentContext(suite=suite)
        assert context.suite_token is not None  # canonical subsets still share
        custom = ExperimentContext(
            suite=type(suite)([suite.spec("tiny-fem")], seed=7))
        assert custom.suite_token is None
        assert requests_for_context(custom) == []

    def test_request_without_token_rejected(self):
        request = EvaluationRequest(
            suite_token=None, architecture=ExperimentContext.quick().architecture,
            overbooking_target=0.1, workload="tiny-fem")
        with pytest.raises(ValueError, match="suite token"):
            EvaluationScheduler(max_workers=1).prefetch([request])

    def test_suite_rebuilt_from_token_is_bit_identical(self):
        suite = small_suite()
        rebuilt = suite_from_token(suite.cache_token)
        assert rebuilt.names == suite.names
        for name in suite.names:
            a, b = suite.matrix(name), rebuilt.matrix(name)
            assert (a.csr != b.csr).nnz == 0

    def test_unknown_token_scope_raises(self):
        with pytest.raises(KeyError, match="canonical"):
            suite_from_token(("nonesuch", 2023, ("x",)))


class TestSweepThroughScheduler:
    def test_sweep_three_targets_parallel_matches_serial(self, tmp_path):
        y_values = (0.05, 0.10, 0.22)
        clear_process_caches()
        serial = sweep_grid(small_suite(), y_values=y_values, max_workers=1)

        clear_process_caches()
        parallel = sweep_grid(
            small_suite(), y_values=y_values,
            scheduler=EvaluationScheduler(max_workers=2))
        assert parallel.schedule.workers == 2
        assert parallel.schedule.computed == 9  # 3 targets x 3 workloads

        assert len(parallel.summaries) == 3
        for left, right in zip(serial.rows, parallel.rows):
            assert left == right  # frozen dataclasses: exact field equality

        json_path = parallel.write_json(tmp_path / "sweep.json")
        csv_path = parallel.write_csv(tmp_path / "sweep.csv")
        assert json_path.stat().st_size > 0
        header, *body = csv_path.read_text().splitlines()
        assert header.startswith("overbooking_target,")
        assert len(body) == len(parallel.rows)

    def test_capacity_scaling_changes_architecture(self):
        result = sweep_grid(small_suite(), y_values=(0.10,),
                            glb_scales=(0.5, 1.0), max_workers=1,
                            workloads=["tiny-fem"])
        capacities = {point.glb_capacity_words for point in result.points}
        assert len(capacities) == 2
        assert result.suite_workloads == ["tiny-fem"]

    @pytest.mark.parametrize("axes, message", [
        ({"glb_scales": ()}, "glb_scales must not be empty"),
        ({"pe_scales": ()}, "pe_scales must not be empty"),
        ({"glb_scales": (-1.0,)}, "glb_scales must be positive"),
        ({"pe_scales": (1.0, 0.0)}, "pe_scales must be positive"),
    ])
    def test_plan_rejects_empty_or_nonpositive_scales(self, axes, message):
        with pytest.raises(ValueError, match=message):
            plan_grid(small_suite(), **axes)

    def test_plan_rejects_unknown_kernel_and_custom_suite(self):
        with pytest.raises(KeyError, match="unknown kernel"):
            plan_grid(small_suite(), kernels=["nope"])
        suite = small_suite()
        custom = type(suite)([suite.spec("tiny-fem")], seed=7)
        with pytest.raises(ValueError, match="cache token"):
            plan_grid(custom)

    def test_summary_at_unknown_point_raises(self):
        result = sweep_grid(small_suite(), y_values=(0.10,), max_workers=1,
                            workloads=["tiny-fem"])
        with pytest.raises(KeyError):
            result.summary_at(0.99)
