"""Synth suites through the parallel scheduler: bit-identical to serial.

The differential guarantee behind the ``("synth", ...)`` suite tokens: a
worker process that regenerates the suite from ``(model, params, seed)``
identities must produce *exactly* the reports the serial in-process path
produces — not approximately equal, the same floats — for every kernel of
the family.  Evaluation is deterministic end to end and pickling float64
values is exact, so any drift here means a worker rebuilt different inputs.
"""

from repro.experiments.runner import ExperimentContext, clear_process_caches
from repro.experiments.scheduler import EvaluationScheduler, requests_for_context
from repro.experiments.sweep import sweep_grid
from repro.tensor.kernels import kernel_names
from repro.tensor.suite import synth_suite

#: Small instances of three structure classes: enough workloads to fan out,
#: cheap enough to evaluate under every kernel twice.
SPECS = (
    "uniform:n=220,nnz=1600",
    "power_law_rows:n=240,nnz=1800,alpha=1.8",
    "density_gradient:n=200,nnz=1500,gamma=2.5",
)


def _report_values(report):
    return {
        "bound": report.bound,
        "bumped_fraction": report.bumped_fraction,
        "cycles": report.cycles,
        "dram_total_words": report.traffic.dram.total_words,
        "effectual_multiplies": report.effectual_multiplies,
        "energy_total_pj": report.energy.total_pj,
        "glb_overbooking_rate": report.glb_overbooking_rate,
        "glb_total_words": report.traffic.global_buffer.total_words,
        "output_nonzeros": report.output_nonzeros,
        "tiling_tax_elements": report.tiling_tax_elements,
    }


def _all_kernel_reports(max_workers):
    """Evaluate SPECS under every kernel, cold, with the given worker count."""
    clear_process_caches()
    suite = synth_suite(SPECS)
    base = ExperimentContext(suite=suite, kernel="gram")
    contexts = {kernel: base.with_kernel(kernel) for kernel in kernel_names()}
    requests = [request for ctx in contexts.values()
                for request in requests_for_context(ctx)]
    stats = EvaluationScheduler(
        max_workers=max_workers, min_parallel_requests=1).prefetch(requests)
    reports = {
        (kernel, name): ctx.reports(name)
        for kernel, ctx in contexts.items() for name in ctx.workload_names
    }
    return stats, reports


class TestSynthParallelBitIdentical:
    def test_two_workers_match_serial_exactly_across_all_kernels(self):
        serial_stats, serial = _all_kernel_reports(max_workers=1)
        parallel_stats, parallel = _all_kernel_reports(max_workers=2)

        expected = len(kernel_names()) * len(SPECS)
        assert serial_stats.computed == expected
        assert parallel_stats.computed == expected
        assert parallel_stats.workers == 2

        assert sorted(parallel) == sorted(serial)
        for key, per_variant in serial.items():
            assert sorted(parallel[key]) == sorted(per_variant)
            for variant, report in per_variant.items():
                serial_values = _report_values(report)
                parallel_values = _report_values(parallel[key][variant])
                # Bit-identical, not approximately equal: == on every float.
                assert parallel_values == serial_values, (key, variant)

    def test_worker_rebuilt_requests_are_memo_hits_afterwards(self):
        _, _ = _all_kernel_reports(max_workers=2)
        suite = synth_suite(SPECS)
        context = ExperimentContext(suite=suite)
        stats = EvaluationScheduler(max_workers=2, min_parallel_requests=1) \
            .prefetch(requests_for_context(context))
        assert stats.computed == 0
        assert stats.warm == len(SPECS)


class TestSynthSweepParallel:
    def test_sweep_over_synth_axis_matches_serial(self):
        grid = dict(y_values=(0.05, 0.10), kernels=("gram", "spmv"))

        clear_process_caches()
        serial = sweep_grid(synth_suite(SPECS), max_workers=1, **grid)
        clear_process_caches()
        parallel = sweep_grid(synth_suite(SPECS),
                              scheduler=EvaluationScheduler(
                                  max_workers=2, min_parallel_requests=1),
                              **grid)

        assert [r.workload for r in parallel.rows] == \
            [r.workload for r in serial.rows]
        for left, right in zip(serial.rows, parallel.rows):
            assert left == right  # dataclass equality: every float identical

    def test_sweep_rows_carry_model_columns(self):
        result = sweep_grid(synth_suite(SPECS), y_values=(0.10,),
                            max_workers=1)
        models = {row.model for row in result.rows}
        assert models == {"uniform", "power_law_rows", "density_gradient"}
        for row in result.rows:
            assert "n=" in row.model_params
