"""Table 4: the structure-skew ladder behaves like the paper predicts."""

import pytest

from repro.experiments import table4
from repro.experiments.registry import get
from repro.experiments.runner import ExperimentContext
from repro.experiments.scheduler import EvaluationScheduler


def _run_quick():
    experiment = get("table4")
    with EvaluationScheduler(max_workers=1) as scheduler:
        return experiment.run(ExperimentContext.quick(), scheduler=scheduler,
                              **experiment.quick_params)


@pytest.fixture(scope="module")
def quick_result():
    return _run_quick()


class TestTable4:
    def test_rows_cover_the_ladder_times_kernels(self, quick_result):
        assert len(quick_result.rows) == \
            len(quick_result.workloads) * len(quick_result.kernels)
        assert quick_result.kernels == ["gram", "spmv"]

    def test_rows_are_model_major_in_ladder_order(self, quick_result):
        workloads = [row.workload for row in quick_result.rows]
        expected = [name for name in quick_result.workloads
                    for _ in quick_result.kernels]
        assert workloads == expected

    def test_structured_models_are_more_skewed_than_uniform(self, quick_result):
        by_model = {row.model: row for row in quick_result.rows}
        assert by_model["density_gradient"].occupancy_cv > \
            2 * by_model["uniform"].occupancy_cv
        assert by_model["banded"].occupancy_cv > \
            2 * by_model["uniform"].occupancy_cv

    def test_speedups_are_positive_and_finite(self, quick_result):
        for row in quick_result.rows:
            assert row.speedup_ob_vs_naive > 0
            assert row.speedup_ob_vs_prescient > 0
            assert 0.0 <= row.glb_overbooking_rate <= 1.0
            assert row.nnz > 0

    def test_row_lookup_and_geomean(self, quick_result):
        name = quick_result.workloads[0]
        row = quick_result.row(name, "gram")
        assert row.kernel == "gram"
        assert quick_result.geomean_speedup(name) > 0
        with pytest.raises(KeyError):
            quick_result.row("missing", "gram")

    def test_result_formats_as_table(self, quick_result):
        text = table4.format_result(quick_result)
        assert "occupancy CV" in text
        assert "uniform" in text

    def test_default_ladder_spans_skew(self):
        # Full-size specs parse and order from unstructured to hub-skewed.
        from repro.tensor.synth import synth_specs

        specs = synth_specs(table4.DEFAULT_SPECS)
        assert specs[0].model == "uniform"
        assert specs[-1].model == "power_law_rows"
        assert len({spec.workload_name for spec in specs}) == len(specs)

    def test_quick_run_is_deterministic(self, quick_result):
        again = _run_quick()
        assert again.rows == quick_result.rows
