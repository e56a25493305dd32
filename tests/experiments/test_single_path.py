"""Production evaluation never reaches the per-point engine.

The batch evaluator (:mod:`repro.model.batch`) is the only evaluator the
CLI, scheduler, shard workers and experiment context call;
``AnalyticalEngine`` survives only as the tests' independent oracle.  The
tests here make the engine raise and require the production paths to
succeed anyway, and check the context's one-cell path against the engine.
"""

import json

import pytest

from repro.accelerator.extensor import AcceleratorVariant, ExTensorModel
from repro.cli import main
from repro.experiments.runner import ExperimentContext, clear_process_caches
from repro.experiments.shard import run_shard
from repro.experiments.store import ReportStore
from repro.model.engine import AnalyticalEngine
from repro.tensor.kernels import kernel_names
from repro.tensor.suite import WorkloadSuite, small_suite


@pytest.fixture()
def engine_forbidden(monkeypatch):
    def evaluate(self, workload, variant):
        raise AssertionError("production code reached AnalyticalEngine")

    monkeypatch.setattr(AnalyticalEngine, "evaluate", evaluate)
    clear_process_caches()
    yield
    clear_process_caches()


def _tokenless_suite():
    """The quick suite's workloads as a custom suite: no cache token, so
    no memo sharing and no scheduler — contexts evaluate in-process."""
    canonical = small_suite()
    suite = WorkloadSuite([canonical.spec(name) for name in canonical.names],
                          seed=11)
    assert suite.cache_token is None
    return suite


@pytest.mark.usefixtures("engine_forbidden")
class TestEngineNeverCalled:
    def test_cli_run_never_calls_the_engine(self, tmp_path):
        code = main(["run", "table1", "fig7", "fig10", "--suite", "quick",
                     "--workers", "1", "--quiet",
                     "--output-dir", str(tmp_path)])
        assert code == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert [entry["experiment"]
                for entry in manifest["experiments"]] == [
                    "table1", "fig7", "fig10"]

    def test_cli_sweep_never_calls_the_engine(self, tmp_path):
        code = main(["sweep", "--suite", "quick", "--y", "0.05,0.22",
                     "--glb-scales", "0.5,1.0", "--kernel", "gram,spmv",
                     "--workers", "1", "--output-dir", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "sweep.json").exists()

    def test_cli_search_never_calls_the_engine(self, tmp_path):
        code = main(["search", "--suite", "quick", "--generations", "2",
                     "--workers", "1", "--output-dir", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "frontier.json").exists()

    def test_shard_worker_never_calls_the_engine(self, tmp_path):
        store = ReportStore(tmp_path / "store")
        stats = run_shard(small_suite(), shard="1/1", store=store,
                          y_values=(0.05, 0.10))
        assert stats.evaluated == stats.grid_cells > 0

    @pytest.mark.parametrize("kernel", kernel_names())
    def test_tokenless_context_never_calls_the_engine(self, kernel):
        context = ExperimentContext(suite=_tokenless_suite(),
                                    overbooking_target=0.22, kernel=kernel)
        reports = context.all_reports()
        assert sorted(reports) == sorted(small_suite().names)
        for per_variant in reports.values():
            assert list(per_variant) == [context.naive_name,
                                         context.prescient_name,
                                         context.overbooking_name]


def test_tokenless_context_matches_the_engine():
    """A memo miss is a one-cell batch evaluation, equal to the engine's."""
    context = ExperimentContext(suite=_tokenless_suite(),
                                overbooking_target=0.22)
    model = ExTensorModel(context.architecture, [
        AcceleratorVariant.naive(),
        AcceleratorVariant.prescient(),
        AcceleratorVariant.overbooking(overbooking_target=0.22),
    ])
    for name in context.workload_names:
        assert context.reports(name) == model.evaluate_workload(
            context.workload(name)), name
