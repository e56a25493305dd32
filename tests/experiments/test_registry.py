"""Registry completeness: every paper artifact is registered and runnable."""

import json

import pytest

from repro.experiments import registry
from repro.experiments.runner import ExperimentContext
from repro.experiments.scheduler import EvaluationScheduler

EXPECTED_NAMES = ["table1", "table2", "table3", "table4", "table5", "fig1",
                  "fig5", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
                  "fig13", "fig14"]


@pytest.fixture(scope="module")
def quick_context():
    return ExperimentContext.quick()


class TestCompleteness:
    def test_every_module_is_registered(self):
        assert registry.names() == EXPECTED_NAMES

    def test_one_registration_per_module(self):
        modules = [experiment.module for experiment in registry.experiments()]
        assert len(set(modules)) == len(modules)
        for module in modules:
            assert module.startswith("repro.experiments.")

    def test_artifacts_cover_the_paper(self):
        artifacts = {e.artifact for e in registry.experiments()}
        assert {"Table 1", "Table 2", "Fig. 1", "Fig. 3/5", "Fig. 7", "Fig. 8",
                "Fig. 9", "Fig. 10", "Fig. 11", "Fig. 12", "Fig. 13"} <= artifacts

    def test_only_fig5_is_context_free(self):
        context_free = [e.name for e in registry.experiments()
                        if not e.needs_context]
        assert context_free == ["fig5"]

    def test_reports_consumers_declared(self):
        needing = {e.name for e in registry.experiments() if e.needs_reports}
        assert {"fig7", "fig8", "fig9", "fig10"} <= needing


@pytest.mark.parametrize("name", EXPECTED_NAMES)
def test_every_experiment_runs_on_the_quick_suite(name, quick_context):
    experiment = registry.get(name)
    params = dict(experiment.quick_params)
    # Experiments evaluating their own workload sets take the run's
    # scheduler (fig14's search needs one).
    if experiment.accepts_param("scheduler"):
        params["scheduler"] = EvaluationScheduler(max_workers=1)
    result = experiment.run(
        quick_context if experiment.needs_context else None, **params)
    text = experiment.format_result(result)
    assert isinstance(text, str) and text
    # The JSON artifact must serialize with the stock encoder.
    payload = json.dumps(experiment.to_json(result))
    assert payload and payload != "null"


class TestRegistryApi:
    def test_get_unknown_raises_with_hint(self):
        with pytest.raises(KeyError, match="fig7"):
            registry.get("fig99")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            registry.register(name="fig7", artifact="Fig. 7", title="dup")(
                lambda context: None)

    def test_required_suite_validated(self):
        with pytest.raises(ValueError, match="required_suite"):
            registry.register(name="bogus", artifact="-", title="-",
                              required_suite="huge")

    def test_context_required_when_declared(self):
        with pytest.raises(ValueError, match="requires a context"):
            registry.get("fig7").run(None)

    def test_evaluation_targets_default(self, quick_context):
        targets = registry.get("fig7").evaluation_targets(quick_context)
        assert targets == [(0.10, name) for name in quick_context.workload_names]

    def test_fig10_announces_its_y_grid(self, quick_context):
        targets = registry.get("fig10").evaluation_targets(
            quick_context, y_values=(0.0, 0.5))
        swept_y = {y for y, _ in targets}
        assert swept_y == {0.0, 0.1, 0.5}


class TestToJsonable:
    def test_numpy_and_nonfinite_values(self):
        import numpy as np

        payload = registry.to_jsonable({
            "arr": np.arange(3), "scalar": np.float64(1.5), "inf": float("inf"),
            "nested": (1, 2),
        })
        assert payload == {"arr": [0, 1, 2], "scalar": 1.5, "inf": "inf",
                           "nested": [1, 2]}
        json.dumps(payload)

    def test_dataclass_properties_included(self):
        result = registry.get("fig7").run(ExperimentContext.quick())
        payload = registry.to_jsonable(result)
        assert "geomean_overbooking" in payload
        assert payload["geomean_overbooking"] == pytest.approx(
            result.geomean_overbooking)


class TestSuiteAndWorkerDeclarations:
    def test_table4_declares_its_own_workload_set(self):
        assert registry.get("table4").uses_context_suite is False
        assert registry.get("fig7").uses_context_suite is True
        assert registry.get("fig5").uses_context_suite is False

    def test_self_scheduling_take_scheduler(self):
        taking = {e.name for e in registry.experiments()
                  if e.accepts_param("scheduler")}
        assert taking == {"table4", "table5", "fig14"}
        assert not any(e.accepts_param("max_workers")
                       or e.accepts_param("store")
                       for e in registry.experiments())
