"""Registry completeness: every paper artifact is registered and runnable,
and the experiment contract (``kernels``, ``quick_params`` and the ``run``
signature) is all the drivers need."""

import inspect
import json
import sys

import pytest

from repro.cli import main
from repro.experiments import registry
from repro.experiments.runner import ExperimentContext
from repro.experiments.scheduler import EvaluationScheduler
from repro.experiments.schema import RunRequest, plan_run

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
        following = {e.name for e in registry.experiments()
                     if "any" in e.kernels}
        assert following == {"fig7", "fig8", "fig9", "fig10"}


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
        assert registry.get("table4").accepts_param("scheduler")
        assert not registry.get("fig7").accepts_param("scheduler")
        assert not registry.get("fig5").accepts_param("scheduler")

    def test_self_scheduling_take_scheduler(self):
        taking = {e.name for e in registry.experiments()
                  if e.accepts_param("scheduler")}
        assert taking == {"table4", "table5", "fig14"}
        assert not any(e.accepts_param("max_workers")
                       or e.accepts_param("store")
                       for e in registry.experiments())


SELF_SCHEDULING = {"table4", "table5", "fig14"}


@pytest.mark.parametrize("name", EXPECTED_NAMES)
def test_experiment_contract(name, quick_context):
    """Everything the drivers ask of an experiment follows from its
    ``kernels``, ``quick_params`` and ``run`` signature."""
    experiment = registry.get(name)
    assert experiment.needs_context == bool(experiment.kernels)

    targets = experiment.evaluation_targets(quick_context,
                                            **experiment.quick_params)
    has_hook = hasattr(sys.modules[experiment.module], "evaluation_requests")
    assert bool(targets) == ("any" in experiment.kernels or has_hook)

    scheduler = inspect.signature(experiment.compute).parameters.get(
        "scheduler")
    assert (scheduler is not None) == (name in SELF_SCHEDULING)
    if scheduler is not None:
        assert scheduler.kind is inspect.Parameter.KEYWORD_ONLY
        assert scheduler.default is inspect.Parameter.empty


#: ``repro list`` stdout: the ``suite`` column follows ``needs_context``,
#: the ``kernels`` column ``kernel_axis``, both derived from ``kernels``.
LIST_SNAPSHOT = """\
Registered experiments
name    artifact  title                                                suite  kernels
------  --------  ---------------------------------------------------  -----  -------
table1  Table 1   tiling strategies: utilization vs. tiling tax        -      gram
table2  Table 2   workload characteristics                             -      gram
table3  Table 3   overbooking benefit across kernels                   -      all
table4  Table 4   overbooking benefit vs. structure skew               -      all
table5  Table 5   overbooking benefit across real corpora              -      all
fig1    Fig. 1    occupancy distribution of fixed-size tiles           -      gram
fig5    Fig. 3/5  buffet vs. Tailors management of an overbooked tile  none   -
fig7    Fig. 7    speedup over ExTensor-N                              -      any
fig8    Fig. 8    energy relative to ExTensor-N                        -      any
fig9    Fig. 9    streaming overhead and data reuse                    -      any
fig10   Fig. 10   speedup of OB over P as a function of y              -      any
fig11   Fig. 11   overbooking rate: initial estimate vs. Swiftiles     -      gram
fig12   Fig. 12   Swiftiles error vs. number of samples k              -      gram
fig13   Fig. 13   occupancy distributions for one workload             -      gram
fig14   Fig. 14   traffic/energy Pareto frontier of the design space   -      all
"""


def test_list_output_is_pinned(capsys):
    assert main(["list"]) == 0
    assert capsys.readouterr().out == LIST_SNAPSHOT


class TestPlanRunWarnings:
    def _warnings(self, **request):
        with EvaluationScheduler(max_workers=1) as scheduler:
            return plan_run(RunRequest(suite="quick", **request),
                            scheduler=scheduler).warnings

    def test_kernel_warning_names_the_reason(self):
        warnings = self._warnings(
            experiments=("table3", "table4", "table1", "fig7"),
            kernel="sddmm")
        assert warnings == [
            "table3 evaluates its own kernel set; --kernel sddmm does not "
            "apply to it",
            "table4 evaluates its own kernel set; --kernel sddmm does not "
            "apply to it",
            "table1 is pinned to kernel(s) gram; --kernel sddmm does not "
            "apply to it",
        ]

    def test_default_kernel_warns_nobody(self):
        assert self._warnings(run_all=True) == []

    def test_source_warning_goes_to_the_self_scheduling(self):
        warnings = self._warnings(run_all=True,
                                  synth=("uniform:n=150,nnz=800",))
        warned = {text.split()[0] for text in warnings}
        assert warned == SELF_SCHEDULING
        assert all("--synth does not apply" in text for text in warnings)
