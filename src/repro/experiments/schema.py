"""The one request layer: ``run``, ``sweep`` and ``search`` requests.

The CLI (:mod:`repro.cli`) and the daemon (:mod:`repro.server.http`) build
every request through the frozen dataclasses below.  Each field's default
is written once, on its dataclass; every value check runs once, in
``__post_init__``, and raises :class:`RequestError`.  The two surfaces only
adapt syntax — argparse splits ``a,b,c`` lists, the daemon checks JSON types
and refuses unknown keys — so a request means the same on both.

:class:`SuiteSpec`
    Which workloads: synth specs, else corpus IDs, else MatrixMarket paths,
    else a named suite.  :meth:`SuiteSpec.build` returns the
    :class:`~repro.tensor.suite.WorkloadSuite`; :attr:`SuiteSpec.label` is
    the ``suite`` column of ``run`` artifacts.
:class:`GridRequest`
    A ``sweep`` grid — also what ``merge``, ``status`` and shard workers
    plan.  :meth:`GridRequest.grid_args` are the keyword arguments of
    :func:`~repro.experiments.sweep.plan_grid` and the other grid APIs.
:class:`SearchRequest`
    A Pareto ``search`` (:func:`~repro.experiments.search.search_frontier`).
:class:`RunRequest`
    A ``run`` of registered experiments.  :func:`plan_run` resolves it into
    experiments, parameters, a context and the request's scheduler;
    :func:`artifact_payload` renders one experiment's JSON artifact.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.experiments import registry
from repro.experiments.runner import ExperimentContext
from repro.experiments.scheduler import (
    EvaluationScheduler,
    requests_for_context,
)
from repro.experiments.search import (
    DEFAULT_GENERATIONS,
    DEFAULT_GLB_SCALES,
    DEFAULT_PE_SCALES,
    DEFAULT_SURROGATE_BUDGET,
    check_search_knobs,
)
from repro.experiments.surrogate import parse_constraint
from repro.experiments.sweep import (
    DEFAULT_KERNELS,
    DEFAULT_SCALES,
    DEFAULT_Y_VALUES,
    check_axes,
)
from repro.tensor.suite import (
    NAMED_SUITES,
    WorkloadSuite,
    corpus_suite,
    synth_suite,
)
from repro.tensor.synth import SynthSpec, parse_synth_spec


class RequestError(ValueError):
    """A request that cannot be served: CLI exit 2, HTTP 400."""


@contextmanager
def _refused(prefix: str = ""):
    """Re-raise what a value check or conversion raises as a
    :class:`RequestError`."""
    try:
        yield
    except (KeyError, TypeError, ValueError, OverflowError) as error:
        # str(KeyError) wraps its message in quotes.
        message = (error.args[0] if isinstance(error, KeyError) and error.args
                   else error)
        raise RequestError(f"{prefix}{message}") from None


def _convert(name: str, value, kind):
    with _refused(f"{name}: "):
        return kind(value)


def _floats(name: str, values) -> tuple:
    return tuple(_convert(name, value, float) for value in values)


@dataclass(frozen=True)
class SuiteSpec:
    """Where a request's workloads come from.

    Precedence: ``synth`` specs, then ``corpus`` IDs, then ``matrix``
    paths, then the named ``suite``.
    """

    suite: str = "full"
    matrix: Tuple[str, ...] = ()
    synth: Tuple[SynthSpec, ...] = ()
    corpus: Tuple[str, ...] = ()
    corpus_manifest: Optional[str] = None

    def __post_init__(self) -> None:
        if not (isinstance(self.suite, str) and self.suite in NAMED_SUITES):
            raise RequestError(f"unknown suite {self.suite!r} "
                               f"(known: {', '.join(NAMED_SUITES)})")
        # Corpus IDs and paths are checked where they are read, in build().
        self._set("matrix", tuple(self.matrix))
        self._set("corpus", tuple(self.corpus))
        with _refused("bad synth spec: "):
            self._set("synth", tuple(
                spec if isinstance(spec, SynthSpec)
                else parse_synth_spec(str(spec)) for spec in self.synth))

    def _set(self, name: str, value) -> None:
        object.__setattr__(self, name, value)

    @property
    def source(self) -> Optional[str]:
        """The field overriding ``suite`` (``synth``, ``corpus`` or
        ``matrix``), or ``None`` for a named suite."""
        for name in ("synth", "corpus", "matrix"):
            if getattr(self, name):
                return name
        return None

    @property
    def label(self) -> str:
        """The artifact's ``suite`` column: ``synth``, ``corpus`` (corpus
        IDs and MatrixMarket paths alike) or the suite name."""
        labels = {"synth": "synth", "corpus": "corpus", "matrix": "corpus"}
        return labels.get(self.source, self.suite)

    def build(self) -> WorkloadSuite:
        """The workload suite this spec names."""
        source = self.source
        with _refused():  # duplicate specs, unreadable files
            if source == "synth":
                return synth_suite(self.synth)
            if source == "corpus":
                from repro.tensor.corpus import corpus_workload_suite

                return corpus_workload_suite(self.corpus,
                                             manifest=self.corpus_manifest)
            if source == "matrix":
                return corpus_suite(self.matrix)
            return NAMED_SUITES[self.suite]()


@dataclass(frozen=True)
class GridRequest(SuiteSpec):
    """A ``kernel × glb × pe × y`` grid over a suite (``sweep``, ``merge``,
    ``status``, shard workers)."""

    y: Tuple[float, ...] = DEFAULT_Y_VALUES
    glb_scales: Tuple[float, ...] = DEFAULT_SCALES
    pe_scales: Tuple[float, ...] = DEFAULT_SCALES
    kernels: Tuple[str, ...] = DEFAULT_KERNELS
    workloads: Optional[Tuple[str, ...]] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        for name in ("y", "glb_scales", "pe_scales"):
            self._set(name, _floats(name, getattr(self, name)))
        self._set("kernels", tuple(str(kernel) for kernel in self.kernels))
        with _refused():
            check_axes(self.y, self.glb_scales, self.pe_scales, self.kernels)
        # An empty subset, like none, keeps every workload.
        self._set("workloads", tuple(map(str, self.workloads or ())) or None)
        if self.workloads is not None:
            # Only a built suite knows its workload names.
            with _refused():
                self.build().subset(self.workloads)

    def grid_args(self) -> Dict[str, Any]:
        """Keyword arguments of the grid APIs (``plan_grid``, ``sweep_grid``,
        ``run_shard``, ``shard_status``, ``merge_shards``)."""
        return {"y_values": self.y, "glb_scales": self.glb_scales,
                "pe_scales": self.pe_scales, "kernels": self.kernels,
                "workloads": self.workloads}


@dataclass(frozen=True)
class SearchRequest(GridRequest):
    """A generational Pareto search seeded with the grid axes."""

    suite: str = "quick"
    glb_scales: Tuple[float, ...] = DEFAULT_GLB_SCALES
    pe_scales: Tuple[float, ...] = DEFAULT_PE_SCALES
    generations: int = DEFAULT_GENERATIONS
    constraints: Tuple[str, ...] = ()
    surrogate: bool = True
    surrogate_budget: float = DEFAULT_SURROGATE_BUDGET

    def __post_init__(self) -> None:
        super().__post_init__()
        self._set("generations",
                  _convert("generations", self.generations, int))
        self._set("surrogate_budget", _convert(
            "surrogate_budget", self.surrogate_budget, float))
        with _refused():
            check_search_knobs(self.generations, self.surrogate_budget)
            self._set("constraints", tuple(parse_constraint(str(text)).label
                                           for text in self.constraints))

    def search_args(self) -> Dict[str, Any]:
        """Keyword arguments of
        :func:`~repro.experiments.search.search_frontier`."""
        return {**self.grid_args(), "max_generations": self.generations,
                "use_surrogate": self.surrogate,
                "surrogate_budget": self.surrogate_budget,
                "constraints": self.constraints}


@dataclass(frozen=True)
class RunRequest(SuiteSpec):
    """A ``run`` of registered experiments over one suite, kernel and ``y``."""

    experiments: Tuple[str, ...] = ()
    run_all: bool = False
    kernel: str = "gram"
    overbooking_target: float = 0.10
    surrogate: bool = True

    def __post_init__(self) -> None:
        super().__post_init__()
        self._set("experiments", tuple(str(name) for name in self.experiments))
        if not (self.experiments or self.run_all):
            raise RequestError("name at least one experiment or pass --all "
                               "(\"run_all\": true)")
        self._set("overbooking_target", _convert(
            "overbooking_target", self.overbooking_target, float))
        with _refused():
            for name in self.experiments:
                registry.get(name)
            # A run evaluates the one-point grid at its target and kernel.
            check_axes([self.overbooking_target], DEFAULT_SCALES,
                       DEFAULT_SCALES, [self.kernel])


# --------------------------------------------------------------------- #
# Running experiments
# --------------------------------------------------------------------- #
@dataclass
class RunPlan:
    """A resolved :class:`RunRequest`: what runs, with which parameters,
    through which scheduler."""

    request: RunRequest
    experiments: List[registry.Experiment]
    params: Dict[str, dict]
    context: Optional[ExperimentContext]
    warnings: List[str]
    scheduler: EvaluationScheduler

    def run(self, experiment: registry.Experiment):
        """Run one experiment of the plan; the experiments that evaluate
        their own workload sets get the plan's scheduler."""
        params = dict(self.params[experiment.name])
        if experiment.accepts_param("scheduler"):
            params["scheduler"] = self.scheduler
        return experiment.run(
            self.context if experiment.needs_context else None, **params)

    def evaluation_requests(self) -> list:
        """The evaluations the experiments will read, for one prefetch."""
        if self.context is None:
            return []
        targets = []
        for experiment in self.experiments:
            targets.extend(experiment.evaluation_targets(
                self.context, **self.params[experiment.name]))
        return requests_for_context(self.context, targets)


def plan_run(request: RunRequest, *,
             scheduler: EvaluationScheduler) -> RunPlan:
    """Resolve ``request`` into experiments, their parameters and a context,
    evaluated through ``scheduler``.

    ``quick`` suites switch each experiment to its fast parameter set.
    ``surrogate=False`` and the corpus manifest are threaded into the
    experiments that accept them.  Warnings name request fields that do not
    apply to an experiment, so an artifact is never mislabeled silently.
    """
    selected = (registry.experiments() if request.run_all
                else [registry.get(name) for name in request.experiments])
    quick = request.suite == "quick"
    params: Dict[str, dict] = {}
    warnings: List[str] = []
    for experiment in selected:
        effective = experiment.effective_kernel(request.kernel)
        if (experiment.needs_context and request.kernel != "gram"
                and effective != request.kernel):
            reason = ("evaluates its own kernel set"
                      if len(experiment.kernels) > 1 else
                      f"is pinned to kernel(s) {experiment.kernels[0]}")
            warnings.append(f"{experiment.name} {reason}; --kernel "
                            f"{request.kernel} does not apply to it")
        if (request.source is not None
                and experiment.accepts_param("scheduler")):
            warnings.append(f"{experiment.name} evaluates its own workload "
                            f"set; --{request.source} does not apply to it "
                            f"(only the architecture, overbooking target and "
                            f"seed carry over)")
        own = dict(experiment.quick_params) if quick else {}
        if experiment.accepts_param("use_surrogate") and not request.surrogate:
            own.setdefault("use_surrogate", False)
        if experiment.accepts_param("manifest") and request.corpus_manifest:
            own["manifest"] = request.corpus_manifest
        params[experiment.name] = own

    context = None
    if any(experiment.needs_context for experiment in selected):
        context = ExperimentContext(
            suite=request.build(),
            overbooking_target=request.overbooking_target,
            kernel=request.kernel)
    return RunPlan(request, selected, params, context, warnings, scheduler)


def artifact_payload(plan: RunPlan, experiment: registry.Experiment, result,
                     *, seconds: Optional[float] = None) -> dict:
    """The JSON artifact of one experiment of ``plan`` (the CLI adds the
    wall-clock ``seconds``; the daemon streams it without)."""
    request = plan.request
    needs_context = experiment.needs_context
    payload = {
        "experiment": experiment.name,
        "artifact": experiment.artifact,
        "title": experiment.title,
        "suite": request.label if needs_context else None,
        "kernel": experiment.effective_kernel(request.kernel),
        "overbooking_target": (request.overbooking_target
                               if needs_context else None),
        "params": plan.params[experiment.name],
    }
    if seconds is not None:
        payload["seconds"] = seconds
    payload["result"] = experiment.to_json(result)
    return payload
