"""Registry of the paper's experiments (every figure and table).

Each experiment module declares itself with the :func:`register` decorator on
its ``run`` function::

    @register(name="fig7", artifact="Fig. 7",
              title="speedup over ExTensor-N")
    def run(context): ...

which replaces the hand-maintained table that used to live in
``experiments/__init__.py``: the registry *is* the list of experiments, and
anything driving them (the CLI, the scheduler, the completeness tests) asks it
instead of hard-coding module names.

The experiment contract is three things, and drivers derive everything else
from them:

* ``kernels`` — which kernels the experiment applies to: ``("any",)`` (the
  default) for experiments that consume the per-variant reports of every
  suite workload and follow the context's kernel axis, ``("gram",)`` for ones
  that model the Gram kernel's occupancy structure directly, several kernels
  for cross-kernel experiments, ``()`` for self-contained ones (the Fig. 5
  trace, the only experiment run without a context);
* ``quick_params`` — parameter overrides that keep the experiment meaningful
  *and fast* on the three-workload quick suite (used by smoke tests and CI);
* the ``run`` signature — an experiment that evaluates its own workload set
  takes the run's scheduler as a keyword-only ``scheduler`` parameter; other
  cross-cutting inputs (``use_surrogate``, the corpus ``manifest``) reach the
  experiments that declare them.

An :class:`Experiment` bundles that contract with ``name`` / ``artifact`` /
``title`` (identity and what paper artifact the experiment regenerates),
``compute`` (the module's ``run``) and ``format_result`` / ``to_json``
(rendering, resolved lazily from the defining module; ``to_json`` falls back
to a generic dataclass-aware converter).

:func:`discover` imports every experiment module exactly once so their
decorators run; every registry accessor calls it, so callers never need to.
"""

from __future__ import annotations

import dataclasses
import importlib
import sys
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional

import numpy as np

#: The experiment modules, in the paper's artifact order.  ``discover``
#: imports them; each registers itself via the decorator below.
EXPERIMENT_MODULES = (
    "table1", "table2", "table3", "table4", "table5",
    "fig1", "fig5", "fig7", "fig8", "fig9",
    "fig10", "fig11", "fig12", "fig13", "fig14",
)

_REGISTRY: Dict[str, "Experiment"] = {}
_DISCOVERED = False


def to_jsonable(value: Any) -> Any:
    """Convert an experiment result into JSON-serializable data.

    Handles (recursively) dataclasses — fields plus any cheap ``@property``
    aggregates they expose (the geomeans of Fig. 7/8, the MAEs of Fig. 11/12),
    numpy scalars and arrays, tuples and mappings.  Non-finite floats become
    strings so the artifact stays valid JSON.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        out: Dict[str, Any] = {}
        for f in dataclasses.fields(value):
            out[f.name] = to_jsonable(getattr(value, f.name))
        for attr_name, attr in vars(type(value)).items():
            if isinstance(attr, property) and attr_name not in out:
                try:
                    out[attr_name] = to_jsonable(getattr(value, attr_name))
                except Exception:  # a property needing arguments/state: skip
                    continue
        return out
    if isinstance(value, Mapping):
        return {str(key): to_jsonable(item) for key, item in value.items()}
    if isinstance(value, np.ndarray):
        return [to_jsonable(item) for item in value.tolist()]
    if isinstance(value, (list, tuple, set, frozenset)):
        return [to_jsonable(item) for item in value]
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, float) and not np.isfinite(value):
        return repr(value)
    return value


#: Result fields that are run-dependent *ephemera* — how the answer was
#: obtained, never part of the answer itself.  Artifacts must be a pure
#: function of the evaluation identity (suite, architecture, y, kernel,
#: workload grid), so anything that varies between a serial run, a resumed
#: run, and an N-shard run — scheduling statistics, lease/heartbeat state,
#: retry counters — is stripped by :func:`deterministic_payload`.  This is
#: the single place the identity-vs-ephemera split lives: sweep, search, and
#: the shard merge all serialize through it, which is what makes their
#: byte-identity guarantees (resumed == uninterrupted, merged == serial)
#: hold by construction instead of by per-module exclusion conventions.
EPHEMERAL_FIELDS = frozenset({
    "schedule",        # ScheduleStats: warm/cold/store-hit/pool-restart split
    "generations",     # per-generation ScheduleStats of the Pareto search
    "shard",           # which worker computed which cells
    "leases",          # live lease/claim state of a sharded run
    "heartbeat",       # lease heartbeat counters
    "retries",         # transient-I/O retry counters
})


def deterministic_payload(result: Any) -> Any:
    """``to_jsonable(result)`` minus every :data:`EPHEMERAL_FIELDS` key.

    Use this — not hand-rolled ``payload.pop(...)`` calls — wherever a
    result becomes a JSON artifact whose bytes must not depend on *how* the
    run was executed (serial vs. parallel vs. sharded vs. resumed).
    """
    payload = to_jsonable(result)
    if isinstance(payload, dict):
        for field_name in EPHEMERAL_FIELDS:
            payload.pop(field_name, None)
    return payload


@dataclass(frozen=True)
class Experiment:
    """Spec of one registered experiment (see the module docstring)."""

    name: str
    artifact: str
    title: str
    compute: Callable[..., Any] = field(repr=False, compare=False)
    module: str
    quick_params: Mapping[str, Any] = field(default_factory=dict)
    #: See the module docstring.
    kernels: tuple = ("any",)

    @property
    def needs_context(self) -> bool:
        """Whether ``run`` takes an :class:`ExperimentContext`."""
        return bool(self.kernels)

    def accepts_param(self, name: str) -> bool:
        """Whether ``run`` declares parameter ``name`` — how drivers decide
        which cross-cutting inputs (the request's ``scheduler``,
        ``--no-surrogate``, the corpus manifest) an experiment receives."""
        import inspect

        return name in inspect.signature(self.compute).parameters

    @property
    def kernel_axis(self) -> str:
        """Human-readable kernel applicability (the ``list`` column)."""
        if not self.kernels:
            return "-"
        if len(self.kernels) > 1:
            return "all"
        return self.kernels[0]

    def effective_kernel(self, kernel: str) -> Optional[str]:
        """The kernel(s) this experiment's results reflect when ``kernel``
        is requested: report consumers follow it, matrix-direct experiments
        keep their fixed kernel and cross-kernel tables report ``"all"``;
        ``None`` for experiments without a context."""
        if not self.kernels:
            return None
        if "any" in self.kernels:
            return kernel
        return self.kernel_axis

    def run(self, context=None, **params) -> Any:
        """Run the experiment (``context`` is ignored when not needed)."""
        if self.needs_context:
            if context is None:
                raise ValueError(f"experiment {self.name!r} requires a context")
            return self.compute(context, **params)
        return self.compute(**params)

    def _module_attr(self, attr: str) -> Optional[Callable]:
        return getattr(sys.modules[self.module], attr, None)

    def evaluation_targets(self, context, **params) -> List[tuple]:
        """``(overbooking_target, workload)`` pairs this run will evaluate.

        The scheduler unions these across selected experiments and computes
        the cold ones in parallel before any experiment runs.  By default a
        report consumer (``"any"`` in ``kernels``) reads every suite workload
        at the context's target, and any other experiment reads none; a
        module may refine that by defining
        ``evaluation_requests(context, **params)`` — Fig. 10 does, to announce
        its ``y`` grid, and Table 3 its kernel grid.
        """
        hook = self._module_attr("evaluation_requests")
        if hook is not None and context is not None:
            return list(hook(context, **params))
        if "any" in self.kernels and context is not None:
            return [(context.overbooking_target, name)
                    for name in context.workload_names]
        return []

    def format_result(self, result: Any) -> str:
        """Render ``result`` as text via the defining module's formatter."""
        formatter = self._module_attr("format_result")
        if formatter is None:
            raise AttributeError(
                f"module {self.module} defines no format_result()")
        return formatter(result)

    def to_json(self, result: Any) -> Any:
        """Convert ``result`` for the JSON artifact.

        Uses the defining module's ``to_json`` when present, else the generic
        dataclass converter.
        """
        converter = self._module_attr("to_json")
        if converter is not None:
            return converter(result)
        return to_jsonable(result)


def register(*, name: str, artifact: str, title: str,
             quick_params: Optional[Mapping[str, Any]] = None,
             kernels: tuple = ("any",)):
    """Class the decorated ``run`` function as the experiment ``name``."""

    def decorate(func: Callable[..., Any]) -> Callable[..., Any]:
        if name in _REGISTRY and _REGISTRY[name].module != func.__module__:
            raise ValueError(f"experiment {name!r} already registered by "
                             f"{_REGISTRY[name].module}")
        _REGISTRY[name] = Experiment(
            name=name,
            artifact=artifact,
            title=title,
            compute=func,
            module=func.__module__,
            quick_params=dict(quick_params or {}),
            kernels=tuple(kernels),
        )
        return func

    return decorate


def discover() -> None:
    """Import every experiment module so their ``@register`` decorators run."""
    global _DISCOVERED
    if _DISCOVERED:
        return
    package = __name__.rsplit(".", 1)[0]
    for module in EXPERIMENT_MODULES:
        importlib.import_module(f"{package}.{module}")
    _DISCOVERED = True


def _canonical_order(experiment: Experiment) -> tuple:
    # Sort by position in EXPERIMENT_MODULES (imports may happen in any
    # order — e.g. a test importing fig7 before discover() runs); experiments
    # from unlisted modules go last, in registration order.
    module = experiment.module.rsplit(".", 1)[-1]
    try:
        return (0, EXPERIMENT_MODULES.index(module))
    except ValueError:
        return (1, list(_REGISTRY).index(experiment.name))


def names() -> List[str]:
    """Registered experiment names, in the paper's artifact order."""
    return [experiment.name for experiment in experiments()]


def experiments() -> List[Experiment]:
    """All registered experiments, in the paper's artifact order."""
    discover()
    return sorted(_REGISTRY.values(), key=_canonical_order)


def get(name: str) -> Experiment:
    """The experiment registered as ``name`` (``KeyError`` with hint if not)."""
    discover()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown experiment {name!r}; "
                       f"registered: {list(_REGISTRY)}") from None
