"""Experiment framework: registry, shared context, scheduler, sweeps.

Every table and figure of the paper is an :class:`~repro.experiments.registry.
Experiment` that registers itself (via the ``@register`` decorator on its
``run`` function) when its module is imported — the registry, not a
hand-maintained table here, is the source of truth for what exists.  Ask it::

    from repro.experiments import registry
    for experiment in registry.experiments():
        print(experiment.name, experiment.artifact, experiment.title)

The moving parts:

* :mod:`~repro.experiments.registry` — experiment specs and discovery.
* :mod:`~repro.experiments.runner` — :class:`ExperimentContext`, the cached
  workloads/model/reports a single process shares across experiments.
* :mod:`~repro.experiments.scheduler` — batches the evaluation requests of
  many experiments/contexts, deduplicates them against the process-wide
  report memo, and fans the cold ones out over worker processes.
* :mod:`~repro.experiments.sweep` — grids over the overbooking target and
  buffer scaling, run through the scheduler, serialized to JSON/CSV; with a
  store attached, durable and resumable (``--resume``).
* :mod:`~repro.experiments.store` — the content-addressed on-disk report
  store: every evaluation persisted once, served forever (atomic writes,
  versioned schema, ``store stats`` / ``store gc``).
* :mod:`~repro.experiments.search` — generational Pareto design-space
  search over ``(y, GLB, PE)`` configurations, pruning dominated
  configurations between generations.

``python -m repro`` (:mod:`repro.cli`) drives all of this from the command
line; the experiment modules (``fig1`` … ``fig14``, ``table1`` …
``table5``) keep their importable ``run(context)`` /
``format_result(result)`` API for direct use (the ones that evaluate their
own workload set also take a keyword-only ``scheduler``).  ``docs/ARCHITECTURE.md``
walks through how the layers fit together; ``docs/CLI.md`` is the command
reference.
"""

from repro.experiments.runner import ExperimentContext, clear_process_caches

__all__ = ["ExperimentContext", "clear_process_caches", "registry"]


def __getattr__(name):
    # Lazy: ``repro.experiments.registry`` imports experiment modules that
    # import this package; deferring the import keeps startup cheap and
    # avoids the cycle at package-import time.
    if name == "registry":
        import importlib

        return importlib.import_module("repro.experiments.registry")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
