"""Shared experiment context: workloads, accelerator model, cached reports."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.accelerator.config import ArchitectureConfig, scaled_default_config
from repro.accelerator.extensor import (
    AcceleratorVariant,
    VARIANT_NAIVE,
    VARIANT_PRESCIENT,
)
from repro.model.batch import BatchWorkloadEvaluator
from repro.model.stats import PerformanceReport
from repro.model.workload import WorkloadDescriptor
from repro.tensor.kernels import kernel_spec
from repro.tensor.sparse import SparseMatrix
from repro.tensor.suite import WorkloadSuite, default_suite, small_suite

#: Process-wide report memo for canonical suites.  A report is a deterministic
#: function of (suite identity, architecture, overbooking target, kernel,
#: workload),
#: and :class:`~repro.model.stats.PerformanceReport` is immutable, so contexts
#: over the same canonical suite share evaluations — a fresh
#: ``ExperimentContext.full()`` does not re-evaluate workloads an earlier
#: context already evaluated.  Custom suites (``cache_token is None``)
#: never share.
_REPORT_MEMO: Dict[tuple, Dict[str, PerformanceReport]] = {}


def clear_process_caches() -> None:
    """Evict every process-wide memo (reports, suite matrices and, with them,
    each matrix's derived-result caches).

    The memos are bounded for the standard pipeline, but long-running
    parameter sweeps that vary architectures or overbooking targets across
    many contexts accumulate one entry per configuration — call this between
    sweep phases to release them.  Also what the benchmark harness uses to
    measure a genuinely cold run in a warm process.
    """
    import sys

    from repro.tensor.suite import clear_shared_matrix_cache

    _REPORT_MEMO.clear()
    clear_shared_matrix_cache()
    # The scheduler keeps its own suite/context caches for serial fallback;
    # clear them too (via sys.modules rather than an import: scheduler
    # imports runner, and an unimported scheduler has nothing to clear).
    scheduler_mod = sys.modules.get("repro.experiments.scheduler")
    if scheduler_mod is not None:
        scheduler_mod.clear_worker_caches()


def memoized_reports(memo_key: tuple) -> Optional[Dict[str, PerformanceReport]]:
    """The process-wide memo entry for ``memo_key``, or ``None`` if cold.

    The key layout is ``(suite token, architecture, overbooking target,
    kernel, workload)`` — what :meth:`ExperimentContext.memo_key` produces.
    Used by the parallel scheduler to split a batch into warm and cold
    requests.
    """
    return _REPORT_MEMO.get(memo_key)


def store_memoized_reports(memo_key: tuple,
                           reports: Dict[str, PerformanceReport]) -> None:
    """Merge externally computed reports into the process-wide memo.

    The scheduler calls this with reports evaluated in worker processes;
    afterwards any context over the same canonical suite serves them from the
    memo instead of re-evaluating them.
    """
    _REPORT_MEMO[memo_key] = dict(reports)


@dataclass
class ExperimentContext:
    """Everything an experiment needs, with caching of expensive intermediates.

    Parameters
    ----------
    suite:
        The workload suite to evaluate (default: the full 22-workload suite).
    architecture:
        Accelerator configuration (default: the scaled configuration).
    overbooking_target:
        The ``y`` used by the ExTensor-OB variant (default 10%, as in the
        paper's headline results).
    kernel:
        Which kernel of the family the context evaluates (default ``"gram"``,
        the paper's ``A × Aᵀ``; see :mod:`repro.tensor.kernels` for the
        others).  The suite provides the primary matrix per workload; the
        kernel decides what is built on top of it.
    """

    suite: WorkloadSuite = field(default_factory=default_suite)
    architecture: ArchitectureConfig = field(default_factory=scaled_default_config)
    overbooking_target: float = 0.10
    kernel: str = "gram"
    _workloads: Dict[str, WorkloadDescriptor] = field(default_factory=dict, repr=False)
    _reports: Dict[str, Dict[str, PerformanceReport]] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        kernel_spec(self.kernel)  # fail fast on unknown kernels

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def full(cls, **kwargs) -> "ExperimentContext":
        """Context over the full 22-workload suite."""
        return cls(suite=default_suite(), **kwargs)

    @classmethod
    def quick(cls, **kwargs) -> "ExperimentContext":
        """Context over the three-workload test suite (fast smoke runs)."""
        return cls(suite=small_suite(), **kwargs)

    @classmethod
    def for_suite(cls, suite_name: str, **kwargs) -> "ExperimentContext":
        """Context over a named canonical suite (``"full"`` or ``"quick"``)."""
        builders = {"full": cls.full, "quick": cls.quick}
        try:
            builder = builders[suite_name]
        except KeyError:
            raise KeyError(f"unknown suite {suite_name!r}; "
                           f"known: {sorted(builders)}") from None
        return builder(**kwargs)

    def with_overbooking_target(self, overbooking_target: float) -> "ExperimentContext":
        """A context over the same suite and architecture at a different ``y``.

        The derived context shares this context's suite instance (and with it
        every cached matrix and tiling), so sweeping ``y`` re-runs only the
        evaluations that actually depend on it.
        """
        return ExperimentContext(
            suite=self.suite,
            architecture=self.architecture,
            overbooking_target=float(overbooking_target),
            kernel=self.kernel,
        )

    def with_kernel(self, kernel: str) -> "ExperimentContext":
        """A context over the same suite/architecture evaluating ``kernel``.

        Shares this context's suite instance, so the primary matrices (and
        their tiling caches) are reused across kernels; only the kernel's own
        operands and evaluations are new.
        """
        return ExperimentContext(
            suite=self.suite,
            architecture=self.architecture,
            overbooking_target=self.overbooking_target,
            kernel=str(kernel),
        )

    # ------------------------------------------------------------------ #
    # Cached accessors
    # ------------------------------------------------------------------ #
    @property
    def workload_names(self) -> List[str]:
        return self.suite.names

    def matrix(self, name: str) -> SparseMatrix:
        """The workload matrix for ``name``."""
        return self.suite.matrix(name)

    def workload(self, name: str) -> WorkloadDescriptor:
        """The (cached) workload descriptor for ``name`` under this kernel.

        ``kernel="gram"`` (the default) builds the paper's ``A × Aᵀ`` exactly
        as before; other kernels resolve their extra operands (paired sparse
        matrices, deterministic dense factors) from the suite.
        """
        if name not in self._workloads:
            self._workloads[name] = WorkloadDescriptor.from_suite(
                self.suite, name, kernel=self.kernel)
        return self._workloads[name]

    @property
    def suite_token(self):
        """Picklable identity of the suite (``None`` for custom suites).

        Workers of the parallel scheduler rebuild the suite from this token
        via :func:`repro.tensor.suite.suite_from_token`.
        """
        return self.suite.cache_token

    def memo_key(self, name: str):
        """Process-wide memo key for workload ``name`` (``None`` = unshared).

        Layout: ``(suite token, architecture, overbooking target, kernel,
        workload)`` — mirrored by
        :attr:`repro.experiments.scheduler.EvaluationRequest.memo_key`.
        """
        suite_token = self.suite_token
        if suite_token is None:
            return None
        return (suite_token, self.architecture, self.overbooking_target,
                self.kernel, name)

    def reports(self, name: str) -> Dict[str, PerformanceReport]:
        """Per-variant performance reports for workload ``name`` (cached).

        Caching is two-level: per-context, plus a process-wide memo for the
        canonical suites so repeated contexts (every figure script builds its
        own) evaluate each (workload, variant) pair once per process.
        """
        if name not in self._reports:
            memo_key = self.memo_key(name)
            memoized = _REPORT_MEMO.get(memo_key) if memo_key is not None else None
            if memoized is not None:
                # Copy at the memo boundary: callers may mutate the returned
                # dict without polluting other contexts.
                self._reports[name] = dict(memoized)
            else:
                self._reports[name] = BatchWorkloadEvaluator(
                    self.workload(name)).reports(self.architecture,
                                                 self.overbooking_target)
                if memo_key is not None:
                    _REPORT_MEMO[memo_key] = dict(self._reports[name])
        return self._reports[name]

    def all_reports(self) -> Dict[str, Dict[str, PerformanceReport]]:
        """Reports for every workload in the suite."""
        return {name: self.reports(name) for name in self.workload_names}

    # Variant-name passthroughs so experiments do not hard-code strings.
    @property
    def naive_name(self) -> str:
        return VARIANT_NAIVE

    @property
    def prescient_name(self) -> str:
        return VARIANT_PRESCIENT

    @property
    def overbooking_name(self) -> str:
        # The OB variant's report name varies with the overbooking target
        # (e.g. "ExTensor-OB(y=22%)"), so resolve it from the variant instead
        # of returning the y=10% constant.
        return AcceleratorVariant.overbooking(
            overbooking_target=self.overbooking_target).name
