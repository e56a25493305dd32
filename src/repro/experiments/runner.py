"""The process evaluation cache and the experiment context that reads it."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional
from weakref import WeakValueDictionary

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
from repro.tensor.suite import (
    NAMED_SUITES,
    WorkloadSuite,
    clear_shared_matrix_cache,
    default_suite,
    small_suite,
    suite_from_token,
)
from repro.utils.lru import LRU

#: Cells the process report memo keeps: above every benchmarked request but
#: the 2,970-cell cold full-suite grid, whose sweep reads its own prefetch.
REPORT_MEMO_CELLS = 2048


class EvaluationCache:
    """Every process-level evaluation dict, keyed by the suite token.

    Three tiers: ``suites`` by token (seeded with the caller's own suite,
    else rebuilt by :func:`~repro.tensor.suite.suite_from_token`);
    ``evaluators``, one :class:`~repro.model.batch.BatchWorkloadEvaluator`
    (holding its workload descriptor, hence its operation counts and
    tilings) per ``(token, kernel, workload)``; and ``reports`` by memo key
    ``(token, architecture, overbooking target, kernel, workload)``.
    Reports are deterministic in their key and immutable, so every context,
    scheduler pass, shard worker and service request shares one entry.
    ``reports`` is an :class:`~repro.utils.lru.LRU` of
    :data:`REPORT_MEMO_CELLS` cells, so a long-lived process keeps its
    memory bounded; an evicted cell is re-served from the report store or
    recomputed with the same bytes.  A request therefore reads its cells
    from what its own prefetch resolved, never back out of the memo.
    Every report enters through :meth:`put`, which keeps one ExTensor-N and
    one ExTensor-P report per ``(token, architecture, kernel, workload)`` in
    ``y_independent``: neither reads ``y``, so the cells of every ``y``
    share those objects.  The index holds them weakly: a report no cached
    cell holds any more leaves it.

    There is no lock: every entry is a pure function of its key, so two
    threads missing at once only duplicate work, and pool workers fork
    while service threads may be mid-call — a held lock would be inherited
    locked.
    """

    def __init__(self) -> None:
        self.suites: Dict[object, WorkloadSuite] = {}
        self.evaluators: Dict[tuple, BatchWorkloadEvaluator] = {}
        self.reports: LRU = LRU(REPORT_MEMO_CELLS)
        self.y_independent: "WeakValueDictionary[tuple, PerformanceReport]" = (
            WeakValueDictionary())

    def evaluator(self, token, kernel: str, workload: str,
                  suite: Optional[WorkloadSuite] = None
                  ) -> BatchWorkloadEvaluator:
        """The shared evaluator of ``(token, kernel, workload)``; a suite
        miss keeps ``suite`` (else rebuilds it from the token)."""
        key = (token, kernel, workload)
        evaluator = self.evaluators.get(key)
        if evaluator is None:
            if token not in self.suites:
                self.suites[token] = (suite if suite is not None
                                      else suite_from_token(token))
            evaluator = self.evaluators[key] = BatchWorkloadEvaluator(
                WorkloadDescriptor.from_suite(self.suites[token], workload,
                                              kernel=kernel))
        return evaluator

    def evaluate(self, memo_key: tuple,
                 suite: Optional[WorkloadSuite] = None
                 ) -> Dict[str, PerformanceReport]:
        """The reports of ``memo_key``; a miss goes through the shared
        evaluator and is kept."""
        reports = self.reports.get(memo_key)
        if reports is None:
            token, architecture, overbooking_target, kernel, workload = memo_key
            reports = self.put(memo_key, self.evaluator(
                token, kernel, workload, suite).reports(architecture,
                                                        overbooking_target))
        return reports

    def put(self, memo_key: tuple, reports: Dict[str, PerformanceReport]
            ) -> Dict[str, PerformanceReport]:
        """Keep ``reports`` under ``memo_key`` and return what is kept.

        An N or P report equal to the one already held for its
        ``(token, architecture, kernel, workload)`` is replaced by that
        object; any other report is kept as given.  OB reports are never
        shared: their names round ``y`` to a whole percent, so a name is
        not a key.
        """
        token, architecture, _, kernel, workload = memo_key
        kept = {}
        for name, report in reports.items():
            if name in (VARIANT_NAIVE, VARIANT_PRESCIENT):
                held = self.y_independent.setdefault(
                    (token, architecture, kernel, workload, name), report)
                if held == report:
                    report = held
            kept[name] = report
        self.reports[memo_key] = kept
        return kept

    def clear(self) -> None:
        self.suites.clear()
        self.evaluators.clear()
        self.reports.clear()
        self.y_independent.clear()


#: The process's evaluation cache: contexts, the scheduler (and its pool
#: workers), shard workers and the evaluation service all read and fill it.
CACHE = EvaluationCache()


def clear_process_caches() -> None:
    """Evict every process-wide cache: :data:`CACHE` and the suite matrices
    (with them, each matrix's derived-result caches).

    What the benchmark harness uses to measure a genuinely cold run in a
    warm process.
    """
    CACHE.clear()
    clear_shared_matrix_cache()


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
    _cache: EvaluationCache = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        kernel_spec(self.kernel)  # fail fast on unknown kernels
        # Custom suites get a private cache: same code path, no sharing.
        self._cache = (CACHE if self.suite_token is not None
                       else EvaluationCache())

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
        return cls(suite=NAMED_SUITES[suite_name](), **kwargs)

    def with_overbooking_target(self, overbooking_target: float) -> "ExperimentContext":
        """A context over the same suite and architecture at a different ``y``.

        The derived context shares this context's suite instance (and with it
        every cached matrix and tiling), so sweeping ``y`` re-runs only the
        evaluations that actually depend on it.
        """
        return replace(self, overbooking_target=float(overbooking_target))

    def with_kernel(self, kernel: str) -> "ExperimentContext":
        """A context over the same suite/architecture evaluating ``kernel``.

        Shares this context's suite instance, so the primary matrices (and
        their tiling caches) are reused across kernels; only the kernel's own
        operands and evaluations are new.
        """
        return replace(self, kernel=str(kernel))

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
        """The workload descriptor for ``name`` under this kernel — the one
        the cached evaluator of ``(suite, kernel, name)`` holds.

        ``kernel="gram"`` (the default) builds the paper's ``A × Aᵀ``; other
        kernels take their streaming operand from their registry row.
        """
        return self._cache.evaluator(self.suite_token, self.kernel, name,
                                     self.suite).workload

    @property
    def suite_token(self):
        """Picklable identity of the suite (``None`` for custom suites).

        Workers of the parallel scheduler rebuild the suite from this token
        via :func:`repro.tensor.suite.suite_from_token`.
        """
        return self.suite.cache_token

    def memo_key(self, name: str) -> tuple:
        """The cache key of workload ``name``: ``(suite token, architecture,
        overbooking target, kernel, workload)`` — the layout of
        :attr:`repro.experiments.scheduler.EvaluationRequest.memo_key`."""
        return (self.suite_token, self.architecture, self.overbooking_target,
                self.kernel, name)

    def reports(self, name: str) -> Dict[str, PerformanceReport]:
        """Per-variant performance reports for workload ``name``.

        The :class:`EvaluationCache` entry itself (the same object on every
        call), evaluated through the shared evaluator on a miss — so every
        context over a canonical suite, and every scheduler pass before it,
        evaluates each (workload, variant) pair once per process.
        """
        return self._cache.evaluate(self.memo_key(name), self.suite)

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
