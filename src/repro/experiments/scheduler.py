"""Parallel evaluation scheduler: batch, deduplicate, fan out, merge.

Every figure/table experiment ultimately consumes per-variant
:class:`~repro.model.stats.PerformanceReport`s keyed by ``(suite,
architecture, overbooking target, kernel, workload)``.  The scheduler turns
that into a batch problem:

1. **Batch** — union the :class:`EvaluationRequest`s of all selected
   experiments (and sweep grid points) up front.
2. **Deduplicate** — resolve requests already present in the report tier
   of the process cache (:data:`repro.experiments.runner.CACHE`) without
   evaluating them; experiments sharing evaluations (Figs. 7/8/9, every
   sweep point at the default ``y``) cost one evaluation.
3. **Fan out** — evaluate the cold requests on the scheduler's one
   :class:`~concurrent.futures.ProcessPoolExecutor`, kept until
   :meth:`EvaluationScheduler.close`.  A request carries the suite's
   *token*, not the suite: workers rebuild suites from seeds via
   :func:`repro.tensor.suite.suite_from_token` into their own copy of the
   cache, which keeps them (plus their evaluators and matrix/tiling caches)
   warm for the life of the pool.
4. **Merge** — per-variant reports come back pickled and are merged into the
   parent's cache.  The memo is bounded, so a caller that reads the cells
   back passes ``into=`` and reads them from there (see
   :meth:`EvaluationScheduler.prefetch`).

When constructed with a :class:`~repro.experiments.store.ReportStore`, the
scheduler adds a *durable* tier between steps 2 and 3: cold requests are
first looked up in the on-disk store (a hit is merged into the memo without
any evaluation), and every freshly computed request is persisted the moment
its reports arrive — one atomic file per request — so an interrupted batch
leaves everything it finished on disk for the next run to resume from.

Evaluation is a deterministic function of the request (seeded generators end
to end), so the merged reports are identical to what serial execution would
have produced — ``tests/experiments/test_scheduler.py`` pins that down to
1e-9 against the per-point :class:`~repro.model.engine.AnalyticalEngine`.
"""

from __future__ import annotations

import os
import sys
import threading
import weakref
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.accelerator.config import ArchitectureConfig
from repro.experiments.runner import CACHE, ExperimentContext
from repro.model.stats import PerformanceReport

#: Below this many cold requests the pool start-up cost outweighs the win,
#: so they are evaluated in-process instead.
MIN_PARALLEL_REQUESTS = 4

#: Signature of the per-request completion hook: ``(request, reports,
#: source)`` with ``source`` one of ``"memo"`` (already in the process
#: memo), ``"store"`` (served from the on-disk store) or ``"computed"``
#: (freshly evaluated this pass).
ResultHook = Callable[
    ["EvaluationRequest", Dict[str, PerformanceReport], str], None]


@dataclass(frozen=True)
class EvaluationRequest:
    """One unit of schedulable work: evaluate a workload on every variant.

    ``suite_token`` is the picklable identity of a canonical suite (see
    :attr:`repro.tensor.suite.WorkloadSuite.cache_token`); the other fields —
    including the ``kernel`` axis — mirror the report-memo key, which is what
    makes deduplication exact.
    """

    suite_token: tuple
    architecture: ArchitectureConfig
    overbooking_target: float
    workload: str
    kernel: str = "gram"

    @property
    def memo_key(self) -> tuple:
        return (self.suite_token, self.architecture,
                self.overbooking_target, self.kernel, self.workload)


@dataclass(frozen=True)
class ScheduleStats:
    """What a :meth:`EvaluationScheduler.prefetch` call actually did.

    ``warm`` counts in-process memo hits; ``store_hits`` counts requests
    served from the on-disk report store (when one is attached) and
    ``store_writes`` the freshly computed requests persisted to it.  Both
    are always **per-cell** counts: the batched evaluator returns one result
    per request of a group, and each is merged (and persisted) individually,
    so a 100-cell batch records 100 writes, never 1.
    ``batch_groups`` counts the ``(suite, kernel, workload)`` groups the
    cold requests collapsed into, one :mod:`repro.model.batch` evaluation
    each; ``batched`` is always ``True`` (every cold request takes that
    path) and stays in the record for its existing readers.
    ``pool_restarts`` / ``degraded_serial`` record worker-pool crash
    recovery (see :meth:`EvaluationScheduler.prefetch`) — run-dependent
    ephemera, like every other field here, and therefore excluded from all
    artifacts (see :func:`repro.experiments.registry.deterministic_payload`).
    """

    requested: int
    unique: int
    warm: int
    computed: int
    workers: int
    store_hits: int = 0
    store_writes: int = 0
    pool_restarts: int = 0
    degraded_serial: bool = False
    batched: bool = True
    batch_groups: int = 0


def format_schedule(stats: ScheduleStats) -> str:
    """Where a prefetch's evaluations came from, in one line — computed,
    report store, report memo — or ``""`` when nothing was requested."""
    notes = []
    if stats.computed:
        notes.append(f"{stats.computed} evaluations computed on "
                     f"{stats.workers} worker(s)")
    if stats.store_hits:
        notes.append(f"{stats.store_hits} served from the report store")
    if stats.warm:
        notes.append(f"{stats.warm} served from the report memo")
    return "; ".join(notes)


def requests_for_context(
        context: ExperimentContext,
        targets: Optional[Iterable[tuple]] = None,
) -> List[EvaluationRequest]:
    """Requests covering ``targets`` of a context.

    Each target is a ``(y, workload)`` pair — evaluated under the context's
    kernel — or a ``(y, workload, kernel)`` triple for experiments that sweep
    the kernel axis (e.g. the cross-kernel Table 3).  ``targets`` defaults to
    every suite workload at the context's overbooking target and kernel.
    Returns ``[]`` for custom suites (no token — nothing to ship to a worker;
    such contexts evaluate in-process through their private cache).
    """
    token = context.suite_token
    if token is None:
        return []
    if targets is None:
        targets = [(context.overbooking_target, name)
                   for name in context.workload_names]
    requests = []
    for target in targets:
        y, name = target[0], target[1]
        kernel = target[2] if len(target) > 2 else context.kernel
        requests.append(EvaluationRequest(
            suite_token=token,
            architecture=context.architecture,
            overbooking_target=float(y),
            workload=str(name),
            kernel=str(kernel),
        ))
    return requests


# --------------------------------------------------------------------- #
# Worker side
# --------------------------------------------------------------------- #
def _group_key(request: EvaluationRequest) -> tuple:
    """The batching axis: requests differing only in architecture / ``y``
    share one workload (operands, tilings, occupancy reductions)."""
    return (request.suite_token, request.kernel, request.workload)


def _evaluate_request_group(
        unit: Tuple[EvaluationRequest, ...],
) -> List[Tuple[EvaluationRequest, Dict[str, PerformanceReport]]]:
    """Worker entry point for one batch group: every (architecture, y) cell
    of one ``(suite, kernel, workload)`` through the process's cached
    evaluator (:data:`repro.experiments.runner.CACHE`).

    Returns one ``(request, reports)`` pair *per cell* — the parent merges
    (and persists) each individually, so store accounting stays per-cell.
    """
    reports = CACHE.evaluator(*_group_key(unit[0])).prime(
        [(request.architecture, request.overbooking_target)
         for request in unit])
    return list(zip(unit, reports))


# --------------------------------------------------------------------- #
# Parent side
# --------------------------------------------------------------------- #
class EvaluationScheduler:
    """Evaluate batches of requests, in parallel when it pays off.

    Parameters
    ----------
    max_workers:
        Upper bound on worker processes.  ``None`` uses the CPU count; ``1``
        forces serial in-process evaluation (no pool, no pickling).
    store:
        Optional :class:`~repro.experiments.store.ReportStore`.  Cold
        requests are looked up in it before any evaluation happens, and
        computed reports are persisted to it as they complete (making the
        batch resumable after a crash).

    Cold requests are grouped by ``(suite, kernel, workload)`` and each
    group is evaluated by one vectorized grid evaluator
    (:mod:`repro.model.batch`), so shared tilings and scaffolding are
    computed once per group.

    The worker pool lives as long as the scheduler: :meth:`close` (or
    leaving a ``with`` block) shuts it down, and so does garbage-collecting
    a scheduler that was never closed.
    """

    def __init__(self, max_workers: Optional[int] = None, *, store=None):
        if max_workers is None:
            max_workers = os.cpu_count() or 1
        self.max_workers = max(1, int(max_workers))
        self.store = store
        self._pool: Optional[ProcessPoolExecutor] = None
        self._shutdown_pool: Optional[weakref.finalize] = None
        # Handler threads of the evaluation service share one scheduler
        # with its loop; pool creation and replacement happen under this.
        self._pool_lock = threading.Lock()

    def __enter__(self) -> "EvaluationScheduler":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Shut the worker pool down and wait for its workers to exit.
        Idempotent; a later pooled prefetch starts a new pool."""
        self._discard_pool(self._pool)

    def _executor(self) -> ProcessPoolExecutor:
        """The worker pool, started on first use."""
        with self._pool_lock:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(max_workers=self.max_workers)
                # Called by close(), or when the scheduler is collected.
                self._shutdown_pool = weakref.finalize(
                    self, self._pool.shutdown)
            return self._pool

    def _discard_pool(self, pool: Optional[ProcessPoolExecutor]) -> None:
        """Shut ``pool`` down, unless another thread already replaced it."""
        with self._pool_lock:
            if pool is None or pool is not self._pool:
                return
            self._pool = None
            shutdown = self._shutdown_pool
        shutdown()

    # ------------------------------------------------------------------ #
    def prefetch(self, requests: Sequence[EvaluationRequest], *,
                 on_result: Optional[ResultHook] = None,
                 into: Optional[Dict[tuple, Dict[str, PerformanceReport]]]
                 = None) -> ScheduleStats:
        """Resolve every request's reports through the process cache.

        Deduplicates against the cache, evaluates the cold remainder (in
        parallel when worth it), merges the results, and reports what it did.

        ``into``, when given, receives every request's reports by memo key.
        The report memo is a bounded LRU, so a caller that reads the cells
        back reads them from ``into``: a large prefetch may already have
        evicted its own first cells from the memo.

        ``on_result`` is an optional per-request completion hook, invoked in
        *this* process the moment a request's reports become available —
        with ``source="memo"`` for cells already in the process memo,
        ``source="store"`` for on-disk hits and ``source="computed"`` for
        fresh evaluations.  The evaluation service streams per-cell progress
        to its clients through this.  Hook exceptions are swallowed
        (reported to stderr): a broken observer must not kill a batch other
        clients are coalesced into.
        """
        def notify(request: EvaluationRequest,
                   reports: Dict[str, PerformanceReport],
                   source: str) -> None:
            if into is not None:
                into[request.memo_key] = reports
            if on_result is None:
                return
            try:
                on_result(request, reports, source)
            except Exception as error:  # noqa: BLE001 - observer, not critic
                print(f"[scheduler] on_result hook failed for "
                      f"{request.workload}/{request.kernel}: {error!r}",
                      file=sys.stderr)

        unique: Dict[tuple, EvaluationRequest] = {}
        for request in requests:
            if request.suite_token is None:
                raise ValueError(
                    "cannot schedule a request without a suite token; custom "
                    "suites must be evaluated in-process via their context")
            unique.setdefault(request.memo_key, request)

        store_hits = 0
        cold = []
        candidates = []
        for key, request in unique.items():
            reports = CACHE.reports.get(key)
            if reports is None:
                candidates.append((key, request))
            else:
                notify(request, reports, "memo")
        if self.store is not None and candidates:
            # One bulk lookup for every memo-cold key: the store scans each
            # needed shard directory once (see ReportStore.load_many) instead
            # of probing entry files one by one — the difference between a
            # warm-started search paying N file-open misses and paying a few
            # directory listings.
            loaded = self.store.load_many([key for key, _ in candidates])
            for key, request in candidates:
                reports = loaded.get(key)
                if reports is not None:
                    reports = CACHE.put(key, reports)
                    store_hits += 1
                    notify(request, reports, "store")
                else:
                    cold.append(request)
        else:
            cold = [request for _, request in candidates]
        # Group same-workload requests (which share tilings at equal
        # capacities) so chunking keeps them on one worker.
        cold.sort(key=lambda r: (r.workload, r.kernel, r.overbooking_target))

        merged_keys = set()

        def merge(request: EvaluationRequest,
                  reports: Dict[str, PerformanceReport]) -> None:
            reports = CACHE.put(request.memo_key, reports)
            merged_keys.add(request.memo_key)
            if self.store is not None:
                # Persist immediately (one atomic file per request), so an
                # interrupted batch keeps everything it finished.
                self.store.store(request.memo_key, reports)
            notify(request, reports, "computed")

        # The unit of fan-out: every cold cell of a (suite, kernel, workload)
        # group — the vectorized evaluator computes the group's shared
        # tilings/reductions once and emits one report set per cell.
        groups: Dict[tuple, List[EvaluationRequest]] = {}
        for request in cold:
            groups.setdefault(_group_key(request), []).append(request)
        units = [tuple(group) for group in groups.values()]

        pool_restarts = 0
        degraded_serial = False
        workers = min(self.max_workers, len(units))
        if workers <= 1 or len(cold) < MIN_PARALLEL_REQUESTS:
            for unit in units:
                for request, reports in _evaluate_request_group(unit):
                    merge(request, reports)
            workers = min(workers, 1)
        else:
            # A worker dying (OOM kill, segfault, node eviction) surfaces as
            # BrokenProcessPool with everything in flight lost.  The batch is
            # pure and resumable, so recover instead of crashing the sweep:
            # replace the pool once and retry what never merged; if the pool
            # breaks again, degrade to in-process evaluation — slow beats
            # dead, and every result merged so far is kept either way.  The
            # next pooled prefetch starts a fresh pool.
            pending = list(units)
            while pending:
                pool = self._executor()
                chunksize = max(1, -(-len(pending) // (workers * 4)))
                try:
                    for results in pool.map(_evaluate_request_group, pending,
                                            chunksize=chunksize):
                        for request, reports in results:
                            merge(request, reports)
                    pending = []
                except BrokenProcessPool:
                    self._discard_pool(pool)
                    pending = [
                        unit for unit in
                        (tuple(request for request in unit
                               if request.memo_key not in merged_keys)
                         for unit in pending)
                        if unit]
                    remaining = sum(len(unit) for unit in pending)
                    pool_restarts += 1
                    if pool_restarts > 1:
                        print(f"[scheduler] worker pool broke twice; "
                              f"degrading to serial in-process evaluation "
                              f"of the remaining {remaining} request(s)",
                              file=sys.stderr)
                        for unit in pending:
                            results = _evaluate_request_group(unit)
                            for request, reports in results:
                                merge(request, reports)
                        pending = []
                        degraded_serial = True
                    else:
                        print(f"[scheduler] worker pool broke (a worker "
                              f"died, e.g. OOM-killed); respawning the "
                              f"pool to retry the remaining {remaining} "
                              f"request(s)", file=sys.stderr)

        return ScheduleStats(
            requested=len(requests),
            unique=len(unique),
            warm=len(unique) - len(cold) - store_hits,
            computed=len(cold),
            workers=workers,
            store_hits=store_hits,
            store_writes=len(cold) if self.store is not None else 0,
            pool_restarts=pool_restarts,
            degraded_serial=degraded_serial,
            batch_groups=len(units),
        )
