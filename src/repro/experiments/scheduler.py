"""Parallel evaluation scheduler: batch, deduplicate, fan out, merge.

Every figure/table experiment ultimately consumes per-variant
:class:`~repro.model.stats.PerformanceReport`s keyed by ``(suite,
architecture, overbooking target, kernel, workload)``.  The scheduler turns
that into a batch problem:

1. **Batch** — union the :class:`EvaluationRequest`s of all selected
   experiments (and sweep grid points) up front.
2. **Deduplicate** — drop requests already present in the report tier of
   the process cache (:data:`repro.experiments.runner.CACHE`); experiments
   sharing evaluations (Figs. 7/8/9, every sweep point at the default ``y``)
   cost one evaluation.
3. **Fan out** — evaluate the cold requests on a
   :class:`~concurrent.futures.ProcessPoolExecutor`.  A request is picklable
   because it carries the suite's *token*, not the suite: workers rebuild
   suites from seeds via :func:`repro.tensor.suite.suite_from_token` into
   their own copy of the cache, which keeps them (plus their evaluators and
   matrix/tiling caches) alive for the life of the worker.
4. **Merge** — per-variant reports come back pickled and are merged into the
   parent's cache, so the experiments afterwards run serially against warm
   caches.

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
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.accelerator.config import ArchitectureConfig
from repro.experiments.runner import CACHE, ExperimentContext

#: Signature of the per-request completion hook: ``(request, reports,
#: source)`` with ``source`` one of ``"store"`` (served from the on-disk
#: store) or ``"computed"`` (freshly evaluated this pass).
ResultHook = Callable[
    ["EvaluationRequest", Dict[str, "PerformanceReport"], str], None]
from repro.model.stats import PerformanceReport


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
    path) and stays in the record for its existing readers;
    ``shm_segments`` counts suites shipped to workers via shared memory
    (:mod:`repro.tensor.shm`) instead of per-worker rebuilds.
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
    shm_segments: int = 0


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


def _attach_worker_suites(manifests) -> None:
    """Pool initializer: attach shared-memory suites before any request runs."""
    from repro.tensor import shm

    for manifest in manifests:
        shm.attach_suite(manifest)


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
    min_parallel_requests:
        Below this many cold requests the pool start-up cost outweighs the
        win; they are evaluated in-process instead.
    store:
        Optional :class:`~repro.experiments.store.ReportStore`.  Cold
        requests are looked up in it before any evaluation happens, and
        computed reports are persisted to it as they complete (making the
        batch resumable after a crash).

    Cold requests are grouped by ``(suite, kernel, workload)`` and each
    group is evaluated by one vectorized grid evaluator
    (:mod:`repro.model.batch`), so shared tilings and scaffolding are
    computed once per group.  Pool workers receive their suites through one
    shared-memory segment (:mod:`repro.tensor.shm`) instead of rebuilding
    them from seeds, falling back transparently when that is unavailable.
    """

    def __init__(self, max_workers: Optional[int] = None, *,
                 min_parallel_requests: int = 4, store=None):
        if max_workers is None:
            max_workers = os.cpu_count() or 1
        self.max_workers = max(1, int(max_workers))
        self.min_parallel_requests = max(1, int(min_parallel_requests))
        self.store = store

    # ------------------------------------------------------------------ #
    def prefetch(self, requests: Sequence[EvaluationRequest], *,
                 on_result: Optional[ResultHook] = None) -> ScheduleStats:
        """Ensure every request's reports are in the process cache.

        Deduplicates against the cache, evaluates the cold remainder (in
        parallel when worth it), merges the results, and reports what it did.
        Afterwards ``context.reports(...)`` for any covered configuration is
        a memo hit.

        ``on_result`` is an optional per-request completion hook, invoked in
        *this* process the moment a request's reports become available —
        with ``source="store"`` for on-disk hits and ``source="computed"``
        for fresh evaluations (requests already warm in the memo never fire
        it; they were never scheduled).  The evaluation service streams
        per-cell progress to its clients through this.  Hook exceptions are
        swallowed (reported to stderr): a broken observer must not kill a
        batch other clients are coalesced into.
        """
        def notify(request: EvaluationRequest,
                   reports: Dict[str, PerformanceReport],
                   source: str) -> None:
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
        candidates = [(key, request) for key, request in unique.items()
                      if key not in CACHE.reports]
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
                    CACHE.reports[key] = reports
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
            CACHE.reports[request.memo_key] = reports
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
        shm_segments = 0
        workers = min(self.max_workers, len(units))
        if workers <= 1 or len(cold) < self.min_parallel_requests:
            for unit in units:
                for request, reports in _evaluate_request_group(unit):
                    merge(request, reports)
            workers = min(workers, 1)
        else:
            # Ship each suite to the workers once, through shared memory —
            # O(1) in suite bytes instead of one rebuild per worker.  Pairs
            # are exported only when some cold kernel streams them.
            from repro.tensor import shm
            from repro.tensor.kernels import kernel_spec

            manifests = []
            exported_tokens = []
            needs_pair: Dict[tuple, bool] = {}
            names_by_token: Dict[tuple, Dict[str, None]] = {}
            for request in cold:
                token = request.suite_token
                names_by_token.setdefault(token, {})[request.workload] = None
                needs_pair[token] = (
                    needs_pair.get(token, False)
                    or kernel_spec(request.kernel).needs_paired_operand)
            for token, names in names_by_token.items():
                manifest = shm.export_suite(
                    token, list(names), include_pairs=needs_pair[token])
                if manifest is not None:
                    manifests.append(manifest)
                    exported_tokens.append(token)
            shm_segments = len(manifests)
            initializer = _attach_worker_suites if manifests else None
            initargs = (tuple(manifests),) if manifests else ()

            # A worker dying (OOM kill, segfault, node eviction) surfaces as
            # BrokenProcessPool with everything in flight lost.  The batch is
            # pure and resumable, so recover instead of crashing the sweep:
            # respawn the pool once and retry what never merged; if the pool
            # breaks again, degrade to in-process evaluation — slow beats
            # dead, and every result merged so far is kept either way.
            try:
                pending = list(units)
                while pending:
                    chunksize = max(1, -(-len(pending) // (workers * 4)))
                    try:
                        with ProcessPoolExecutor(
                                max_workers=workers,
                                initializer=initializer,
                                initargs=initargs) as executor:
                            for results in executor.map(
                                    _evaluate_request_group, pending,
                                    chunksize=chunksize):
                                for request, reports in results:
                                    merge(request, reports)
                        pending = []
                    except BrokenProcessPool:
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
            finally:
                for token in exported_tokens:
                    shm.release_suite(token)

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
            shm_segments=shm_segments,
        )

    def prefetch_context(
            self, context: ExperimentContext,
            targets: Optional[Iterable[Tuple[float, str]]] = None,
    ) -> ScheduleStats:
        """:meth:`prefetch` for one context (default: all suite workloads)."""
        return self.prefetch(requests_for_context(context, targets))

    def prefetch_experiments(self, context: ExperimentContext, experiments,
                             params: Optional[Dict[str, dict]] = None,
                             ) -> ScheduleStats:
        """Prefetch the union of evaluation targets of ``experiments``.

        ``params`` optionally maps experiment name → the keyword arguments the
        caller will pass to ``run`` (so e.g. a restricted Fig. 10 ``y`` grid
        announces exactly the evaluations it will perform).
        """
        params = params or {}
        targets = []
        for experiment in experiments:
            targets.extend(experiment.evaluation_targets(
                context, **params.get(experiment.name, {})))
        return self.prefetch(requests_for_context(context, targets))
