"""Coalescing evaluation service: the scheduler as a shared resident loop.

The CLI pipeline treats :class:`~repro.experiments.scheduler.
EvaluationScheduler` as a per-process helper — one caller, one batch, one
fan-out.  A daemon serving many concurrent clients wants the opposite shape:
*every* client's evaluation requests funneled into **one** scheduler pass per
batch window, so overlapping grids are deduplicated across clients exactly
as they are within one (the fleet-wide dedup of the ROADMAP's
millions-of-users north star).

:class:`EvaluationService` is that funnel:

* Clients :meth:`~EvaluationService.submit` lists of
  :class:`~repro.experiments.scheduler.EvaluationRequest`\\ s and get back a
  :class:`Ticket` — a private event stream for *their* cells.
* A ticket whose every cell is already warm in the process memo is
  answered inside ``submit``, in the caller's thread, as a one-ticket pass:
  the same events, ``done`` schedule and counters, with no wait.
* Any other ticket is queued.  A single **service loop thread** takes the
  first queued ticket, waits ``batch_window`` seconds collecting whatever
  else arrives (the coalescing window), unions all tickets' requests, and
  runs one ``scheduler.prefetch`` over the union.  Requests two tickets
  share are evaluated once and both tickets hear about it.
* Per-cell completion events stream to subscribed tickets *as cells finish*
  (via the scheduler's ``on_result`` hook), tagged with where the cell came
  from: ``"memo"`` (already warm in-process), ``"store"`` (on-disk report
  store), or ``"computed"`` (evaluated this pass).
* Every computed cell lands in the shared
  :class:`~repro.experiments.store.ReportStore` the moment it completes
  (the scheduler persists per-request), so the fleet-wide hit rate only
  climbs.

Serializing cold passes through one loop thread is a feature, not a
limitation: a resident service gets its concurrency from coalescing — many
clients, one pass — not from racing evaluations against each other.  Warm
passes evaluate nothing, so they run beside the loop.  The scheduler's
worker pool lives as long as the service, so its workers keep their
evaluators warm from pass to pass.

:meth:`EvaluationService.close` with ``drain=True`` (the default) finishes
every queued ticket before returning, which is what makes the HTTP layer's
graceful shutdown graceful, then shuts the scheduler's worker pool down.
"""

from __future__ import annotations

import dataclasses
import math
import queue
import threading
import time
import traceback
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence

from repro.experiments.runner import CACHE
from repro.experiments.scheduler import EvaluationRequest, EvaluationScheduler

#: Default coalescing window in seconds: long enough that a burst of
#: concurrent clients lands in one scheduler pass, short enough to be
#: invisible next to any cold evaluation.  Only tickets with a cold cell
#: wait it; fully warm tickets are answered at submit.
DEFAULT_BATCH_WINDOW = 0.05


class ServiceError(RuntimeError):
    """An evaluation pass failed; the ticket's ``error`` event carries why."""


class ServiceClosed(RuntimeError):
    """submit() after close(): the service no longer accepts work."""


#: Queue sentinel that tells the service loop to exit.
_SHUTDOWN = object()


class Ticket:
    """One client's view of a submitted batch: a private event stream.

    A fully warm batch's ticket is already finished when ``submit``
    returns; its events wait in the stream.

    Events are plain JSON-ready dicts:

    ``{"event": "cell", "workload": ..., "kernel": ..., "y": ...,
    "source": "memo" | "store" | "computed"}``
        One of this ticket's cells is ready (duplicates across coalesced
        tickets fire once *per subscribed ticket*).

    ``{"event": "done", "schedule": {...ScheduleStats fields...}}``
        The pass covering this ticket finished; every cell is warm in the
        process memo.  Terminal.

    ``{"event": "error", "detail": traceback}``
        The pass died; nothing about this ticket's cells is guaranteed.
        Terminal.
    """

    def __init__(self, requests: Sequence[EvaluationRequest]):
        self.requests: List[EvaluationRequest] = list(requests)
        self._events: "queue.SimpleQueue[dict]" = queue.SimpleQueue()

    def _emit(self, event: dict) -> None:
        self._events.put(event)

    def events(self) -> Iterator[dict]:
        """Yield events as they arrive, ending after ``done``/``error``."""
        while True:
            event = self._events.get()
            yield event
            if event["event"] in ("done", "error"):
                return

    def wait(self) -> dict:
        """Block until the pass finishes; return the ``done`` event.

        Raises :class:`ServiceError` if the pass failed.  Cell events are
        consumed and discarded — use :meth:`events` to observe them.
        """
        last = {}
        for event in self.events():
            last = event
        if last.get("event") == "error":
            raise ServiceError(last.get("detail", "evaluation pass failed"))
        return last


@dataclass
class ServiceCounters:
    """Lifetime totals of one service (the ``/stats`` endpoint's payload).

    ``coalesced`` counts duplicate cells merged away *across tickets of one
    pass*; ``memo_hits``/``store_hits``/``computed`` partition each pass's
    unique cells by where they were served from.
    """

    passes: int = 0
    tickets: int = 0
    requests: int = 0
    coalesced: int = 0
    memo_hits: int = 0
    store_hits: int = 0
    computed: int = 0

    @property
    def unique_cells(self) -> int:
        return self.requests - self.coalesced

    @property
    def warm_hit_rate(self) -> float:
        """Fraction of unique cells served without evaluating anything."""
        if self.unique_cells == 0:
            return 0.0
        return (self.memo_hits + self.store_hits) / self.unique_cells

    def to_jsonable(self) -> dict:
        payload = dataclasses.asdict(self)
        payload["unique_cells"] = self.unique_cells
        payload["warm_hit_rate"] = self.warm_hit_rate
        return payload


def _cell_event(request: EvaluationRequest, source: str) -> dict:
    return {
        "event": "cell",
        "workload": request.workload,
        "kernel": request.kernel,
        "y": request.overbooking_target,
        "source": source,
    }


class EvaluationService:
    """The coalescing funnel in front of one shared scheduler (see module
    docstring).

    Parameters
    ----------
    store:
        Optional shared :class:`~repro.experiments.store.ReportStore`; when
        given, every pass consults it before evaluating and persists what it
        computes (the scheduler's usual durable tier, now fleet-shared).
    max_workers:
        Forwarded to the underlying scheduler.
    batch_window:
        Seconds the loop waits after the first ticket of a pass for more
        tickets to coalesce with it (fully warm tickets never queue).
        ``0`` disables waiting (each pass takes whatever is queued at that
        instant); a negative or non-finite window raises
        :class:`ValueError`.
    auto_start:
        ``False`` leaves the loop unstarted; tests then drive passes
        deterministically with :meth:`step`.
    """

    def __init__(self, *, store=None, max_workers: Optional[int] = None,
                 batch_window: float = DEFAULT_BATCH_WINDOW,
                 auto_start: bool = True):
        batch_window = float(batch_window)
        if not (math.isfinite(batch_window) and batch_window >= 0):
            raise ValueError("the batch window must be a finite number of "
                             f"seconds >= 0, got {batch_window}")
        self.store = store
        self.scheduler = EvaluationScheduler(
            max_workers=max_workers, store=store)
        self.batch_window = batch_window
        self.counters = ServiceCounters()
        self._queue: "queue.Queue" = queue.Queue()
        self._lock = threading.Lock()
        self._closed = False
        self._drain = True
        self._thread: Optional[threading.Thread] = None
        if auto_start:
            self.start()

    # ------------------------------------------------------------------ #
    # Client side
    # ------------------------------------------------------------------ #
    def submit(self, requests: Sequence[EvaluationRequest]) -> Ticket:
        """Answer a fully warm batch now, as a one-ticket pass in the
        caller's thread; queue any other batch for the next coalesced
        pass.  Returns its ticket."""
        ticket = Ticket(requests)
        with self._lock:
            if self._closed:
                raise ServiceClosed("evaluation service is shut down")
            warm = all(request.memo_key in CACHE.reports
                       for request in ticket.requests)
            if not warm:
                self._queue.put(ticket)
        if warm:
            self._run_pass([ticket])
        return ticket

    def stats(self) -> dict:
        """Counters for the ``/stats`` endpoint (service + store session)."""
        with self._lock:
            payload = self.counters.to_jsonable()
        if self.store is not None:
            session = self.store.session
            payload["store_session"] = {
                "hits": session.hits,
                "misses": session.misses,
                "writes": session.writes,
                "quarantined": session.quarantined,
            }
        return payload

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> None:
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._loop, name="evaluation-service", daemon=True)
            self._thread.start()

    def close(self, *, drain: bool = True) -> None:
        """Stop the service.  ``drain=True`` finishes every queued ticket
        first; ``False`` fails them fast with an ``error`` event.  New
        :meth:`submit` calls raise :class:`ServiceClosed` either way.  The
        scheduler's worker pool is shut down last.  Idempotent."""
        with self._lock:
            if self._closed:
                already = True
            else:
                already = False
                self._closed = True
                self._drain = drain
        if already:
            return
        self._queue.put(_SHUTDOWN)
        if self._thread is not None:
            self._thread.join()
        else:
            # Never started (auto_start=False): settle the queue in-line so
            # close() keeps its drain contract without a loop thread.
            self._settle_queue(drain)
        self.scheduler.close()

    # ------------------------------------------------------------------ #
    # The service loop
    # ------------------------------------------------------------------ #
    def _loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is _SHUTDOWN:
                self._settle_queue(self._drain)
                return
            batch = [item]
            stop_after = False
            deadline = time.monotonic() + self.batch_window
            while True:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                try:
                    extra = self._queue.get(timeout=remaining)
                except queue.Empty:
                    break
                if extra is _SHUTDOWN:
                    stop_after = True
                    break
                batch.append(extra)
            self._run_pass(batch)
            if stop_after:
                self._settle_queue(self._drain)
                return

    def _settle_queue(self, drain: bool) -> None:
        """Process (or fail) every ticket still queued at shutdown."""
        leftover: List[Ticket] = []
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            if item is not _SHUTDOWN:
                leftover.append(item)
        if not leftover:
            return
        if drain:
            self._run_pass(leftover)
        else:
            for ticket in leftover:
                ticket._emit({"event": "error",
                              "detail": "service shut down before this "
                                        "batch ran"})

    def step(self) -> int:
        """Run everything currently queued as one pass (test/manual mode).

        Returns the number of tickets processed.  Only meaningful with
        ``auto_start=False`` — with the loop running, it would race it.
        """
        pending: List[Ticket] = []
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            if item is not _SHUTDOWN:
                pending.append(item)
        if pending:
            self._run_pass(pending)
        return len(pending)

    def _run_pass(self, tickets: List[Ticket]) -> None:
        subscribers: Dict[tuple, List[Ticket]] = {}
        unique: Dict[tuple, EvaluationRequest] = {}
        total = 0
        for ticket in tickets:
            for request in ticket.requests:
                total += 1
                unique.setdefault(request.memo_key, request)
                bucket = subscribers.setdefault(request.memo_key, [])
                if not bucket or bucket[-1] is not ticket:
                    bucket.append(ticket)

        def emit_cell(request: EvaluationRequest, _reports, source: str,
                      ) -> None:
            event = _cell_event(request, source)
            for ticket in subscribers.get(request.memo_key, ()):
                ticket._emit(event)

        # Cells already warm in the process memo are announced immediately —
        # the scheduler never schedules them, so its hook never fires.
        for key, request in unique.items():
            if key in CACHE.reports:
                emit_cell(request, None, "memo")

        try:
            stats = self.scheduler.prefetch(
                list(unique.values()),
                on_result=lambda request, reports, source:
                    emit_cell(request, reports, source))
        except Exception:  # noqa: BLE001 - fail every coalesced ticket
            detail = traceback.format_exc()
            for ticket in tickets:
                ticket._emit({"event": "error", "detail": detail})
            return

        with self._lock:
            self.counters.passes += 1
            self.counters.tickets += len(tickets)
            self.counters.requests += total
            self.counters.coalesced += total - len(unique)
            self.counters.memo_hits += stats.warm
            self.counters.store_hits += stats.store_hits
            self.counters.computed += stats.computed

        schedule = dataclasses.asdict(stats)
        for ticket in tickets:
            ticket._emit({"event": "done", "schedule": schedule})
