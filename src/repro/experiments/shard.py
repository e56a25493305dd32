"""Fault-tolerant cooperative sweeps: shard, claim, crash, reclaim, merge.

:func:`repro.experiments.sweep.sweep_grid` evaluates a grid in one process.
This module turns the same grid into a *cooperative* job that any number of
workers — on one machine or many sharing a filesystem — can chew through
together, where any worker can be ``kill -9``'d at any moment and the job
still converges to artifacts **byte-identical** to a serial run:

* **Deterministic partitioning.**  Every grid cell (an
  :class:`~repro.experiments.scheduler.EvaluationRequest`) hashes to a shard
  via its content digest (:func:`shard_of`), so ``sweep --shard i/N``
  workers agree on the split without talking to each other, regardless of
  start order or how many of them ever start.
* **Lease-based claiming.**  Before evaluating a cell, a worker claims it by
  creating an atomic *lease file* under the store's ``leases/`` directory
  (``O_CREAT | O_EXCL`` for a free cell, :func:`os.replace` takeover for an
  expired one).  The lease carries the owner id and a **heartbeat counter**
  renewed by a background thread while the cell evaluates.
* **Crash detection without synchronized clocks.**  Workers never compare
  wall clocks.  An observer watches a lease's heartbeat with its *own*
  monotonic clock: a heartbeat that advances is a live owner; one frozen for
  a full TTL is a dead or wedged owner, and the cell is reclaimed.  A worker
  that is merely slow past TTL gets duplicated, not corrupted: evaluation is
  a pure function of the cell and store writes are atomic last-writer-wins
  with bit-identical content, so duplication is waste, never damage — the
  lease protocol is an *efficiency* layer on a substrate that is already
  correct under races.
* **Work stealing.**  A worker that finishes its own shard scans the rest of
  the grid and claims whatever is unclaimed or expired, so an interrupted
  10-worker sweep resumed by any subset of workers still finishes.
* **Merge/status.**  :func:`merge_shards` verifies the published grid
  manifest and that every cell landed, then assembles the final JSON/CSV
  through the exact :func:`~repro.experiments.sweep.collect_result` path a
  serial sweep uses — byte-identity by construction, with run-dependent
  ephemera stripped by
  :func:`repro.experiments.registry.deterministic_payload`.
  :func:`shard_status` reports progress (stored / leased / missing cells)
  without touching anything.

Failure drills live in :mod:`repro.utils.faults` (``REPRO_FAULTS``): the
kill-resume acceptance test SIGKILLs a worker holding a lease and asserts
the merged bytes anyway; the transient-I/O and corrupt-entry drills assert
the same.
"""

from __future__ import annotations

import itertools
import json
import os
import socket
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.experiments.runner import CACHE
from repro.experiments.scheduler import EvaluationScheduler
from repro.experiments.store import (
    LEASES_DIR,
    ReportStore,
    StoreError,
    key_digest,
)
from repro.experiments.sweep import SweepResult, collect_result, plan_grid
from repro.tensor.suite import WorkloadSuite
from repro.utils import faults
from repro.utils.atomic import atomic_write_json

#: Default lease time-to-live: how long a heartbeat may stay frozen before
#: observers may reclaim the cell.  Generous versus per-cell evaluation time
#: (milliseconds-to-seconds) because a false takeover only duplicates work.
DEFAULT_LEASE_TTL = 30.0

_OWNER_SEQUENCE = itertools.count()


class ShardError(StoreError):
    """A sharded-sweep protocol failure (bad spec, incomplete merge, ...)."""


# --------------------------------------------------------------------- #
# Deterministic partitioning
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class ShardSpec:
    """``--shard i/N``: this worker is shard ``index`` (1-based) of ``count``."""

    index: int
    count: int

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ShardError(f"shard count must be >= 1, got {self.count}")
        if not 1 <= self.index <= self.count:
            raise ShardError(
                f"shard index must be in 1..{self.count}, got {self.index} "
                f"(shards are 1-based: --shard 1/{self.count} .. "
                f"{self.count}/{self.count})")

    @classmethod
    def parse(cls, text: str) -> "ShardSpec":
        index, slash, count = str(text).partition("/")
        try:
            if not slash:
                raise ValueError
            return cls(index=int(index), count=int(count))
        except ValueError:
            raise ShardError(
                f"bad shard spec {text!r}; expected I/N, e.g. 2/4") from None

    @property
    def label(self) -> str:
        return f"{self.index}/{self.count}"


def shard_of(memo_key: tuple, shard_count: int) -> int:
    """The 1-based shard owning ``memo_key`` — a pure function of the cell.

    Derived from the cell's content digest (the same SHA-256 that names its
    store entry), so every worker computes the same assignment and the split
    is insensitive to grid enumeration order.
    """
    return int(key_digest(memo_key)[:8], 16) % shard_count + 1


# --------------------------------------------------------------------- #
# Leases
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class LeaseInfo:
    """Parsed contents of a lease file."""

    owner: str
    heartbeat: int
    claimed_unix: float
    renewed_unix: float


def default_owner() -> str:
    """A worker identity unique across hosts, processes and managers."""
    return (f"{socket.gethostname()}-{os.getpid()}"
            f"-{next(_OWNER_SEQUENCE)}")


class Lease:
    """A successfully claimed cell; renew while working, release when done."""

    def __init__(self, manager: "LeaseManager", memo_key: tuple, path: Path):
        self.manager = manager
        self.memo_key = memo_key
        self.path = path
        self.heartbeat = 0

    def renew(self) -> None:
        """Bump the heartbeat counter and republish the lease atomically.

        A no-op under the ``heartbeat.stall`` fault — the wedged-worker
        drill: the process lives on but observers see a frozen heartbeat
        and reclaim the cell after TTL.
        """
        if faults.active().heartbeat_stalled():
            return
        self.heartbeat += 1
        atomic_write_json(self.path,
                          self.manager._payload(heartbeat=self.heartbeat))

    def release(self) -> None:
        """Drop the claim (idempotent; the cell's store entry, if any, stays)."""
        try:
            os.unlink(self.path)
        except FileNotFoundError:
            pass

    @contextmanager
    def keepalive(self, interval: Optional[float] = None):
        """Renew on a daemon thread for the duration of the ``with`` block."""
        if interval is None:
            interval = max(0.05, self.manager.ttl / 4.0)
        stop = threading.Event()

        def loop() -> None:
            while not stop.wait(interval):
                self.renew()

        thread = threading.Thread(target=loop, daemon=True,
                                  name=f"lease-renew-{self.path.stem[:12]}")
        thread.start()
        try:
            yield self
        finally:
            stop.set()
            thread.join(timeout=5.0)


class LeaseManager:
    """Claim, observe, and reclaim per-cell leases under ``<store>/leases/``.

    Parameters
    ----------
    store_root:
        The report store's root directory (leases live beside ``objects/``).
    owner:
        This worker's identity, written into every lease it holds.
    ttl:
        Seconds a heartbeat may stay frozen (as measured by *this* process's
        monotonic clock) before the lease counts as expired.
    clock:
        Monotonic time source — injectable so expiry tests run on a fake
        clock instead of sleeping.
    """

    def __init__(self, store_root, *, owner: Optional[str] = None,
                 ttl: float = DEFAULT_LEASE_TTL,
                 clock: Callable[[], float] = time.monotonic):
        self.root = Path(store_root) / LEASES_DIR
        self.owner = owner or default_owner()
        self.ttl = float(ttl)
        self.clock = clock
        #: Per-lease observation: (heartbeat, first seen at that heartbeat,
        #: ever seen advancing).  All times are this process's clock.
        self._seen: Dict[Path, Tuple[int, float, bool]] = {}
        #: Expired leases this manager took over (for run statistics).
        self.reclaimed = 0

    def path_for(self, memo_key: tuple) -> Path:
        return self.root / f"{key_digest(memo_key)}.json"

    def _payload(self, heartbeat: int) -> dict:
        # Wall-clock fields are informational (status displays); the
        # protocol itself never compares clocks across processes.
        now_unix = time.time()
        return {"owner": self.owner, "heartbeat": int(heartbeat),
                "claimed_unix": now_unix, "renewed_unix": now_unix}

    def read(self, memo_key: tuple) -> Optional[LeaseInfo]:
        """The current lease on a cell, or ``None`` (malformed == absent)."""
        try:
            payload = json.loads(self.path_for(memo_key).read_text())
            return LeaseInfo(owner=str(payload["owner"]),
                             heartbeat=int(payload["heartbeat"]),
                             claimed_unix=float(payload.get("claimed_unix", 0)),
                             renewed_unix=float(payload.get("renewed_unix", 0)))
        except (OSError, ValueError, KeyError, TypeError):
            return None

    def state(self, memo_key: tuple) -> str:
        """Observe a cell's lease: ``free``/``mine``/``held-alive``/
        ``held-unknown``/``expired``.

        ``held-unknown`` is a lease whose heartbeat we have not yet watched
        for long enough to judge; re-observing resolves it to ``held-alive``
        (heartbeat advanced) or ``expired`` (frozen for a full TTL).
        """
        path = self.path_for(memo_key)
        info = self.read(memo_key)
        if info is None:
            self._seen.pop(path, None)
            return "free"
        if info.owner == self.owner:
            return "mine"
        now = self.clock()
        previous = self._seen.get(path)
        if previous is None:
            self._seen[path] = (info.heartbeat, now, False)
            return "held-unknown"
        seen_heartbeat, since, advanced = previous
        if info.heartbeat != seen_heartbeat:
            self._seen[path] = (info.heartbeat, now, True)
            return "held-alive"
        if now - since >= self.ttl:
            return "expired"
        return "held-alive" if advanced else "held-unknown"

    def try_claim(self, memo_key: tuple) -> Optional[Lease]:
        """Claim a cell if it is free or expired; ``None`` if someone holds it.

        Free cells are claimed with ``O_CREAT | O_EXCL`` (exactly one racing
        claimer wins).  Expired cells are taken over with an atomic
        :func:`os.replace` and then *read back*: last writer wins, so the
        read-back tells each racer whether it actually owns the lease now.
        """
        path = self.path_for(memo_key)
        self.root.mkdir(parents=True, exist_ok=True)
        state = self.state(memo_key)
        if state in ("held-alive", "held-unknown"):
            return None
        if state == "free" and not path.exists():
            payload = self._payload(heartbeat=0)
            try:
                descriptor = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                return None  # a racing claimer won; observe it next round
            with os.fdopen(descriptor, "w") as handle:
                json.dump(payload, handle, indent=1)
                handle.write("\n")
                handle.flush()
                os.fsync(handle.fileno())
        else:
            # Expired, malformed-on-disk ("free" but the file exists — a
            # torn lease write must not block the cell forever), or a stale
            # "mine" from a previous incarnation: atomic takeover.
            atomic_write_json(path, self._payload(heartbeat=0))
            confirmation = self.read(memo_key)
            if confirmation is None or confirmation.owner != self.owner:
                return None  # another reclaimer replaced us; theirs now
            if state == "expired":
                self.reclaimed += 1
        self._seen.pop(path, None)
        return Lease(self, memo_key, path)


# --------------------------------------------------------------------- #
# The shard worker
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class ShardRunStats:
    """What one shard worker did (run-dependent — never in artifacts)."""

    shard_index: int
    shard_count: int
    grid_cells: int
    own_cells: int
    own_stored_at_start: int
    evaluated: int
    stolen: int
    reclaimed_leases: int
    left_to_peers: int
    signature: str


def run_shard(suite: WorkloadSuite, *, shard, store: ReportStore,
              lease_ttl: float = DEFAULT_LEASE_TTL,
              poll_interval: Optional[float] = None,
              steal: bool = True,
              owner: Optional[str] = None,
              clock: Callable[[], float] = time.monotonic,
              sleep: Callable[[float], None] = time.sleep,
              **grid) -> ShardRunStats:
    """Run one worker of a cooperative sharded sweep.

    ``grid`` holds the grid-shaping keyword arguments of
    :func:`~repro.experiments.sweep.plan_grid` — every worker (and the final
    ``merge``) must be launched with the same ones.  ``shard`` is a
    :class:`ShardSpec` or an ``"i/N"`` string.

    The worker publishes the grid manifest (idempotently — every worker
    writes the same bytes), evaluates the cells :func:`shard_of` assigns to
    it, then — with ``steal=True`` — claims any remaining cell whose lease
    is absent or expired, polling until every outstanding cell is stored or
    visibly owned by a live peer.  Results are persisted per cell, so a
    worker dying at any instant loses at most the cell it was computing.

    Cells are evaluated through the per-``(kernel, workload)`` vectorized
    evaluator (:mod:`repro.model.batch`), sharing tiling work across a
    workload's cells, while the claim → heartbeat → evaluate → store →
    release protocol stays strictly per cell, so lease semantics (and the
    fault drills that pin them down) are unchanged.

    ``clock``/``sleep``/``poll_interval``/``owner`` are injection points for
    deterministic tests; real deployments leave them defaulted.
    """
    spec = ShardSpec.parse(shard) if not isinstance(shard, ShardSpec) else shard
    if store is None:
        raise ValueError("run_shard requires a store: the store *is* the "
                         "coordination substrate (CLI: --shard needs --store)")
    plan = plan_grid(suite, **grid)
    store.write_manifest(plan.signature, plan.manifest_payload("in-progress"))

    cells = plan.unique_requests
    own = [request for request in cells
           if shard_of(request.memo_key, spec.count) == spec.index]
    own_keys = {request.memo_key for request in own}
    own_stored_at_start = sum(
        1 for request in own if store.contains(request.memo_key))

    manager = LeaseManager(store.root, owner=owner, ttl=lease_ttl,
                           clock=clock)
    poll = (poll_interval if poll_interval is not None
            else max(0.05, lease_ttl / 5.0))
    injector = faults.active()
    counters = {"evaluated": 0, "stolen": 0}

    def process(requests: List) -> List:
        """Claim-and-evaluate each request; return the unclaimable ones."""
        pending = []
        for request in requests:
            if store.contains(request.memo_key):
                continue
            lease = manager.try_claim(request.memo_key)
            if lease is None:
                pending.append(request)
                continue
            # The kill drill fires *here*: the worker dies holding the
            # lease, before any result reaches the store.
            injector.count_claimed_cell()
            try:
                with lease.keepalive():
                    store.store(request.memo_key,
                                CACHE.evaluate(request.memo_key, plan.suite))
            finally:
                lease.release()
            counters["evaluated"] += 1
            if request.memo_key not in own_keys:
                counters["stolen"] += 1
        return pending

    remaining = process(own)
    if steal:
        remaining = [request for request in cells
                     if not store.contains(request.memo_key)]
    while remaining:
        remaining = process(remaining)
        remaining = [request for request in remaining
                     if not store.contains(request.memo_key)]
        if not remaining:
            break
        undecided = [request for request in remaining
                     if manager.state(request.memo_key) != "held-alive"]
        if not undecided:
            # Every outstanding cell is visibly owned by a live peer:
            # leave the work to them and exit — merge runs once all
            # workers have.
            break
        sleep(poll)

    outstanding = sum(1 for request in cells
                      if not store.contains(request.memo_key))
    return ShardRunStats(
        shard_index=spec.index,
        shard_count=spec.count,
        grid_cells=len(cells),
        own_cells=len(own),
        own_stored_at_start=own_stored_at_start,
        evaluated=counters["evaluated"],
        stolen=counters["stolen"],
        reclaimed_leases=manager.reclaimed,
        left_to_peers=outstanding,
        signature=plan.signature,
    )


def format_shard_stats(stats: ShardRunStats) -> str:
    """One-paragraph stderr summary of a shard worker's run."""
    lines = [
        f"shard {stats.shard_index}/{stats.shard_count}: "
        f"{stats.own_cells} of {stats.grid_cells} grid cell(s) assigned "
        f"({stats.own_stored_at_start} already stored)",
        f"  evaluated {stats.evaluated} cell(s)"
        + (f" ({stats.stolen} stolen from other shards)"
           if stats.stolen else ""),
    ]
    if stats.reclaimed_leases:
        lines.append(f"  reclaimed {stats.reclaimed_leases} expired "
                     f"lease(s) from dead/wedged worker(s)")
    if stats.left_to_peers:
        lines.append(f"  left {stats.left_to_peers} cell(s) to live peer(s) "
                     f"— run 'merge' once all workers exit")
    else:
        lines.append(f"  grid complete in store; run 'merge' to write "
                     f"artifacts (manifest {stats.signature})")
    return "\n".join(lines)


# --------------------------------------------------------------------- #
# Status & merge
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class LeaseView:
    """One outstanding lease, as seen by ``status`` (wall-clock age is
    informational only — the protocol never compares clocks)."""

    workload: str
    kernel: str
    overbooking_target: float
    owner: str
    heartbeat: int
    renewed_age_seconds: float


@dataclass(frozen=True)
class ShardStatus:
    """Progress of a sharded grid: what is done, claimed, and missing."""

    signature: str
    manifest_status: Optional[str]
    cells: int
    stored: int
    missing: int
    leases: List[LeaseView] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        return self.missing == 0


def shard_status(suite: WorkloadSuite, *, store: ReportStore,
                 **grid) -> ShardStatus:
    """Inspect a sharded grid's progress without evaluating or claiming
    (``grid``: the keyword arguments of
    :func:`~repro.experiments.sweep.plan_grid`)."""
    plan = plan_grid(suite, **grid)
    manifest = store.read_manifest(plan.signature)
    manager = LeaseManager(store.root, owner="status-observer")
    cells = plan.unique_requests
    stored = 0
    leases: List[LeaseView] = []
    now_unix = time.time()
    for request in cells:
        if store.contains(request.memo_key):
            stored += 1
            continue
        info = manager.read(request.memo_key)
        if info is not None:
            leases.append(LeaseView(
                workload=request.workload,
                kernel=request.kernel,
                overbooking_target=request.overbooking_target,
                owner=info.owner,
                heartbeat=info.heartbeat,
                renewed_age_seconds=max(0.0, now_unix - info.renewed_unix),
            ))
    return ShardStatus(
        signature=plan.signature,
        manifest_status=(manifest or {}).get("status"),
        cells=len(cells),
        stored=stored,
        missing=len(cells) - stored,
        leases=leases,
    )


def format_status(status: ShardStatus) -> str:
    """Human-readable rendering of :func:`shard_status`."""
    manifest = status.manifest_status or "absent (no sweep/shard has run?)"
    lines = [
        f"grid {status.signature}: manifest {manifest}",
        f"  cells   : {status.stored}/{status.cells} stored, "
        f"{status.missing} missing",
    ]
    for lease in status.leases:
        lines.append(
            f"  leased  : {lease.kernel}/{lease.workload} "
            f"y={lease.overbooking_target:g} by {lease.owner} "
            f"(heartbeat {lease.heartbeat}, renewed "
            f"{lease.renewed_age_seconds:.1f}s ago by wall clock)")
    if status.complete:
        lines.append("  ready to merge")
    return "\n".join(lines)


def merge_shards(suite: WorkloadSuite, *, store: ReportStore,
                 **grid) -> SweepResult:
    """Assemble a completed sharded grid into its final :class:`SweepResult`
    (``grid``: the keyword arguments of
    :func:`~repro.experiments.sweep.plan_grid`).

    Verifies the grid manifest exists and agrees with the planned cell
    count, and that *every* cell is present in the store — refusing (with a
    :class:`ShardError` naming the gap) rather than silently recomputing or
    emitting a partial artifact.  Assembly then runs the exact serial path
    (:func:`~repro.experiments.sweep.collect_result` over store-served
    reports), so the JSON/CSV bytes match a single-process sweep exactly.
    """
    plan = plan_grid(suite, **grid)
    manifest = store.read_manifest(plan.signature)
    if manifest is None:
        raise ShardError(
            f"no manifest for this grid in {store.root} (expected "
            f"manifests/{plan.signature}.json) — was any sweep/shard worker "
            f"run against this store with the same grid arguments?")
    if manifest.get("cells") != len(plan.requests):
        raise ShardError(
            f"manifest {plan.signature} records {manifest.get('cells')} "
            f"cell(s) but these grid arguments plan {len(plan.requests)} — "
            f"merge must be invoked with the workers' exact grid")
    missing = [request for request in plan.unique_requests
               if not store.contains(request.memo_key)]
    if missing:
        preview = ", ".join(
            f"{request.kernel}/{request.workload}"
            f"@y={request.overbooking_target:g}"
            for request in missing[:5])
        raise ShardError(
            f"{len(missing)} of {len(plan.unique_requests)} grid cell(s) "
            f"missing from the store (e.g. {preview}) — run more shard "
            f"workers (or rerun any worker; it will steal the remainder), "
            f"then merge again; 'status' shows who holds what")

    scheduler = EvaluationScheduler(max_workers=1, store=store)
    reports: Dict[tuple, dict] = {}
    stats = scheduler.prefetch(list(plan.requests), into=reports)
    store.write_manifest(plan.signature, plan.manifest_payload(
        "complete", computed=stats.computed, store_hits=stats.store_hits))
    return collect_result(plan, stats, reports)
