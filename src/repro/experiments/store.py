"""Content-addressed on-disk report store: durable, resumable evaluation.

Every evaluation in this codebase is a *pure function* of its identity — the
``(suite token, architecture, overbooking target, kernel, workload)`` tuple
that already keys the process-wide report memo and the scheduler's
:class:`~repro.experiments.scheduler.EvaluationRequest`.  The memo makes
repeated contexts free *within* a process; this module makes them free
*across* processes and crashes:

* **Content-addressed layout.**  Each entry lives at
  ``<root>/objects/<aa>/<digest>.json`` where ``digest`` is the SHA-256 of
  the canonical JSON encoding of the evaluation identity.  Two runs that
  evaluate the same thing — today, tomorrow, on another machine with the
  same seeds — address the same file; nothing is ever stored twice.
* **Atomic writes.**  Entries are written to a unique temporary file in the
  same directory and published with :func:`os.replace`, so concurrent
  writers (scheduler workers, parallel sweeps sharing one store) can race on
  the same key and readers never observe a torn file.  Last writer wins with
  bit-identical content, because the content is a function of the key.
* **Versioned schema.**  Entries and the store marker both carry
  ``schema_version``; loading an entry written under a different schema
  raises :class:`StoreSchemaError` instead of silently misreading it
  (``python -m repro store gc`` prunes such entries).
* **Corrupt entries are quarantined, never fatal.**  An entry that does not
  parse or decode (torn write that beat ``os.replace``, bit rot, a truncated
  copy) is atomically sidelined into ``<root>/quarantine/`` and treated as a
  cache *miss* — the key is simply re-evaluated and re-stored.  ``python -m
  repro store verify`` scans the whole store for such entries up front (and
  ``--clear`` empties the quarantine).
* **Transient I/O is retried.**  Reads and writes go through
  :func:`repro.utils.retry.retry_transient` (exponential backoff, seeded
  jitter), so a filesystem hiccup costs milliseconds instead of a sweep.
* **Exact round-trips.**  Reports serialize field-by-field with Python's
  shortest-repr float encoding, so ``report -> disk -> report`` reproduces
  every float bit-for-bit — golden tests pin the round-trip to 1e-9 and the
  resumable sweep relies on it for byte-identical artifacts.

The scheduler consults the store before dispatching work and persists each
request's reports the moment they arrive (see
:meth:`~repro.experiments.scheduler.EvaluationScheduler.prefetch`), which is
what makes ``python -m repro sweep --store DIR --resume`` recompute only the
grid cells a crashed run never finished.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, Optional

import numpy as np

from repro.accelerator.config import ArchitectureConfig
from repro.energy.accelergy import EnergyReport
from repro.model.stats import PerformanceReport, TrafficBreakdown
from repro.model.traffic import LevelTraffic
from repro.utils import faults
from repro.utils.retry import retry_transient

#: Bump when the entry layout (key payload or report encoding) changes in a
#: way old readers would misinterpret.  ``store gc`` prunes mismatched
#: entries; ``load`` refuses them.
SCHEMA_VERSION = 1

#: Name of the store marker file at the store root.
MARKER_NAME = "store.json"

#: Subdirectory holding the content-addressed entries.
OBJECTS_DIR = "objects"

#: Subdirectory holding sweep/search run manifests (see repro.experiments.sweep).
MANIFESTS_DIR = "manifests"

#: Subdirectory corrupt entries are sidelined into (see ``store verify``).
QUARANTINE_DIR = "quarantine"

#: Subdirectory holding shard work-claim leases (see repro.experiments.shard).
LEASES_DIR = "leases"

#: How old (seconds since last modification) a leftover ``*.tmp*`` file must
#: be before :meth:`ReportStore.gc` reaps it.  A temp file younger than this
#: may belong to a *live* writer between its write and its ``os.replace`` —
#: unlinking it would fail that write out from under the writer (and the
#: retry layer would misreport the resulting ``FileNotFoundError`` burst as
#: transient I/O).  Genuinely orphaned temp files (a writer that died) age
#: past the grace period and are collected by the next gc.
TMP_GRACE_SECONDS = 60.0


class StoreError(RuntimeError):
    """Base class for report-store failures."""


class StoreSchemaError(StoreError):
    """An entry (or the store itself) was written under another schema."""


# --------------------------------------------------------------------- #
# Canonical key encoding
# --------------------------------------------------------------------- #
def _plain(value):
    """Recursively convert a memo-key component into plain JSON-able data."""
    if isinstance(value, ArchitectureConfig):
        return {"__architecture__": dataclasses.asdict(value)}
    if isinstance(value, (tuple, list)):
        return [_plain(item) for item in value]
    if isinstance(value, np.generic):
        return value.item()
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    raise TypeError(f"cannot canonicalize key component {value!r} "
                    f"of type {type(value).__name__}")


def key_payload(memo_key: tuple) -> dict:
    """The canonical JSON payload of an evaluation identity.

    ``memo_key`` is the 5-tuple the report memo and the scheduler use:
    ``(suite token, architecture, overbooking target, kernel, workload)``.
    The payload is what gets hashed for the entry path and recorded inside
    the entry for inspection (``store stats``) and garbage collection.
    """
    suite_token, architecture, target, kernel, workload = memo_key
    return {
        "suite_token": _plain(suite_token),
        "architecture": dataclasses.asdict(architecture),
        "overbooking_target": float(target),
        "kernel": str(kernel),
        "workload": str(workload),
    }


def key_digest(memo_key: tuple) -> str:
    """SHA-256 content address of an evaluation identity (hex)."""
    canonical = json.dumps(key_payload(memo_key), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# --------------------------------------------------------------------- #
# Report (de)serialization — exact float round-trips
# --------------------------------------------------------------------- #
def encode_report(report: PerformanceReport) -> dict:
    """Encode one report as plain JSON data (floats via shortest repr)."""
    return {
        "workload": report.workload,
        "variant": report.variant,
        "cycles": float(report.cycles),
        "energy": {key: float(value)
                   for key, value in report.energy.per_component_pj.items()},
        "traffic": {
            level_name: {
                "level": level.level,
                "stationary_reads": float(level.stationary_reads),
                "stationary_baseline": float(level.stationary_baseline),
                "streaming_reads": float(level.streaming_reads),
                "output_writes": float(level.output_writes),
            }
            for level_name, level in (("dram", report.traffic.dram),
                                      ("global_buffer",
                                       report.traffic.global_buffer))
        },
        "effectual_multiplies": int(report.effectual_multiplies),
        "output_nonzeros": int(report.output_nonzeros),
        "glb_block_rows": int(report.glb_block_rows),
        "glb_overbooking_rate": float(report.glb_overbooking_rate),
        "glb_utilization": float(report.glb_utilization),
        "bumped_fraction": float(report.bumped_fraction),
        "data_reuse_fraction": float(report.data_reuse_fraction),
        "tiling_tax_elements": float(report.tiling_tax_elements),
        "bound": report.bound,
        "details": {key: float(value)
                    for key, value in report.details.items()},
        "kernel": report.kernel,
    }


def decode_report(payload: dict) -> PerformanceReport:
    """Rebuild a :class:`PerformanceReport` encoded by :func:`encode_report`."""
    def level(name: str) -> LevelTraffic:
        data = payload["traffic"][name]
        return LevelTraffic(
            level=data["level"],
            stationary_reads=data["stationary_reads"],
            stationary_baseline=data["stationary_baseline"],
            streaming_reads=data["streaming_reads"],
            output_writes=data["output_writes"],
        )

    return PerformanceReport(
        workload=payload["workload"],
        variant=payload["variant"],
        cycles=payload["cycles"],
        energy=EnergyReport(per_component_pj=dict(payload["energy"])),
        traffic=TrafficBreakdown(dram=level("dram"),
                                 global_buffer=level("global_buffer")),
        effectual_multiplies=payload["effectual_multiplies"],
        output_nonzeros=payload["output_nonzeros"],
        glb_block_rows=payload["glb_block_rows"],
        glb_overbooking_rate=payload["glb_overbooking_rate"],
        glb_utilization=payload["glb_utilization"],
        bumped_fraction=payload["bumped_fraction"],
        data_reuse_fraction=payload["data_reuse_fraction"],
        tiling_tax_elements=payload["tiling_tax_elements"],
        bound=payload["bound"],
        details=dict(payload["details"]),
        kernel=payload["kernel"],
    )


# --------------------------------------------------------------------- #
# Statistics containers
# --------------------------------------------------------------------- #
@dataclass
class SessionStats:
    """What *this* :class:`ReportStore` instance did (in-memory counters).

    ``quarantined`` counts corrupt entries this instance sidelined (each was
    also a miss); ``io_retries`` counts transient I/O errors absorbed by the
    retry wrapper — run-dependent *ephemera*, never part of any artifact.
    """

    hits: int = 0
    misses: int = 0
    writes: int = 0
    quarantined: int = 0
    io_retries: int = 0


@dataclass(frozen=True)
class StoreStats:
    """On-disk state of a store, from a full scan (``store stats``).

    ``skipped`` counts entries that vanished between being listed and being
    read — a concurrent ``gc`` or quarantine move on a *live* store; the
    scan tolerates and reports them instead of crashing.
    """

    entries: int
    total_bytes: int
    reports: int
    kernels: Dict[str, int]
    workloads: int
    schema_versions: Dict[str, int]
    manifests: int
    quarantined: int = 0
    skipped: int = 0


@dataclass(frozen=True)
class VerifyStats:
    """Outcome of one ``store verify`` pass.

    ``quarantined`` counts entries sidelined by *this* pass;
    ``quarantine_backlog`` is what sits in ``quarantine/`` afterwards
    (``--clear`` empties it, reported as ``cleared``).  ``stale_schema``
    entries are readable-but-old: left in place for ``store gc``.
    """

    scanned: int
    ok: int
    quarantined: int
    stale_schema: int
    quarantine_backlog: int
    cleared: int
    skipped: int = 0


@dataclass(frozen=True)
class GcStats:
    """Outcome of one ``store gc`` pass.

    ``skipped`` counts paths that vanished mid-pass (a racing gc/quarantine
    on a live store) plus temp files left alone because they are younger
    than the grace period — i.e. possibly a live writer's in-flight file.
    """

    scanned: int
    removed_entries: int
    removed_temp_files: int
    reclaimed_bytes: int
    kept: int
    skipped: int = 0


# --------------------------------------------------------------------- #
# The store
# --------------------------------------------------------------------- #
@dataclass
class ReportStore:
    """Content-addressed persistent store of per-variant report dicts.

    Parameters
    ----------
    root:
        Directory the store lives in.  Created (with a schema marker) on
        first use; an existing marker with a different ``schema_version``
        raises :class:`StoreSchemaError` immediately rather than on first
        read.
    check_marker:
        Pass ``False`` to open a store whose marker disagrees with this
        build's schema — only :meth:`gc` (which prunes the unreadable
        entries and refreshes the marker) should do this.
    create:
        Pass ``False`` to refuse to open a directory that is not already a
        store (no marker): inspection commands (``store stats`` /
        ``store gc``) use this so a mistyped ``--store`` path errors
        instead of silently initializing an empty store there.
    """

    root: Path
    check_marker: bool = True
    create: bool = True
    session: SessionStats = field(default_factory=SessionStats)

    def __post_init__(self) -> None:
        self.root = Path(self.root)
        marker = self.root / MARKER_NAME
        if not marker.exists() and not self.create:
            raise StoreError(
                f"no report store at {self.root} (missing {MARKER_NAME}); "
                f"check the --store path — stores are created by the first "
                f"run/sweep/search that writes to one")
        if marker.exists():
            meta = json.loads(marker.read_text())
            version = meta.get("schema_version")
            if version != SCHEMA_VERSION and self.check_marker:
                raise StoreSchemaError(
                    f"store at {self.root} uses schema {version!r}; this "
                    f"build reads schema {SCHEMA_VERSION} — run "
                    f"'python -m repro store gc --store {self.root}' to "
                    f"prune entries this build cannot read, or point "
                    f"--store at a fresh directory")
        else:
            (self.root / OBJECTS_DIR).mkdir(parents=True, exist_ok=True)
            (self.root / MANIFESTS_DIR).mkdir(parents=True, exist_ok=True)
            _atomic_write_json(marker, {
                "schema_version": SCHEMA_VERSION,
                "created_unix": time.time(),
            })

    # ------------------------------------------------------------------ #
    # Paths
    # ------------------------------------------------------------------ #
    def path_for(self, memo_key: tuple) -> Path:
        """The entry path of an evaluation identity (may not exist yet)."""
        digest = key_digest(memo_key)
        return self.root / OBJECTS_DIR / digest[:2] / f"{digest}.json"

    def manifest_path(self, name: str) -> Path:
        """Path of a run manifest (sweep/search progress records)."""
        return self.root / MANIFESTS_DIR / f"{name}.json"

    # ------------------------------------------------------------------ #
    # Read / write
    # ------------------------------------------------------------------ #
    def contains(self, memo_key: tuple) -> bool:
        return self.path_for(memo_key).exists()

    def load(self, memo_key: tuple) -> Optional[Dict[str, PerformanceReport]]:
        """The stored per-variant reports for ``memo_key``, or ``None``.

        Never crashes on a *corrupt* entry (torn/truncated/mangled bytes, or
        JSON that does not decode back into reports): the file is atomically
        quarantined under ``quarantine/`` and the key is reported as a miss,
        so callers simply re-evaluate and re-store it.  Transient
        :class:`OSError`\\ s from the filesystem are retried with backoff.
        Raises :class:`StoreSchemaError` only for *well-formed* entries
        written under a different schema version — a deliberate upgrade
        condition that ``store gc`` resolves, not a fault.
        """
        return self._load_entry(self.path_for(memo_key))

    def load_many(self, memo_keys) -> Dict[tuple, Dict[str, PerformanceReport]]:
        """Batch :meth:`load`: ``{memo_key: reports}`` for every present key.

        Instead of one ``open`` attempt per key, the needed shard
        directories (``objects/<aa>/``) are each scanned **once** with
        ``os.scandir`` — existence is decided for the whole batch up front
        and only the entries actually present are read and decoded.  For the
        bulk lookups the scheduler issues (warm-starting a design-space
        search, resuming a sweep) this turns N mostly-missing probes into a
        handful of directory listings plus the hits.

        Per-key semantics are identical to :meth:`load`: corrupt entries are
        quarantined and treated as misses, entries under another schema
        raise :class:`StoreSchemaError`, and the session hit/miss counters
        advance exactly as N individual loads would advance them.  Keys
        absent from the returned mapping are misses.
        """
        paths: Dict[tuple, Path] = {}
        for memo_key in memo_keys:
            if memo_key not in paths:
                paths[memo_key] = self.path_for(memo_key)
        shards: Dict[Path, set] = {}
        for path in paths.values():
            shards.setdefault(path.parent, set()).add(path.name)

        present: set = set()
        for shard_dir, names in shards.items():
            def scan(shard_dir=shard_dir) -> set:
                faults.active().maybe_raise("store.load")
                try:
                    with os.scandir(shard_dir) as entries:
                        return {entry.name for entry in entries}
                except FileNotFoundError:
                    return set()

            existing = retry_transient(scan, on_retry=self._count_io_retry)
            present.update(shard_dir / name for name in names & existing)

        loaded: Dict[tuple, Dict[str, PerformanceReport]] = {}
        for memo_key, path in paths.items():
            if path not in present:
                self.session.misses += 1
                continue
            # _load_entry re-checks at read time, so a racing quarantine or
            # delete between the scan and the read is still just a miss.
            reports = self._load_entry(path)
            if reports is not None:
                loaded[memo_key] = reports
        return loaded

    def _load_entry(self, path: Path) -> Optional[Dict[str, PerformanceReport]]:
        """Read + decode one entry file (the shared body of ``load``/
        ``load_many``), with quarantine-on-corruption and retry-on-transient
        semantics as documented on :meth:`load`."""

        def read() -> str:
            faults.active().maybe_raise("store.load")
            return path.read_text()

        try:
            raw = retry_transient(read, give_up_on=(FileNotFoundError,),
                                  on_retry=self._count_io_retry)
        except FileNotFoundError:
            self.session.misses += 1
            return None
        try:
            payload = json.loads(raw)
            if not isinstance(payload, dict):
                raise ValueError(f"expected a JSON object, got "
                                 f"{type(payload).__name__}")
        except (json.JSONDecodeError, ValueError) as error:
            self.quarantine_entry(path, reason=str(error))
            self.session.misses += 1
            return None
        version = payload.get("schema_version")
        if version != SCHEMA_VERSION:
            raise StoreSchemaError(
                f"store entry {path} uses schema {version!r}, expected "
                f"{SCHEMA_VERSION}; run 'python -m repro store gc --store "
                f"{self.root}' to prune stale entries")
        try:
            reports = {variant: decode_report(data)
                       for variant, data in payload["reports"].items()}
        except (KeyError, TypeError, ValueError, AttributeError) as error:
            self.quarantine_entry(path, reason=f"undecodable reports "
                                               f"({error!r})")
            self.session.misses += 1
            return None
        self.session.hits += 1
        return reports

    def store(self, memo_key: tuple,
              reports: Dict[str, PerformanceReport]) -> Path:
        """Persist per-variant reports atomically; returns the entry path.

        Transient :class:`OSError`\\ s (full temp write + publish) are
        retried with backoff; the publish itself stays ``os.replace``-atomic
        on every attempt.
        """
        path = self.path_for(memo_key)
        payload = {
            "schema_version": SCHEMA_VERSION,
            "key": key_payload(memo_key),
            "reports": {variant: encode_report(report)
                        for variant, report in reports.items()},
        }
        path.parent.mkdir(parents=True, exist_ok=True)

        def write() -> None:
            faults.active().maybe_raise("store.store")
            _atomic_write_json(path, payload)

        retry_transient(write, on_retry=self._count_io_retry)
        faults.active().maybe_corrupt(path)
        self.session.writes += 1
        return path

    def _count_io_retry(self, error: BaseException, attempt: int) -> None:
        self.session.io_retries += 1

    def quarantine_entry(self, path: Path, *, reason: str) -> Optional[Path]:
        """Atomically sideline a corrupt entry file into ``quarantine/``.

        Returns the quarantine path, or ``None`` when a racing reader beat
        us to it.  One stderr line announces the event — quarantining is
        survivable by design but should never be invisible.
        """
        destination_dir = self.root / QUARANTINE_DIR
        destination_dir.mkdir(parents=True, exist_ok=True)
        destination = destination_dir / path.name
        try:
            os.replace(path, destination)
        except FileNotFoundError:
            return None
        self.session.quarantined += 1
        print(f"[store] quarantined corrupt entry {path.name}: {reason} "
              f"(treated as a miss; inspect/clear with "
              f"'python -m repro store verify --store {self.root}')",
              file=sys.stderr)
        return destination

    def write_manifest(self, name: str, payload: dict) -> Path:
        """Atomically publish a run manifest under ``manifests/``."""
        path = self.manifest_path(name)
        path.parent.mkdir(parents=True, exist_ok=True)
        _atomic_write_json(path, dict(payload, schema_version=SCHEMA_VERSION))
        return path

    def read_manifest(self, name: str) -> Optional[dict]:
        """The manifest published as ``name``, or ``None``."""
        path = self.manifest_path(name)
        if not path.exists():
            return None
        return json.loads(path.read_text())

    # ------------------------------------------------------------------ #
    # Maintenance
    # ------------------------------------------------------------------ #
    def _entry_paths(self) -> Iterator[Path]:
        objects = self.root / OBJECTS_DIR
        if not objects.exists():
            return
        for shard in sorted(objects.iterdir()):
            if shard.is_dir():
                yield from sorted(shard.glob("*.json"))

    def quarantine_paths(self) -> Iterator[Path]:
        quarantine = self.root / QUARANTINE_DIR
        if quarantine.exists():
            yield from sorted(quarantine.glob("*.json"))

    def verify(self, *, clear: bool = False) -> VerifyStats:
        """Scan every entry; quarantine the corrupt, report the rest.

        A full-decode pass over the store (``python -m repro store
        verify``): each entry must parse as JSON, carry the current schema
        version, and decode back into :class:`PerformanceReport`\\ s.
        Entries that fail parse/decode are quarantined exactly as a
        :meth:`load` hitting them would; entries under an *older* schema are
        counted (``stale_schema``) but left for ``store gc``, which owns
        schema migration.  ``clear=True`` empties ``quarantine/`` after the
        scan.
        """
        scanned = ok = quarantined = stale = skipped = 0
        for path in list(self._entry_paths()):
            scanned += 1
            try:
                payload = json.loads(path.read_text())
                if not isinstance(payload, dict):
                    raise ValueError(f"expected a JSON object, got "
                                     f"{type(payload).__name__}")
                if payload.get("schema_version") != SCHEMA_VERSION:
                    stale += 1
                    continue
                for data in payload["reports"].values():
                    decode_report(data)
            except FileNotFoundError:
                # Vanished between listing and reading (a racing gc or
                # quarantine move on a live store): nothing left to verify.
                skipped += 1
                continue
            except (json.JSONDecodeError, KeyError, TypeError, ValueError,
                    AttributeError) as error:
                self.quarantine_entry(path, reason=f"verify: {error!r}")
                quarantined += 1
                continue
            ok += 1
        cleared = 0
        if clear:
            for quarantine_path in list(self.quarantine_paths()):
                try:
                    quarantine_path.unlink()
                except FileNotFoundError:
                    continue
                cleared += 1
        backlog = len(list(self.quarantine_paths()))
        return VerifyStats(scanned=scanned, ok=ok, quarantined=quarantined,
                           stale_schema=stale, quarantine_backlog=backlog,
                           cleared=cleared, skipped=skipped)

    def stats(self) -> StoreStats:
        """Scan the store and summarize what it holds.

        Safe against a concurrently mutating store: entries that vanish
        between being listed and being read (a racing ``gc`` or quarantine
        move) are skipped and counted in :attr:`StoreStats.skipped` instead
        of crashing the scan.
        """
        entries = 0
        total_bytes = 0
        reports = 0
        skipped = 0
        kernels: Dict[str, int] = {}
        workloads = set()
        versions: Dict[str, int] = {}
        for path in self._entry_paths():
            try:
                size = path.stat().st_size
                raw = path.read_text()
            except FileNotFoundError:
                skipped += 1
                continue
            entries += 1
            total_bytes += size
            try:
                payload = json.loads(raw)
            except json.JSONDecodeError:
                versions["corrupt"] = versions.get("corrupt", 0) + 1
                continue
            version = str(payload.get("schema_version"))
            versions[version] = versions.get(version, 0) + 1
            key = payload.get("key", {})
            kernel = key.get("kernel", "?")
            kernels[kernel] = kernels.get(kernel, 0) + 1
            workloads.add((kernel, key.get("workload")))
            reports += len(payload.get("reports", {}))
        manifests = len(list((self.root / MANIFESTS_DIR).glob("*.json"))) \
            if (self.root / MANIFESTS_DIR).exists() else 0
        return StoreStats(
            entries=entries,
            total_bytes=total_bytes,
            reports=reports,
            kernels=kernels,
            workloads=len(workloads),
            schema_versions=versions,
            manifests=manifests,
            quarantined=len(list(self.quarantine_paths())),
            skipped=skipped,
        )

    def gc(self, *, tmp_grace_seconds: float = TMP_GRACE_SECONDS,
           now: Optional[float] = None) -> GcStats:
        """Prune entries this build cannot read, plus *orphaned* temp files.

        Removes entries whose ``schema_version`` differs from
        :data:`SCHEMA_VERSION`, entries that fail to parse, leftover
        ``*.tmp*`` files from interrupted writers, and shard directories
        emptied by the above.

        Safe to run against a *live* store: temp files younger than
        ``tmp_grace_seconds`` are left alone — they may belong to a writer
        between its write and its atomic ``os.replace`` publish, and
        unlinking them would fail that write out from under it.  Paths that
        vanish mid-pass (a concurrent gc, a racing writer's publish) are
        skipped, never fatal.  ``now`` is injectable for tests (defaults to
        ``time.time()``, the clock ``st_mtime`` is measured against).
        """
        scanned = removed = reclaimed = kept = skipped = 0
        objects = self.root / OBJECTS_DIR
        reap_before = (time.time() if now is None else now) - tmp_grace_seconds
        for path in list(self._entry_paths()):
            scanned += 1
            try:
                payload = json.loads(path.read_text())
                stale = payload.get("schema_version") != SCHEMA_VERSION
            except FileNotFoundError:
                skipped += 1
                continue
            except json.JSONDecodeError:
                stale = True
            if stale:
                try:
                    reclaimed += path.stat().st_size
                    path.unlink()
                except FileNotFoundError:
                    skipped += 1
                    continue
                removed += 1
            else:
                kept += 1
        removed_tmp = 0
        if objects.exists():
            for tmp in objects.rglob("*.tmp*"):
                try:
                    status = tmp.stat()
                    if status.st_mtime > reap_before:
                        # Young enough to be a live writer's in-flight file:
                        # leave it for a later gc to judge again.
                        skipped += 1
                        continue
                    tmp.unlink()
                except FileNotFoundError:
                    skipped += 1
                    continue
                reclaimed += status.st_size
                removed_tmp += 1
            for shard in objects.iterdir():
                try:
                    if shard.is_dir() and not any(shard.iterdir()):
                        shard.rmdir()
                except (FileNotFoundError, OSError):
                    # Vanished, or a racing writer repopulated it between
                    # the emptiness check and the rmdir: both fine.
                    continue
        # Everything left is readable under the current schema: refresh the
        # marker so future opens (which check it) succeed.
        _atomic_write_json(self.root / MARKER_NAME, {
            "schema_version": SCHEMA_VERSION,
            "created_unix": time.time(),
        })
        return GcStats(scanned=scanned, removed_entries=removed,
                       removed_temp_files=removed_tmp,
                       reclaimed_bytes=reclaimed, kept=kept, skipped=skipped)


def _atomic_write_json(path: Path, payload: dict) -> None:
    """Write JSON via a same-directory temp file + ``os.replace``.

    ``os.replace`` is atomic on POSIX and Windows for same-filesystem moves,
    so readers either see the old entry or the complete new one, never a
    prefix; racing writers simply replace each other with identical content.
    """
    handle = tempfile.NamedTemporaryFile(
        mode="w", dir=path.parent, prefix=path.name + ".tmp", delete=False)
    try:
        with handle:
            json.dump(payload, handle, indent=1)
            handle.write("\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(handle.name, path)
    except BaseException:
        try:
            os.unlink(handle.name)
        except OSError:
            pass
        raise


def format_stats(stats: StoreStats, session: Optional[SessionStats] = None,
                 *, root: Optional[Path] = None) -> str:
    """Human-readable rendering of :meth:`ReportStore.stats` (``store stats``)."""
    lines = []
    if root is not None:
        lines.append(f"report store at {root}")
    lines.append(f"  entries        : {stats.entries} "
                 f"({stats.total_bytes / 1024:.1f} KiB, "
                 f"{stats.reports} variant reports)")
    lines.append(f"  distinct cells : {stats.workloads} (kernel x workload)")
    if stats.kernels:
        per_kernel = ", ".join(f"{kernel}={count}" for kernel, count
                               in sorted(stats.kernels.items()))
        lines.append(f"  per kernel     : {per_kernel}")
    versions = ", ".join(f"{version}: {count}" for version, count
                         in sorted(stats.schema_versions.items()))
    lines.append(f"  schema versions: {versions or '-'} "
                 f"(current: {SCHEMA_VERSION})")
    lines.append(f"  manifests      : {stats.manifests}")
    lines.append(f"  quarantined    : {stats.quarantined}"
                 + (" (inspect/clear with 'store verify')"
                    if stats.quarantined else ""))
    if stats.skipped:
        lines.append(f"  skipped        : {stats.skipped} entr(ies) vanished "
                     f"mid-scan (concurrent gc/quarantine)")
    if session is not None:
        lines.append(f"  this session   : {session.hits} hits, "
                     f"{session.misses} misses, {session.writes} writes, "
                     f"{session.quarantined} quarantined, "
                     f"{session.io_retries} I/O retries")
    return "\n".join(lines)


def format_verify(outcome: VerifyStats, *, root: Optional[Path] = None) -> str:
    """Human-readable rendering of :meth:`ReportStore.verify`."""
    lines = []
    if root is not None:
        lines.append(f"verified report store at {root}")
    lines.append(f"  scanned      : {outcome.scanned} entr(ies)")
    lines.append(f"  ok           : {outcome.ok}")
    lines.append(f"  quarantined  : {outcome.quarantined} (this pass)")
    if outcome.stale_schema:
        lines.append(f"  stale schema : {outcome.stale_schema} "
                     f"(left in place; prune with 'store gc')")
    if outcome.cleared:
        lines.append(f"  cleared      : {outcome.cleared} from quarantine/")
    lines.append(f"  quarantine   : {outcome.quarantine_backlog} file(s) "
                 f"pending" + ("" if outcome.quarantine_backlog
                               else " (empty)"))
    return "\n".join(lines)
