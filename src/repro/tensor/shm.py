"""Shared-memory suite transport for scheduler fan-out.

Scheduler workers historically rebuilt every suite matrix from its seed
(`suite_from_token`), so fanning a grid out to N workers regenerated the
suite N times — O(workers × suite bytes) of redundant work.  This module
moves the suite across the process boundary through one
:class:`multiprocessing.shared_memory.SharedMemory` segment instead:

* The **parent** builds (or reuses) the suite's matrices once, concatenates
  their CSR buffers (``data`` / ``indices`` / ``indptr``, original dtypes
  preserved) into a single segment, and publishes a small picklable
  *manifest* of offsets, dtypes and shapes (:func:`export_suite`).
* Each **worker** attaches the segment by name, wraps zero-copy NumPy views
  over the buffers into ``scipy.sparse`` CSR matrices, marks them canonical
  (the exporter's matrices came out of the normalizing
  :class:`~repro.tensor.sparse.SparseMatrix` constructor, so indices are
  sorted and explicit zeros eliminated), and seeds the process-wide matrix
  cache of :mod:`repro.tensor.suite` — after which ``suite.matrix(name)`` is
  a cache hit and no worker ever regenerates a matrix
  (:func:`attach_suite`).  The views are read-only; the trusted
  ``SparseMatrix._from_canonical_csr`` constructor skips the mutating
  normalization pass.
* Lifecycle is **reference-counted in the parent**: every
  :func:`export_suite` under the same token shares one segment and bumps its
  count, every :func:`release_suite` drops it, and the last release closes
  *and unlinks* the segment.  Workers only ever close their attachment (and
  unregister it from the resource tracker — the parent owns unlinking).
  :func:`active_segments` exposes the live set so tests can assert nothing
  leaked.

Everything degrades gracefully: if shared memory is unavailable (no
``/dev/shm``, permissions), :func:`export_suite` returns ``None`` and the
scheduler falls back to token-rebuilding workers — slower, never wrong.

Dense kernel operands (SpMM/SpMV/SDDMM factors) are *not* exported: they are
described by their shape alone, which every worker derives from the matrix.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from repro.tensor.sparse import SparseMatrix
from repro.tensor.suite import _SHARED_MATRIX_CACHE, suite_from_token


@dataclass(frozen=True)
class ArraySpec:
    """Location of one NumPy array inside the segment (picklable)."""

    offset: int
    dtype: str
    length: int


@dataclass(frozen=True)
class MatrixSpec:
    """Location of one CSR matrix's three arrays inside the segment."""

    name: str
    shape: Tuple[int, int]
    data: ArraySpec
    indices: ArraySpec
    indptr: ArraySpec


@dataclass(frozen=True)
class SuiteManifest:
    """Everything a worker needs to attach one suite's matrices.

    ``entries`` maps the shared-matrix-cache key (``(scope, seed, name)`` or
    ``(scope, seed, name, "pair")`` — see
    :data:`repro.tensor.suite._SHARED_MATRIX_CACHE`) to the matrix's location
    in the segment named ``segment_name``.
    """

    segment_name: str
    suite_token: tuple
    entries: Tuple[Tuple[tuple, MatrixSpec], ...]


#: Parent-side registry: segment name → (SharedMemory, refcount).  Keyed by
#: suite token so repeated exports of the same suite share one segment.
#: Reference counts are read-modify-write, so every access goes through
#: ``_REGISTRY_LOCK`` — concurrent server requests sharing a suite would
#: otherwise lose increments (premature unlink under a live exporter) or
#: lose decrements (a leaked segment outliving the process).
_EXPORTED: Dict[tuple, List] = {}

#: Guards ``_EXPORTED`` (the whole export path holds it, so two concurrent
#: cold exports of one token cannot each create a segment).
_REGISTRY_LOCK = threading.Lock()

#: Worker-side attachments kept alive for the life of the process (the CSR
#: views borrow the segment's buffer, so it must not be closed under them).
_ATTACHED: Dict[str, object] = {}


def active_segments() -> List[str]:
    """Names of shared-memory segments this process currently *owns*.

    Only parent-side exports count — a non-empty result after a sweep means
    a missing :func:`release_suite` (the leak the test teardown checks for).
    """
    with _REGISTRY_LOCK:
        return sorted(entry[0].name for entry in _EXPORTED.values())


def _align(offset: int, alignment: int = 16) -> int:
    return (offset + alignment - 1) // alignment * alignment


def _layout(matrices: Dict[tuple, SparseMatrix]):
    """Plan the segment: per-matrix array specs plus the total byte size."""
    offset = 0
    planned = []
    for cache_key, matrix in matrices.items():
        csr = matrix.csr
        specs = {}
        for field in ("data", "indices", "indptr"):
            array = getattr(csr, field)
            offset = _align(offset)
            specs[field] = ArraySpec(offset=offset, dtype=array.dtype.str,
                                     length=int(array.size))
            offset += array.nbytes
        planned.append((cache_key, MatrixSpec(
            name=matrix.name, shape=(matrix.num_rows, matrix.num_cols),
            data=specs["data"], indices=specs["indices"],
            indptr=specs["indptr"])))
    return planned, max(1, offset)


def _view(buffer, spec: ArraySpec) -> np.ndarray:
    array = np.frombuffer(buffer, dtype=np.dtype(spec.dtype),
                          count=spec.length, offset=spec.offset)
    return array


def export_suite(suite_token: tuple, workloads: Sequence[str], *,
                 include_pairs: bool = False) -> Optional[SuiteManifest]:
    """Publish a suite's matrices in one shared-memory segment (parent side).

    Builds (or reuses, via the process-wide cache) the named workloads'
    matrices — plus their paired ``B`` operands when ``include_pairs`` — and
    copies their CSR buffers into a fresh segment.  Returns the picklable
    manifest to hand to worker initializers, or ``None`` when shared memory
    is unavailable (callers fall back to token-rebuilding workers).

    Re-exporting a token already live bumps its reference count and returns
    an equivalent manifest; every export must be paired with one
    :func:`release_suite`.  Thread-safe: the registry lock is held for the
    whole export, so concurrent exporters of one token always share a single
    segment (exports of *different* tokens serialize too — segment creation
    is cheap next to the evaluations it feeds).
    """
    with _REGISTRY_LOCK:
        live = _EXPORTED.get(suite_token)
        if live is not None:
            live[1] += 1
            return live[2]

        try:
            from multiprocessing import shared_memory
        except ImportError:  # pragma: no cover - always present on CPython 3.8+
            return None

        suite = suite_from_token(suite_token)
        scope, seed, _ = suite_token
        matrices: Dict[tuple, SparseMatrix] = {}
        for name in workloads:
            matrices[(scope, seed, name)] = suite.matrix(name)
            if include_pairs:
                matrices[(scope, seed, name, "pair")] = suite.paired_matrix(name)

        planned, total_bytes = _layout(matrices)
        try:
            segment = shared_memory.SharedMemory(create=True, size=total_bytes)
        except (OSError, ValueError):
            return None
        for cache_key, spec in planned:
            csr = matrices[cache_key].csr
            for field in ("data", "indices", "indptr"):
                array_spec: ArraySpec = getattr(spec, field)
                view = _view(segment.buf, array_spec)
                view[:] = getattr(csr, field)
        manifest = SuiteManifest(segment_name=segment.name,
                                 suite_token=suite_token,
                                 entries=tuple(planned))
        _EXPORTED[suite_token] = [segment, 1, manifest]
        return manifest


def _close_and_unlink(segment) -> None:
    try:
        segment.close()
    finally:
        try:
            segment.unlink()
        except FileNotFoundError:
            pass


def release_suite(suite_token: tuple) -> None:
    """Drop one reference to an exported suite; last one unlinks the segment.

    Thread-safe: the decrement and the remove-at-zero decision happen under
    the registry lock, so concurrent releases (or a release racing an
    export) can neither double-unlink a segment nor leak one.
    """
    with _REGISTRY_LOCK:
        live = _EXPORTED.get(suite_token)
        if live is None:
            return
        live[1] -= 1
        if live[1] > 0:
            return
        del _EXPORTED[suite_token]
        segment = live[0]
    _close_and_unlink(segment)


def release_all() -> None:
    """Release every live export unconditionally (crash-path cleanup)."""
    with _REGISTRY_LOCK:
        entries = list(_EXPORTED.values())
        _EXPORTED.clear()
    for segment, _count, _manifest in entries:
        _close_and_unlink(segment)


def attach_suite(manifest: SuiteManifest) -> None:
    """Attach an exported suite and seed the shared matrix cache (worker side).

    Idempotent per segment.  Failures are swallowed: a worker that cannot
    attach simply rebuilds matrices from the token, exactly as before.
    """
    if manifest is None or manifest.segment_name in _ATTACHED:
        return
    try:
        from multiprocessing import shared_memory

        segment = shared_memory.SharedMemory(name=manifest.segment_name)
    except (ImportError, OSError, ValueError):
        return
    # The parent owns the segment's lifetime.  Forked pool workers (the only
    # kind this codebase spawns) share the parent's resource tracker, whose
    # registry is a set — the attach-side register is a no-op and the
    # parent's unlink unregisters exactly once, so no extra bookkeeping is
    # needed (an unregister here would double-fire in the shared tracker).
    _ATTACHED[manifest.segment_name] = segment

    for cache_key, spec in manifest.entries:
        arrays = {}
        for field in ("data", "indices", "indptr"):
            array_spec: ArraySpec = getattr(spec, field)
            array = _view(segment.buf, array_spec)
            array.flags.writeable = False
            arrays[field] = array
        csr = sp.csr_matrix(
            (arrays["data"], arrays["indices"], arrays["indptr"]),
            shape=spec.shape, copy=False)
        # The exported matrices came out of the normalizing SparseMatrix
        # constructor, so the views are canonical by construction; telling
        # scipy avoids it re-deriving (or worse, re-sorting in place).
        csr.has_sorted_indices = True
        csr.has_canonical_format = True
        _SHARED_MATRIX_CACHE.setdefault(
            cache_key, SparseMatrix._from_canonical_csr(csr, spec.name))


def detach_all() -> None:
    """Close every worker-side attachment (test hygiene; workers normally
    just exit)."""
    for name in list(_ATTACHED):
        segment = _ATTACHED.pop(name)
        try:
            segment.close()
        except Exception:
            pass
