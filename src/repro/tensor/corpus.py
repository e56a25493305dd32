"""Real-world corpus manager: DLMC + SuiteSparse matrices as first-class IDs.

The paper's evaluation is grounded in 22 real SuiteSparse matrices, and the
sparse-kernel literature the kernel family targets (SpMSpM/SpMM/SpMV/SDDMM)
benchmarks against the Deep Learning Matrix Collection (DLMC) of pruned-DNN
weight matrices.  This module turns both corpora into *addressable dataset
identities* instead of loose ``.mtx`` files on someone's disk:

* **Matrix IDs.**  Every matrix is named ``dataset:group/name`` (e.g.
  ``suitesparse:Williams/cant`` or
  ``dlmc:rn50/magnitude_pruning/0.8/bottleneck_projection``) and resolved
  through a :class:`Catalog` of :class:`MatrixDescriptor` entries carrying
  the download URL, an optional pinned SHA-256, the on-disk format
  (``mtx``/``mtx.gz``/``smtx``/``tar.gz`` + archive member) and dimension
  metadata.  Built-in catalogs cover the paper's 22 SuiteSparse matrices and
  a representative DLMC slice; JSON *manifests* (:func:`load_manifest`) add
  or override entries — the offline CI fixture corpus is exactly such a
  manifest.
* **Offline-first transports.**  All network access goes through the
  injectable :class:`Transport` protocol.  :class:`UrllibTransport` (the
  default) performs real HTTP(S) and local ``file://`` fetches;
  :class:`InMemoryTransport` serves bytes from a dict and records every
  request (tests, air-gapped smoke runs).  ``REPRO_CORPUS_OFFLINE=1`` (or
  ``offline=True``) refuses every remote URL while still allowing local
  ``file://`` manifests, and any fetch failure *degrades to the cached copy*
  when one exists.
* **Checksummed atomic cache.**  :class:`CorpusCache` installs each matrix
  under ``<cache>/matrices/<dataset>/<group>/<name>.<ext>`` via
  download → SHA-256 verify → ``os.replace``; a checksum mismatch
  quarantines the bad download and re-fetches once before giving up
  (:class:`ChecksumMismatch`).  A truncated/torn cache file (size disagrees
  with its install receipt) is treated as a *miss*, never served.  Archives
  (SuiteSparse ``.tar.gz``, the DLMC tarball) are cached under
  ``downloads/`` so sibling members share one download.  ``corpus
  fetch``/``verify``/``gc`` on the CLI drive the same code paths.
* **Corpus suite tokens.**  :func:`corpus_workload_suite` builds a lazy
  :class:`~repro.tensor.suite.WorkloadSuite` whose ``cache_token`` scope is
  ``("corpus", matrix-ids, manifest)`` — picklable and rebuildable, so
  scheduler workers, the shared-memory fan-out path, the report store and
  ``sweep_grid(corpus_workload_suite(...))`` address real matrices exactly
  like the synthetic suites.  Workers resolve the cache root from
  ``REPRO_CORPUS_CACHE``, so a pool shares one on-disk cache.

Fault injection (:mod:`repro.utils.faults`) hooks the two interesting
failure sites: ``corpus.fetch`` raises a transient ``OSError`` from the
transport call and ``corpus.corrupt`` truncates a completed download before
verification — CI drills both without a network.

Public surface
--------------
:class:`MatrixDescriptor`, :class:`Catalog`, :func:`builtin_catalog`,
:func:`load_manifest`, :func:`resolve_catalog`, :func:`parse_corpus_ids`,
:class:`Transport`, :class:`UrllibTransport`, :class:`InMemoryTransport`,
:func:`default_transport`, :func:`set_default_transport`,
:class:`CorpusCache`, :func:`read_smtx`, :func:`corpus_workload_suite`,
:class:`CorpusError`, :class:`ChecksumMismatch`, :class:`CorpusFetchWarning`.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import os
import tarfile
import tempfile
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    BinaryIO,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.tensor.io import matrix_market_header, read_matrix_market
from repro.tensor.sparse import SparseMatrix
from repro.utils import faults

#: Environment variable overriding the default cache root.
ENV_CACHE = "REPRO_CORPUS_CACHE"

#: Environment variable forcing offline mode (any non-``file`` fetch fails).
ENV_OFFLINE = "REPRO_CORPUS_OFFLINE"

#: Formats a descriptor may declare.  ``tar.gz`` requires ``member``.
KNOWN_FORMATS = ("mtx", "mtx.gz", "smtx", "tar.gz")

#: The datasets the built-in catalogs cover.
KNOWN_DATASETS = ("dlmc", "suitesparse")


class CorpusError(RuntimeError):
    """A corpus operation failed in a way the caller must handle."""


class ChecksumMismatch(CorpusError):
    """A download repeatedly failed SHA-256 verification."""


class CorpusFetchWarning(UserWarning):
    """A fetch failed but a cached copy (or a re-fetch) saved the run."""


# --------------------------------------------------------------------- #
# Descriptors, catalogs, manifests
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class MatrixDescriptor:
    """One corpus matrix: where it lives, how to verify it, what it is.

    ``sha256`` pins the downloaded *resource* (the ``.mtx``/``.smtx`` file
    itself, or the archive for ``tar.gz`` entries); ``None`` means
    trust-on-first-use — the digest is recorded in the install receipt and
    enforced by ``corpus verify`` from then on.  ``rows``/``cols``/``nnz``
    are metadata for suite specs; when absent they are peeked from the
    installed file's header on first use.
    """

    dataset: str
    group: str
    name: str
    url: str
    sha256: Optional[str] = None
    format: str = "mtx"
    member: Optional[str] = None
    rows: Optional[int] = None
    cols: Optional[int] = None
    nnz: Optional[int] = None

    def __post_init__(self) -> None:
        if self.format not in KNOWN_FORMATS:
            raise CorpusError(
                f"unknown corpus format {self.format!r} for "
                f"{self.dataset}:{self.group}/{self.name}; "
                f"known: {', '.join(KNOWN_FORMATS)}")
        if self.format == "tar.gz" and not self.member:
            raise CorpusError(
                f"archive entry {self.dataset}:{self.group}/{self.name} "
                f"needs a 'member' path inside the tarball")

    @property
    def matrix_id(self) -> str:
        """The canonical ``dataset:group/name`` address."""
        return f"{self.dataset}:{self.group}/{self.name}"

    @property
    def installed_suffix(self) -> str:
        """Extension of the installed per-matrix file."""
        if self.format == "tar.gz":
            member = self.member or ""
            for suffix in (".mtx.gz", ".mtx", ".smtx"):
                if member.endswith(suffix):
                    return suffix
            return ".mtx"
        return "." + self.format

    @property
    def filename(self) -> str:
        return self.name + self.installed_suffix


class Catalog:
    """An ordered ``matrix_id`` → :class:`MatrixDescriptor` mapping."""

    def __init__(self, descriptors: Iterable[MatrixDescriptor] = ()):
        self._entries: Dict[str, MatrixDescriptor] = {}
        for descriptor in descriptors:
            self.add(descriptor)

    def add(self, descriptor: MatrixDescriptor) -> None:
        """Insert (or override) one descriptor."""
        self._entries[descriptor.matrix_id] = descriptor

    def update(self, other: "Catalog") -> None:
        """Overlay ``other``'s entries over this catalog (other wins)."""
        self._entries.update(other._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, matrix_id: str) -> bool:
        return matrix_id in self._entries

    def __iter__(self):
        return iter(self._entries.values())

    @property
    def ids(self) -> List[str]:
        return list(self._entries)

    def get(self, matrix_id: str) -> MatrixDescriptor:
        """The descriptor for ``matrix_id`` (raises :class:`CorpusError`)."""
        try:
            return self._entries[matrix_id]
        except KeyError:
            dataset = matrix_id.partition(":")[0]
            siblings = [known for known in self._entries
                        if known.startswith(dataset + ":")]
            hint = (f"; known {dataset} matrices include "
                    f"{', '.join(siblings[:4])}" if siblings else
                    f"; no {dataset!r} matrices are known — pass a manifest "
                    f"or check the dataset prefix")
            raise CorpusError(
                f"unknown corpus matrix {matrix_id!r}{hint}") from None

    def subset(self, matrix_ids: Sequence[str]) -> List[MatrixDescriptor]:
        """Descriptors for ``matrix_ids``, in the given order."""
        return [self.get(matrix_id) for matrix_id in matrix_ids]


def load_manifest(path: Union[str, Path]) -> Catalog:
    """Load a JSON descriptor manifest into a :class:`Catalog`.

    Layout::

        {"dataset": "suitesparse",          # optional per-file default
         "matrices": [
           {"group": "fixture", "name": "fem-band",
            "url": "fem-band.mtx.gz",        # relative → file:// next to
            "sha256": "...",                 #   the manifest itself
            "format": "mtx.gz",
            "rows": 150, "cols": 150, "nnz": 1803},
           ...]}

    Relative ``url`` values are resolved against the manifest's directory
    into ``file://`` URLs, which is what makes a checked-in fixture corpus
    fully relocatable and offline.
    """
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except OSError as error:
        raise CorpusError(f"cannot read corpus manifest {path}: {error}") from error
    except json.JSONDecodeError as error:
        raise CorpusError(f"corpus manifest {path} is not valid JSON: "
                          f"{error}") from error
    if not isinstance(payload, dict) or "matrices" not in payload:
        raise CorpusError(f"corpus manifest {path} must be an object with a "
                          f"'matrices' list")
    default_dataset = payload.get("dataset")
    catalog = Catalog()
    for index, entry in enumerate(payload["matrices"]):
        try:
            dataset = entry.get("dataset", default_dataset)
            if not dataset:
                raise CorpusError("missing 'dataset' (and no manifest-level "
                                  "default)")
            url = str(entry["url"])
            if "://" not in url:
                url = (path.parent / url).resolve().as_uri()
            catalog.add(MatrixDescriptor(
                dataset=str(dataset),
                group=str(entry["group"]),
                name=str(entry["name"]),
                url=url,
                sha256=entry.get("sha256"),
                format=str(entry.get("format", "mtx")),
                member=entry.get("member"),
                rows=entry.get("rows"),
                cols=entry.get("cols"),
                nnz=entry.get("nnz"),
            ))
        except (KeyError, CorpusError) as error:
            raise CorpusError(f"corpus manifest {path}, matrices[{index}]: "
                              f"{error}") from None
    return catalog


#: SuiteSparse serves one gzipped tarball per matrix, with the MatrixMarket
#: file at ``<name>/<name>.mtx`` inside it.
_SUITESPARSE_URL = "https://suitesparse-collection-website.herokuapp.com/MM"

#: The whole Deep Learning Matrix Collection is one tarball of ``.smtx``
#: files; individual matrices are members of it (the archive is downloaded
#: once and cached, then members are extracted on demand).
_DLMC_URL = "https://storage.googleapis.com/sgk-sc2020/dlmc.tar.gz"

#: SuiteSparse group of every paper matrix (Table 2 order).
_SUITESPARSE_GROUPS = (
    ("Bova", "rma10"), ("Williams", "cant"), ("Williams", "consph"),
    ("DNVS", "shipsec1"), ("Boeing", "pwtk"), ("Williams", "cop20k_A"),
    ("Williams", "mac_econ_fwd500"), ("Williams", "mc2depi"),
    ("Williams", "pdb1HYS"), ("SNAP", "sx-mathoverflow"),
    ("SNAP", "email-Enron"), ("vanHeukelum", "cage12"),
    ("SNAP", "soc-Epinions1"), ("SNAP", "soc-sign-epinions"),
    ("SNAP", "p2p-Gnutella31"), ("SNAP", "sx-askubuntu"),
    ("SNAP", "amazon0312"), ("Pajek", "patents_main"),
    ("SNAP", "email-EuAll"), ("SNAP", "web-Google"),
    ("Williams", "webbase-1M"), ("SNAP", "roadNet-CA"),
)

#: A representative DLMC slice: ResNet-50 and Transformer weights across
#: pruning methods and sparsities (members of the collection tarball).
_DLMC_MEMBERS = tuple(
    f"rn50/{method}/{sparsity}/{layer}"
    for method in ("magnitude_pruning", "random_pruning")
    for sparsity in ("0.5", "0.8", "0.9")
    for layer in ("bottleneck_projection_block_group_projection_block_group1",)
) + tuple(
    f"transformer/{method}/{sparsity}/{layer}"
    for method in ("magnitude_pruning",)
    for sparsity in ("0.5", "0.9")
    for layer in ("body_decoder_layer_0_encdec_attention_multihead_attention_q",)
)


def builtin_catalog() -> Catalog:
    """The built-in DLMC + SuiteSparse catalog.

    SuiteSparse entries cover the paper's 22 matrices; DLMC entries cover a
    representative pruned-DNN slice.  Checksums are trust-on-first-use
    (recorded in install receipts, enforced by ``corpus verify``) because the
    collections do not publish per-file digests; pin them via a manifest if
    your deployment needs stronger guarantees.
    """
    catalog = Catalog()
    for group, name in _SUITESPARSE_GROUPS:
        catalog.add(MatrixDescriptor(
            dataset="suitesparse", group=group, name=name,
            url=f"{_SUITESPARSE_URL}/{group}/{name}.tar.gz",
            format="tar.gz", member=f"{name}/{name}.mtx"))
    for member in _DLMC_MEMBERS:
        group, _, name = member.rpartition("/")
        catalog.add(MatrixDescriptor(
            dataset="dlmc", group=group, name=name,
            url=_DLMC_URL, format="tar.gz",
            member=f"dlmc/{member}.smtx"))
    return catalog


def resolve_catalog(manifest: Union[str, Path, None] = None) -> Catalog:
    """The built-in catalog, overlaid with ``manifest`` when given."""
    catalog = builtin_catalog()
    if manifest is not None:
        catalog.update(load_manifest(manifest))
    return catalog


def parse_corpus_ids(text: str, *, default_dataset: Optional[str] = None,
                     ) -> List[str]:
    """Parse a CLI corpus spec into canonical matrix IDs.

    ``"dlmc:rn50/mp/0.8/conv1,rn50/mp/0.9/conv1,suitesparse:Williams/cant"``
    — comma-separated, and the ``dataset:`` prefix is *sticky*: entries
    without one inherit the most recent prefix (or ``default_dataset``).
    """
    ids: List[str] = []
    dataset = default_dataset
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if ":" in part:
            dataset, _, rest = part.partition(":")
            dataset = dataset.strip()
            part = rest.strip()
        if not dataset:
            raise CorpusError(
                f"corpus matrix {part!r} has no dataset prefix; write "
                f"dataset:group/name (datasets: {', '.join(KNOWN_DATASETS)})")
        if "/" not in part:
            raise CorpusError(
                f"corpus matrix {dataset}:{part!r} has no group; write "
                f"dataset:group/name")
        ids.append(f"{dataset}:{part}")
    if not ids:
        raise CorpusError(f"empty corpus spec {text!r}")
    return ids


# --------------------------------------------------------------------- #
# Transports
# --------------------------------------------------------------------- #
class Transport(Protocol):
    """Anything that can stream the bytes behind a URL into a sink."""

    def fetch(self, url: str, sink: BinaryIO) -> None:
        """Write the resource at ``url`` into ``sink`` (raise ``OSError``)."""


class UrllibTransport:
    """The real transport: HTTP(S) via :mod:`urllib`, plus ``file://``."""

    def __init__(self, chunk_bytes: int = 1 << 16, timeout: float = 60.0):
        self.chunk_bytes = int(chunk_bytes)
        self.timeout = float(timeout)

    def fetch(self, url: str, sink: BinaryIO) -> None:
        from urllib.error import URLError
        from urllib.request import urlopen

        try:
            with urlopen(url, timeout=self.timeout) as source:  # noqa: S310
                while True:
                    chunk = source.read(self.chunk_bytes)
                    if not chunk:
                        break
                    sink.write(chunk)
        except URLError as error:
            raise OSError(f"fetch of {url} failed: {error}") from error


class InMemoryTransport:
    """A fake transport serving bytes from a mapping (tests, hermetic CI).

    Values may be ``bytes`` or zero-argument callables returning bytes (so a
    test can serve corrupted bytes first and good bytes on the re-fetch).
    Every fetch is appended to :attr:`requests`; unknown URLs raise
    ``OSError`` like a dead network would.
    """

    def __init__(self, resources: Mapping[str, Union[bytes, Callable[[], bytes]]]):
        self.resources = dict(resources)
        self.requests: List[str] = []

    def fetch(self, url: str, sink: BinaryIO) -> None:
        self.requests.append(url)
        if url not in self.resources:
            raise OSError(f"in-memory transport has no resource for {url}")
        payload = self.resources[url]
        if callable(payload):
            payload = payload()
        sink.write(payload)


_default_transport: Optional[Transport] = None
_urllib_singleton: Optional[UrllibTransport] = None


def default_transport() -> Transport:
    """The process-wide transport (:class:`UrllibTransport` unless overridden)."""
    global _urllib_singleton
    if _default_transport is not None:
        return _default_transport
    if _urllib_singleton is None:
        _urllib_singleton = UrllibTransport()
    return _urllib_singleton


def set_default_transport(transport: Optional[Transport]) -> None:
    """Override the process-wide transport (``None`` restores urllib).

    Tests and air-gapped deployments install fakes here; scheduler workers
    inherit the override through ``fork``.
    """
    global _default_transport
    _default_transport = transport


def offline_mode() -> bool:
    """Whether ``REPRO_CORPUS_OFFLINE`` forbids remote fetches."""
    return os.environ.get(ENV_OFFLINE, "").strip() not in ("", "0", "false")


def _url_scheme(url: str) -> str:
    from urllib.parse import urlsplit

    return urlsplit(url).scheme


# --------------------------------------------------------------------- #
# The cache
# --------------------------------------------------------------------- #
#: Subdirectories of a cache root.
MATRICES_DIR = "matrices"
DOWNLOADS_DIR = "downloads"
QUARANTINE_DIR = "quarantine"

#: Install-receipt sidecar suffix.
RECEIPT_SUFFIX = ".meta.json"


@dataclass(frozen=True)
class VerifyOutcome:
    """What :meth:`CorpusCache.verify` found."""

    checked: int
    ok: int
    missing: List[str] = field(default_factory=list)
    corrupt: List[str] = field(default_factory=list)


@dataclass(frozen=True)
class GcOutcome:
    """What :meth:`CorpusCache.gc` reclaimed."""

    removed_downloads: int
    removed_quarantined: int
    reclaimed_bytes: int


def _sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def default_cache_root() -> Path:
    """``$REPRO_CORPUS_CACHE`` or ``~/.cache/repro/corpus``."""
    override = os.environ.get(ENV_CACHE, "").strip()
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro" / "corpus"


class CorpusCache:
    """Checksummed, atomic, offline-friendly on-disk matrix cache.

    Layout under ``root``::

        matrices/<dataset>/<group>/<name>.<ext>            installed matrices
        matrices/.../<name>.<ext>.meta.json                install receipts
        downloads/<urldigest>-<basename>                   cached archives
        quarantine/                                        failed downloads

    Installs are atomic (unique temp file + ``os.replace`` in the
    destination directory), so concurrent workers racing on one matrix
    converge on identical bytes with no torn intermediate visible.
    """

    def __init__(self, root: Union[str, Path, None] = None):
        self.root = Path(root) if root is not None else default_cache_root()

    # -- layout -------------------------------------------------------- #
    @property
    def matrices_root(self) -> Path:
        return self.root / MATRICES_DIR

    @property
    def downloads_root(self) -> Path:
        return self.root / DOWNLOADS_DIR

    @property
    def quarantine_root(self) -> Path:
        return self.root / QUARANTINE_DIR

    def matrix_path(self, descriptor: MatrixDescriptor) -> Path:
        return (self.matrices_root / descriptor.dataset /
                descriptor.group / descriptor.filename)

    def receipt_path(self, descriptor: MatrixDescriptor) -> Path:
        path = self.matrix_path(descriptor)
        return path.with_name(path.name + RECEIPT_SUFFIX)

    # -- queries ------------------------------------------------------- #
    def installed_path(self, descriptor: MatrixDescriptor) -> Optional[Path]:
        """The installed file, or ``None`` when absent *or torn*.

        A file whose size disagrees with its install receipt — a truncated
        copy, a partially synced cache directory — is sidelined to
        ``quarantine/`` and reported as a miss, so a torn cache can only
        cost a re-fetch, never a silently wrong evaluation.
        """
        path = self.matrix_path(descriptor)
        if not path.exists():
            return None
        receipt = self._read_receipt(descriptor)
        if receipt is None or path.stat().st_size != receipt.get("size"):
            self._quarantine(path, reason="torn-cache-file")
            receipt_path = self.receipt_path(descriptor)
            if receipt_path.exists():
                receipt_path.unlink()
            return None
        return path

    def _read_receipt(self, descriptor: MatrixDescriptor) -> Optional[dict]:
        try:
            return json.loads(self.receipt_path(descriptor).read_text())
        except (OSError, json.JSONDecodeError):
            return None

    # -- the workhorse ------------------------------------------------- #
    def ensure_local(self, descriptor: MatrixDescriptor, *,
                     transport: Optional[Transport] = None,
                     offline: Optional[bool] = None,
                     refresh: bool = False) -> Path:
        """Return the local path of ``descriptor``, fetching if needed.

        ``refresh=True`` re-downloads even when a cached copy exists (the
        CLI's ``corpus fetch --refresh``).  Any fetch failure — network
        down, offline mode, injected ``corpus.fetch`` fault — *degrades to
        the cached copy* with a :class:`CorpusFetchWarning` when one is
        installed, and raises a :class:`CorpusError` naming both the cache
        path and the URL only when the matrix is absent everywhere.
        """
        cached = self.installed_path(descriptor)
        if cached is not None and not refresh:
            return cached
        try:
            return self._fetch_and_install(descriptor, transport, offline)
        except ChecksumMismatch:
            raise
        except (OSError, CorpusError) as error:
            if cached is not None:
                warnings.warn(
                    f"fetch of {descriptor.matrix_id} failed ({error}); "
                    f"using the cached copy at {cached}", CorpusFetchWarning,
                    stacklevel=2)
                return cached
            raise CorpusError(
                f"corpus matrix {descriptor.matrix_id} is not cached at "
                f"{self.matrix_path(descriptor)} and fetching {descriptor.url} "
                f"failed: {error}") from error

    def fetch(self, descriptor: MatrixDescriptor, *,
              transport: Optional[Transport] = None,
              offline: Optional[bool] = None,
              refresh: bool = False) -> Path:
        """Alias of :meth:`ensure_local` (the CLI subcommand's verb)."""
        return self.ensure_local(descriptor, transport=transport,
                                 offline=offline, refresh=refresh)

    # -- internals ----------------------------------------------------- #
    def _fetch_and_install(self, descriptor: MatrixDescriptor,
                           transport: Optional[Transport],
                           offline: Optional[bool]) -> Path:
        if offline is None:
            offline = offline_mode()
        scheme = _url_scheme(descriptor.url)
        if offline and scheme not in ("", "file"):
            raise OSError(
                f"offline mode ({ENV_OFFLINE}=1) forbids fetching "
                f"{descriptor.url}")
        transport = transport or default_transport()
        destination = self.matrix_path(descriptor)
        destination.parent.mkdir(parents=True, exist_ok=True)

        if descriptor.format == "tar.gz":
            archive = self._ensure_download(descriptor, transport)
            self._extract_member(descriptor, archive, destination)
        else:
            fetched, _ = self._download(descriptor, transport,
                                        destination.parent)
            os.replace(fetched, destination)
        self._write_receipt(descriptor, destination)
        return destination

    def _download(self, descriptor: MatrixDescriptor, transport: Transport,
                  directory: Path) -> Tuple[Path, str]:
        """Download the descriptor's resource into ``directory``, verified.

        Returns ``(temp path, digest)``.  A checksum mismatch quarantines
        the bad bytes and re-fetches once (the second attempt's warning
        names the quarantined file); two mismatches raise
        :class:`ChecksumMismatch`.
        """
        directory.mkdir(parents=True, exist_ok=True)
        last_digest = None
        for attempt in (1, 2):
            faults.active().maybe_raise("corpus.fetch")
            handle, tmp_name = tempfile.mkstemp(
                prefix=descriptor.name + ".", suffix=".tmp", dir=directory)
            tmp = Path(tmp_name)
            try:
                with os.fdopen(handle, "wb") as sink:
                    transport.fetch(descriptor.url, sink)
            except BaseException:
                tmp.unlink(missing_ok=True)
                raise
            faults.active().maybe_corrupt(tmp, site="corpus.corrupt")
            digest = _sha256_file(tmp)
            if descriptor.sha256 is None or digest == descriptor.sha256:
                return tmp, digest
            quarantined = self._quarantine(tmp, reason="checksum-mismatch")
            last_digest = digest
            if attempt == 1:
                warnings.warn(
                    f"checksum mismatch for {descriptor.matrix_id} "
                    f"(expected {descriptor.sha256[:12]}…, got "
                    f"{digest[:12]}…); bad download quarantined at "
                    f"{quarantined}, re-fetching once", CorpusFetchWarning,
                    stacklevel=3)
        raise ChecksumMismatch(
            f"{descriptor.matrix_id}: {descriptor.url} failed SHA-256 "
            f"verification twice (expected {descriptor.sha256}, got "
            f"{last_digest}); the upstream file changed or the mirror is "
            f"corrupt — bad downloads are under {self.quarantine_root}")

    def _ensure_download(self, descriptor: MatrixDescriptor,
                         transport: Transport) -> Path:
        """The cached archive behind ``descriptor`` (shared across members)."""
        key = hashlib.sha256(descriptor.url.encode()).hexdigest()[:16]
        basename = descriptor.url.rsplit("/", 1)[-1] or "download"
        archive = self.downloads_root / f"{key}-{basename}"
        if archive.exists():
            if descriptor.sha256 is None or \
                    _sha256_file(archive) == descriptor.sha256:
                return archive
            self._quarantine(archive, reason="archive-checksum-mismatch")
        tmp, _ = self._download(descriptor, transport, self.downloads_root)
        os.replace(tmp, archive)
        return archive

    def _extract_member(self, descriptor: MatrixDescriptor, archive: Path,
                        destination: Path) -> None:
        handle, tmp_name = tempfile.mkstemp(
            prefix=descriptor.name + ".", suffix=".tmp",
            dir=destination.parent)
        tmp = Path(tmp_name)
        try:
            with tarfile.open(archive, "r:*") as tar:
                try:
                    member = tar.extractfile(descriptor.member)
                except KeyError:
                    member = None
                if member is None:
                    raise CorpusError(
                        f"archive {archive.name} has no member "
                        f"{descriptor.member!r} (wanted by "
                        f"{descriptor.matrix_id})")
                with os.fdopen(handle, "wb") as sink:
                    while True:
                        chunk = member.read(1 << 16)
                        if not chunk:
                            break
                        sink.write(chunk)
            os.replace(tmp, destination)
        except (tarfile.TarError, EOFError) as error:
            tmp.unlink(missing_ok=True)
            self._quarantine(archive, reason="unreadable-archive")
            raise CorpusError(
                f"archive behind {descriptor.matrix_id} is unreadable "
                f"({error}); it was quarantined — re-fetch to repair") from error
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise

    def _write_receipt(self, descriptor: MatrixDescriptor,
                       path: Path) -> None:
        receipt = {
            "matrix_id": descriptor.matrix_id,
            "url": descriptor.url,
            "sha256": _sha256_file(path),
            "size": path.stat().st_size,
        }
        handle, tmp_name = tempfile.mkstemp(
            prefix=path.name + ".", suffix=".tmp", dir=path.parent)
        with os.fdopen(handle, "w") as sink:
            json.dump(receipt, sink, indent=1)
        os.replace(tmp_name, self.receipt_path(descriptor))

    def _quarantine(self, path: Path, *, reason: str) -> Path:
        self.quarantine_root.mkdir(parents=True, exist_ok=True)
        target = self.quarantine_root / f"{reason}-{path.name}"
        suffix = 0
        while target.exists():
            suffix += 1
            target = self.quarantine_root / f"{reason}-{suffix}-{path.name}"
        os.replace(path, target)
        return target

    # -- maintenance --------------------------------------------------- #
    def installed(self) -> List[Path]:
        """Every installed matrix file (receipts excluded), sorted."""
        if not self.matrices_root.exists():
            return []
        return sorted(
            path for path in self.matrices_root.rglob("*")
            if path.is_file() and not path.name.endswith(RECEIPT_SUFFIX)
            and not path.name.endswith(".tmp"))

    def verify(self, descriptors: Optional[Iterable[MatrixDescriptor]] = None,
               ) -> VerifyOutcome:
        """Re-hash installed matrices against their install receipts.

        With ``descriptors`` the scan covers exactly those (missing ones are
        reported); without, every installed file with a receipt is checked.
        Corrupt files are quarantined so the next ``ensure_local`` re-fetches.
        """
        checked = ok = 0
        missing: List[str] = []
        corrupt: List[str] = []
        if descriptors is not None:
            for descriptor in descriptors:
                checked += 1
                path = self.matrix_path(descriptor)
                receipt = self._read_receipt(descriptor)
                if not path.exists() or receipt is None:
                    missing.append(descriptor.matrix_id)
                    continue
                if _sha256_file(path) != receipt.get("sha256"):
                    corrupt.append(descriptor.matrix_id)
                    self._quarantine(path, reason="verify-corrupt")
                    self.receipt_path(descriptor).unlink(missing_ok=True)
                else:
                    ok += 1
            return VerifyOutcome(checked=checked, ok=ok, missing=missing,
                                 corrupt=corrupt)
        for path in self.installed():
            receipt_path = path.with_name(path.name + RECEIPT_SUFFIX)
            checked += 1
            try:
                receipt = json.loads(receipt_path.read_text())
            except (OSError, json.JSONDecodeError):
                missing.append(str(path))
                continue
            if _sha256_file(path) != receipt.get("sha256"):
                corrupt.append(str(path))
                self._quarantine(path, reason="verify-corrupt")
                receipt_path.unlink(missing_ok=True)
            else:
                ok += 1
        return VerifyOutcome(checked=checked, ok=ok, missing=missing,
                             corrupt=corrupt)

    def gc(self) -> GcOutcome:
        """Reclaim the re-fetchable tiers: downloads and quarantine.

        Installed matrices (the expensive, identity-bearing tier) are kept;
        archives can be re-downloaded and quarantined files exist only for
        forensics.
        """
        removed_downloads = removed_quarantined = 0
        reclaimed = 0
        for directory, counter in ((self.downloads_root, "downloads"),
                                   (self.quarantine_root, "quarantine")):
            if not directory.exists():
                continue
            for path in sorted(directory.iterdir()):
                if not path.is_file():
                    continue
                reclaimed += path.stat().st_size
                path.unlink()
                if counter == "downloads":
                    removed_downloads += 1
                else:
                    removed_quarantined += 1
        return GcOutcome(removed_downloads=removed_downloads,
                         removed_quarantined=removed_quarantined,
                         reclaimed_bytes=reclaimed)


# --------------------------------------------------------------------- #
# Loading
# --------------------------------------------------------------------- #
def read_smtx(path: Union[str, Path], name: Optional[str] = None) -> SparseMatrix:
    """Read a DLMC ``.smtx`` file (CSR text format) into a SparseMatrix.

    Layout: a ``nrows, ncols, nnz`` header line, a line of ``nrows + 1`` row
    offsets, and a line of ``nnz`` column indices.  Values are implicitly
    1.0 (the collection stores pruning *masks*).  ``.gz``-compressed files
    are handled transparently.
    """
    path = Path(path)
    opener = gzip.open if path.suffix == ".gz" else open
    with opener(path, "rt") as handle:  # type: ignore[operator]
        header = handle.readline().replace(",", " ").split()
        if len(header) != 3:
            raise ValueError(f"{path}: malformed .smtx header {header!r} "
                             f"(expected 'nrows, ncols, nnz')")
        num_rows, num_cols, nnz = (int(part) for part in header)
        indptr = np.array(handle.readline().split(), dtype=np.int64)
        indices = np.array(handle.readline().split(), dtype=np.int64)
    if indptr.size != num_rows + 1:
        raise ValueError(f"{path}: expected {num_rows + 1} row offsets, "
                         f"found {indptr.size}")
    if indices.size != nnz or (nnz and indptr[-1] != nnz):
        raise ValueError(f"{path}: expected {nnz} column indices, found "
                         f"{indices.size} (offsets end at {indptr[-1]})")
    import scipy.sparse as sp

    csr = sp.csr_matrix(
        (np.ones(nnz, dtype=np.float64), indices, indptr),
        shape=(num_rows, num_cols))
    return SparseMatrix(csr, name=name or path.name.replace(".smtx", ""))


def _peek_dimensions(descriptor: MatrixDescriptor,
                     path: Path) -> Tuple[int, int, int]:
    """``(rows, cols, nnz)`` of an installed file, reading only its header."""
    if path.name.endswith(".smtx"):
        with open(path, "rt") as handle:
            header = handle.readline().replace(",", " ").split()
        if len(header) != 3:
            raise ValueError(f"{path}: malformed .smtx header")
        rows, cols, nnz = (int(part) for part in header)
        return rows, cols, nnz
    rows, cols, entries, symmetric = matrix_market_header(path)
    return rows, cols, entries * 2 if symmetric else entries


def _load_installed(descriptor: MatrixDescriptor, path: Path,
                    name: str) -> SparseMatrix:
    try:
        if path.name.endswith(".smtx"):
            return read_smtx(path, name=name)
        return read_matrix_market(path, name=name)
    except (OSError, ValueError) as error:
        raise CorpusError(
            f"failed to load corpus matrix {descriptor.matrix_id} from "
            f"{path}: {error}") from error


# --------------------------------------------------------------------- #
# The workload-suite bridge
# --------------------------------------------------------------------- #
def _workload_names(descriptors: Sequence[MatrixDescriptor]) -> List[str]:
    """Short names where unique, ``group.name`` qualified on collision."""
    counts: Dict[str, int] = {}
    for descriptor in descriptors:
        counts[descriptor.name] = counts.get(descriptor.name, 0) + 1
    names = []
    for descriptor in descriptors:
        if counts[descriptor.name] == 1:
            names.append(descriptor.name)
        else:
            names.append(f"{descriptor.group.replace('/', '.')}"
                         f".{descriptor.name}")
    return names


def corpus_workload_suite(matrix_ids: Sequence[str], *, seed: int = 2023,
                          manifest: Union[str, Path, None] = None,
                          cache: Optional[CorpusCache] = None,
                          transport: Optional[Transport] = None,
                          offline: Optional[bool] = None):
    """A lazy :class:`~repro.tensor.suite.WorkloadSuite` of corpus matrices.

    ``matrix_ids`` are canonical ``dataset:group/name`` addresses (strings
    with commas are expanded via :func:`parse_corpus_ids`), resolved through
    the built-in catalog overlaid with ``manifest``.  Matrices are fetched
    into ``cache`` (default: :func:`default_cache_root`) on first
    :meth:`~repro.tensor.suite.WorkloadSuite.matrix` call — building the
    suite itself touches the network only for entries whose manifest omits
    dimension metadata.

    The suite's ``cache_token`` scope is ``("corpus", matrix-ids,
    manifest-path)``: hashable, picklable, and rebuildable by
    :func:`~repro.tensor.suite.suite_from_token` in scheduler workers, which
    resolve the cache root from ``$REPRO_CORPUS_CACHE`` — corpus evaluations
    flow through the parallel scheduler, the shared-memory fan-out path and
    the report store exactly like the synthetic suites.
    """
    from repro.tensor.suite import WorkloadSpec, WorkloadSuite, _permuted_transpose

    ids: List[str] = []
    for entry in matrix_ids:
        ids.extend(parse_corpus_ids(str(entry)))
    duplicates = sorted({m for m in ids if ids.count(m) > 1})
    if duplicates:
        raise ValueError(
            f"duplicate corpus matrix id(s): {', '.join(duplicates)}; each "
            f"matrix may appear once per suite")
    catalog = resolve_catalog(manifest)
    descriptors = catalog.subset(ids)
    cache = cache or CorpusCache()
    names = _workload_names(descriptors)

    specs = []
    for descriptor, workload_name in zip(descriptors, names):
        specs.append(_corpus_workload_spec(
            WorkloadSpec, _permuted_transpose, descriptor, workload_name,
            cache, transport, offline))
    manifest_token = (str(Path(manifest).resolve())
                      if manifest is not None else None)
    return WorkloadSuite(specs, seed=seed,
                         cache_scope=("corpus", tuple(ids), manifest_token))


def _corpus_workload_spec(WorkloadSpec, _permuted_transpose,
                          descriptor: MatrixDescriptor, workload_name: str,
                          cache: CorpusCache,
                          transport: Optional[Transport],
                          offline: Optional[bool]):
    rows, cols, nnz = descriptor.rows, descriptor.cols, descriptor.nnz
    if rows is None or cols is None or nnz is None:
        path = cache.ensure_local(descriptor, transport=transport,
                                  offline=offline)
        try:
            rows, cols, nnz = _peek_dimensions(descriptor, path)
        except (OSError, ValueError) as error:
            raise CorpusError(
                f"failed to read the header of {descriptor.matrix_id} "
                f"from {path}: {error}") from error
    density = nnz / (rows * cols) if rows and cols else 0.0

    def build(rng: np.random.Generator) -> SparseMatrix:
        path = cache.ensure_local(descriptor, transport=transport,
                                  offline=offline)
        return _load_installed(descriptor, path, workload_name)

    def build_pair(rng: np.random.Generator) -> SparseMatrix:
        return _permuted_transpose(build(rng), rng)

    return WorkloadSpec(
        name=workload_name,
        category="corpus",
        description=(f"{descriptor.dataset} corpus matrix "
                     f"{descriptor.group}/{descriptor.name}"),
        paper_rows=int(rows),
        paper_cols=int(cols),
        paper_sparsity=max(0.0, 1.0 - density),
        builder=build,
        b_builder=build_pair,
    )
