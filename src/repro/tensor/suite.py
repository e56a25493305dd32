"""The synthetic evaluation workload suite (Table 2 of the paper).

The paper evaluates 22 SuiteSparse matrices.  This module defines a suite of
22 synthetic workloads, one per paper workload, generated with the
distribution class that matches the original matrix (FEM band, block FEM,
power-law graph, near-uniform graph, road network).  Dimensions are scaled
down (~1/16–1/64 of the originals) so that the entire evaluation pipeline runs
in seconds on a laptop; the per-matrix *structure class* — which is what
determines the tile-occupancy distribution and hence every result in the paper
— is preserved.

The realized characteristics of every synthetic workload (dimensions,
occupancy, sparsity) are what Table 2 of the reproduction reports; see
``repro.experiments.table2`` and EXPERIMENTS.md.

Use :func:`default_suite` for the full 22-workload suite and
:func:`small_suite` for a fast three-workload suite used by tests and the
quickstart example.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Hashable, Iterator, List, Optional, Sequence

import numpy as np

from repro.tensor import generators
from repro.tensor.io import matrix_market_header, matrix_market_name, read_matrix_market
from repro.tensor.sparse import SparseMatrix
from repro.utils.rng import RandomState, resolve_rng

#: A builder takes a numpy Generator and produces the workload matrix.
MatrixBuilder = Callable[[np.random.Generator], SparseMatrix]

#: Stream-index offset of derived paired operands (general SpMSpM ``B``
#: matrices): far away from any plausible workload position, so ``B`` streams
#: never collide with primary streams.
_PAIR_STREAM_OFFSET = 611_953


@dataclass(frozen=True)
class WorkloadSpec:
    """Description of one evaluation workload.

    Attributes
    ----------
    name:
        Workload name, matching the SuiteSparse matrix it stands in for.
    category:
        ``"linear-system"`` (top half of Table 2), ``"graph"`` (bottom half)
        or ``"corpus"`` for matrices loaded from MatrixMarket files.
    description:
        One-line description of the structure being mimicked.
    paper_rows, paper_cols:
        Dimensions of the original SuiteSparse matrix (for reference/reports).
    paper_sparsity:
        Sparsity of the original matrix as listed in Table 2.
    builder:
        Callable that generates the synthetic stand-in (or loads the corpus
        file).
    b_builder:
        Optional builder for the workload's *paired* sparse operand (the
        ``B`` of a general SpMSpM ``A × B``).  ``None`` (the default) derives
        ``B`` from ``builder`` on an independent random stream — same
        structure class, different instance.
    """

    name: str
    category: str
    description: str
    paper_rows: int
    paper_cols: int
    paper_sparsity: float
    builder: MatrixBuilder = field(repr=False, compare=False)
    b_builder: Optional[MatrixBuilder] = field(
        default=None, repr=False, compare=False)

    def build(self, rng: RandomState = None) -> SparseMatrix:
        """Generate the synthetic matrix for this workload."""
        return self.builder(resolve_rng(rng))

    def build_pair(self, rng: RandomState = None) -> SparseMatrix:
        """Generate the paired ``B`` operand (falls back to ``builder``)."""
        builder = self.b_builder or self.builder
        return builder(resolve_rng(rng))

    @classmethod
    def from_matrix_market(cls, path, *, name: str | None = None,
                           category: str = "corpus",
                           description: str | None = None) -> "WorkloadSpec":
        """A spec whose matrix is loaded from a MatrixMarket file.

        Only the banner and size line are read eagerly (for the spec
        metadata); the entries are parsed lazily by the suite on first
        :meth:`WorkloadSuite.matrix` call.  ``.gz``-compressed files are
        handled transparently.

        The paired operand (general SpMSpM's ``B``) of a corpus workload is a
        deterministically row/column-permuted transpose of the file's matrix:
        a genuinely distinct operand with the same occupancy distribution,
        and dimension-compatible with ``A`` whatever its shape.
        """
        path = Path(path)
        rows, cols, entries, symmetric = matrix_market_header(path)
        workload_name = name or matrix_market_name(path)
        # Stored entries of a symmetric file mirror off-diagonal; 2x is the
        # (tight, diagonal-free) upper bound on the loaded nnz — reference
        # metadata only, the real matrix reports its exact nnz.
        nnz_hint = entries * 2 if symmetric else entries
        density = nnz_hint / (rows * cols) if rows and cols else 0.0
        return cls(
            name=workload_name,
            category=category,
            description=description or f"MatrixMarket corpus matrix ({path.name})",
            paper_rows=rows,
            paper_cols=cols,
            paper_sparsity=max(0.0, 1.0 - density),
            builder=lambda rng: read_matrix_market(path, name=workload_name),
            b_builder=lambda rng: _permuted_transpose(
                read_matrix_market(path, name=workload_name), rng),
        )


def _permuted_transpose(matrix: SparseMatrix, rng: np.random.Generator) -> SparseMatrix:
    """A random row/column permutation of ``matrix``'s transpose.

    The default paired operand of corpus workloads: same nonzero count and
    occupancy distribution as the original, but a distinct instance, and its
    shape (``n × m``) composes with the original (``m × n``) under SpMSpM.
    """
    transposed = matrix.csr.T.tocsr()
    row_order = rng.permutation(transposed.shape[0])
    col_order = rng.permutation(transposed.shape[1])
    return SparseMatrix(transposed[row_order][:, col_order],
                        name=f"{matrix.name}.B")


#: Process-wide matrix cache for the *canonical* suites (``default_suite`` /
#: ``small_suite``).  Their specs are deterministic functions of the module
#: source, so matrices can be shared across suite instances — constructing a
#: fresh ``ExperimentContext`` does not regenerate 22 synthetic tensors.
#: Keyed by ``(cache_scope, seed, workload name)``; suites built from custom
#: specs have no scope and never share.  Manage it through
#: :func:`clear_shared_matrix_cache` / :func:`shared_matrix_cache_size`, not
#: by reaching into the dict.
_SHARED_MATRIX_CACHE: Dict[tuple, SparseMatrix] = {}


def clear_shared_matrix_cache() -> None:
    """Evict the process-wide matrix cache of the canonical suites.

    Dropping the matrices also drops every per-matrix derived-result cache
    (transposes, tilings, occupancy scans) hanging off them.  Benchmarks use
    this to measure genuinely cold runs; long sweeps over many seeds can use
    it to bound memory.  Suites already holding references keep their own
    per-instance caches — only *future* suite instances rebuild.
    """
    _SHARED_MATRIX_CACHE.clear()


def shared_matrix_cache_size() -> int:
    """Number of canonical-suite matrices currently cached process-wide."""
    return len(_SHARED_MATRIX_CACHE)


class WorkloadSuite:
    """An ordered collection of workloads with cached matrix construction.

    Parameters
    ----------
    specs:
        The workload specs, in suite order.
    seed:
        Base seed of the per-workload random streams.
    stream_indices:
        Optional per-name stream index overrides.  A workload's random stream
        is derived from ``seed`` and its *stream index* (by default its
        position in this suite); :meth:`subset` passes the parent's indices so
        subset matrices are bit-identical to the parent's without being built
        eagerly.
    cache_scope:
        Hashable token identifying a canonical spec set whose matrices may be
        shared process-wide: a scope string for the built-in suites
        (``default_suite`` / ``small_suite``), a ``("mtx", paths)`` tuple for
        :func:`corpus_suite`, or a ``("synth", spec tokens)`` tuple for
        :func:`synth_suite`.  ``None`` (the default for custom suites) keeps
        caching per-instance.
    """

    def __init__(self, specs: Sequence[WorkloadSpec], *, seed: int = 2023,
                 stream_indices: Dict[str, int] | None = None,
                 cache_scope: Hashable | None = None):
        names = [spec.name for spec in specs]
        if len(set(names)) != len(names):
            raise ValueError("workload names must be unique")
        self._specs: Dict[str, WorkloadSpec] = {spec.name: spec for spec in specs}
        self._order: List[str] = names
        self._seed = int(seed)
        self._cache: Dict[str, SparseMatrix] = {}
        self._pair_cache: Dict[str, SparseMatrix] = {}
        self._stream_indices: Dict[str, int] = {
            name: index for index, name in enumerate(names)
        }
        if stream_indices:
            unknown = [n for n in stream_indices if n not in self._specs]
            if unknown:
                raise KeyError(f"stream indices for unknown workloads: {unknown}")
            self._stream_indices.update(
                {name: int(index) for name, index in stream_indices.items()})
        self._cache_scope = cache_scope

    def __len__(self) -> int:
        return len(self._order)

    def __iter__(self) -> Iterator[WorkloadSpec]:
        return iter(self._specs[name] for name in self._order)

    def __contains__(self, name: str) -> bool:
        return name in self._specs

    @property
    def names(self) -> List[str]:
        """Workload names in suite order."""
        return list(self._order)

    @property
    def seed(self) -> int:
        """Base seed of the per-workload random streams."""
        return self._seed

    def stream_index(self, name: str) -> int:
        """The workload's random-stream index (its position in the suite it
        was first defined in; see :meth:`matrix`)."""
        if name not in self._specs:
            raise KeyError(f"unknown workload {name!r}; known: {self._order}")
        return self._stream_indices[name]

    def kernel_rng(self, name: str, salt: int) -> np.random.Generator:
        """A deterministic generator for kernel operands of workload ``name``.

        The stream is a pure function of ``(suite seed, workload stream
        index, salt)``, so dense kernel factors (SpMM features, SpMV vectors,
        SDDMM factors) are bit-identical whether built in this process or
        rebuilt by a scheduler worker from the suite token.
        """
        return np.random.default_rng(
            (self._seed, self.stream_index(name), int(salt)))

    @property
    def cache_token(self):
        """Hashable identity of a canonical suite, or ``None`` for custom ones.

        Two suites with the same token produce bit-identical matrices, so
        derived results (reports) may be shared between them.
        """
        if self._cache_scope is None:
            return None
        return (self._cache_scope, self._seed, tuple(self._order))

    def spec(self, name: str) -> WorkloadSpec:
        """The spec for ``name`` (raises ``KeyError`` if unknown)."""
        return self._specs[name]

    def matrix(self, name: str) -> SparseMatrix:
        """Build (and cache) the matrix for workload ``name``.

        Each workload draws from its own deterministic random stream derived
        from the suite seed and the workload's stream index (its position in
        the suite it was first defined in), so building workloads in any
        order or subset yields identical matrices.
        """
        if name not in self._specs:
            raise KeyError(f"unknown workload {name!r}; known: {self._order}")
        if name not in self._cache:
            index = self._stream_indices[name]
            shared_key = None
            if self._cache_scope is not None:
                shared_key = (self._cache_scope, self._seed, name)
                shared = _SHARED_MATRIX_CACHE.get(shared_key)
                if shared is not None:
                    self._cache[name] = shared
                    return shared
            stream = np.random.default_rng(self._seed * 1_000_003 + index)
            built = self._specs[name].build(stream)
            self._cache[name] = built
            if shared_key is not None:
                _SHARED_MATRIX_CACHE[shared_key] = built
        return self._cache[name]

    def paired_matrix(self, name: str) -> SparseMatrix:
        """Build (and cache) the paired ``B`` operand for workload ``name``.

        Used by the general-SpMSpM kernel (``A × B`` with distinct operands).
        When the spec declares no explicit ``b_builder`` the pair is derived
        from the workload's own builder on an independent deterministic
        stream (``stream index + _PAIR_STREAM_OFFSET``), i.e. a fresh
        instance of the same structure class.
        """
        if name not in self._specs:
            raise KeyError(f"unknown workload {name!r}; known: {self._order}")
        if name not in self._pair_cache:
            index = self._stream_indices[name]
            shared_key = None
            if self._cache_scope is not None:
                shared_key = (self._cache_scope, self._seed, name, "pair")
                shared = _SHARED_MATRIX_CACHE.get(shared_key)
                if shared is not None:
                    self._pair_cache[name] = shared
                    return shared
            stream = np.random.default_rng(
                self._seed * 1_000_003 + _PAIR_STREAM_OFFSET + index)
            built = self._specs[name].build_pair(stream)
            self._pair_cache[name] = built
            if shared_key is not None:
                _SHARED_MATRIX_CACHE[shared_key] = built
        return self._pair_cache[name]

    def matrices(self) -> Dict[str, SparseMatrix]:
        """Build all workloads and return them keyed by name."""
        return {name: self.matrix(name) for name in self._order}

    def subset(self, names: Sequence[str]) -> "WorkloadSuite":
        """A suite containing only the named workloads (same seed).

        The subset stays lazy: matrices already built by this suite are
        carried over, everything else is built on first use from the stream
        derived from the workload's position in the *parent* suite (so subset
        matrices are identical to the parent's).
        """
        missing = [n for n in names if n not in self._specs]
        if missing:
            raise KeyError(f"unknown workloads: {missing}")
        subset = WorkloadSuite(
            [self._specs[n] for n in names], seed=self._seed,
            stream_indices={n: self._stream_indices[n] for n in names},
            cache_scope=self._cache_scope,
        )
        for name in names:
            if name in self._cache:
                subset._cache[name] = self._cache[name]
            if name in self._pair_cache:
                subset._pair_cache[name] = self._pair_cache[name]
        return subset


def _linear(name: str, description: str, paper_rows: int, paper_sparsity: float,
            builder: MatrixBuilder) -> WorkloadSpec:
    return WorkloadSpec(
        name=name,
        category="linear-system",
        description=description,
        paper_rows=paper_rows,
        paper_cols=paper_rows,
        paper_sparsity=paper_sparsity,
        builder=builder,
    )


def _graph(name: str, description: str, paper_rows: int, paper_sparsity: float,
           builder: MatrixBuilder) -> WorkloadSpec:
    return WorkloadSpec(
        name=name,
        category="graph",
        description=description,
        paper_rows=paper_rows,
        paper_cols=paper_rows,
        paper_sparsity=paper_sparsity,
        builder=builder,
    )


def _default_specs() -> List[WorkloadSpec]:
    """The 22 synthetic stand-ins for Table 2, in the paper's order."""

    def banded(n: int, bw: int, fill: float, off: int, name: str) -> MatrixBuilder:
        return lambda rng: generators.banded_matrix(
            n, bandwidth=bw, band_fill=fill, off_band_nnz=off, rng=rng, name=name)

    def blockdiag(n: int, block: int, fill: float, off: int, name: str) -> MatrixBuilder:
        return lambda rng: generators.block_diagonal_matrix(
            n, block_size=block, block_fill=fill, off_block_nnz=off, rng=rng, name=name)

    def powerlaw(n: int, nnz: int, alpha: float, name: str) -> MatrixBuilder:
        return lambda rng: generators.power_law_matrix(n, nnz, alpha=alpha, rng=rng, name=name)

    def uniform(n: int, nnz: int, name: str) -> MatrixBuilder:
        return lambda rng: generators.uniform_random_matrix(n, n, nnz, rng=rng, name=name)

    def road(n: int, name: str) -> MatrixBuilder:
        return lambda rng: generators.road_network_matrix(
            n, extra_edge_fraction=0.05, num_clusters=10, cluster_size=150,
            cluster_fill=0.35, rng=rng, name=name)

    return [
        # ---- Linear-system matrices (top half of Table 2) -----------------
        _linear("rma10", "3D CFD of Charleston harbor; dense FEM band",
                46_835, 0.9989, banded(2_900, 24, 0.85, 6_000, "rma10")),
        _linear("cant", "FEM cantilever; wide dense band",
                62_451, 0.9990, banded(3_900, 30, 0.85, 8_000, "cant")),
        _linear("consph", "FEM concentric spheres; dense band",
                83_334, 0.99913, banded(5_200, 34, 0.85, 10_000, "consph")),
        _linear("shipsec1", "FEM ship section; banded with block structure",
                140_874, 0.99960, banded(6_200, 26, 0.85, 12_000, "shipsec1")),
        _linear("pwtk", "pressurized wind tunnel stiffness matrix",
                217_918, 0.99971, banded(7_200, 25, 0.85, 12_000, "pwtk")),
        _linear("cop20k_A", "accelerator cavity design; irregular band",
                121_192, 0.99982, banded(5_600, 14, 0.60, 18_000, "cop20k_A")),
        _linear("mac_econ_fwd500", "macroeconomic model; thin band + scatter",
                206_500, 0.99997, banded(6_600, 4, 0.55, 14_000, "mac_econ_fwd500")),
        _linear("mc2depi", "2D Markov-chain epidemiology model; tridiagonal-like",
                525_825, 0.999992, banded(8_200, 2, 0.95, 2_000, "mc2depi")),
        _linear("pdb1HYS", "protein structure; dense diagonal blocks",
                36_417, 0.9967, blockdiag(2_300, 44, 0.55, 5_000, "pdb1HYS")),
        # ---- Graph / data-analytics matrices (bottom half of Table 2) -----
        _graph("sx-mathoverflow", "Q&A interaction graph; power-law hubs",
               24_818, 0.9996, powerlaw(2_400, 26_000, 1.8, "sx-mathoverflow")),
        _graph("email-Enron", "email communication graph; power-law hubs",
               36_692, 0.99973, powerlaw(2_800, 30_000, 1.7, "email-Enron")),
        _graph("cage12", "DNA electrophoresis; near-uniform banded graph",
               130_228, 0.99988, banded(4_200, 8, 0.85, 36_000, "cage12")),
        _graph("soc-Epinions1", "trust network; heavy-tailed degrees",
               75_888, 0.99991, powerlaw(3_800, 28_000, 1.7, "soc-Epinions1")),
        _graph("soc-sign-epinions", "signed trust network; heavy-tailed degrees",
               131_828, 0.99995, powerlaw(4_600, 31_000, 1.7, "soc-sign-epinions")),
        _graph("p2p-Gnutella31", "peer-to-peer overlay; near-uniform sparse",
               62_586, 0.99996, uniform(3_200, 8_000, "p2p-Gnutella31")),
        _graph("sx-askubuntu", "Q&A interaction graph; power-law hubs",
               159_316, 0.99997, powerlaw(5_000, 32_000, 1.8, "sx-askubuntu")),
        _graph("amazon0312", "co-purchasing network; moderately skewed",
               400_727, 0.99998, powerlaw(8_000, 68_000, 1.3, "amazon0312")),
        _graph("patents_main", "patent citations; near-uniform sparse",
               240_547, 0.99999, uniform(7_600, 18_000, "patents_main")),
        _graph("email-EuAll", "email graph; extreme hubs, very sparse rows",
               265_214, 0.999994, powerlaw(8_400, 26_000, 2.0, "email-EuAll")),
        _graph("web-Google", "web graph; near-uniform at tile granularity",
               916_428, 0.9999958, uniform(10_500, 60_000, "web-Google")),
        _graph("webbase-1M", "web crawl; extremely skewed hub structure",
               1_000_005, 0.9999968, powerlaw(11_000, 46_000, 2.1, "webbase-1M")),
        _graph("roadNet-CA", "California road network; planar grid + dense cities",
               1_971_281, 0.9999986, road(14_000, "roadNet-CA")),
    ]


def default_suite(seed: int = 2023) -> WorkloadSuite:
    """The full 22-workload synthetic suite mirroring Table 2."""
    return WorkloadSuite(_default_specs(), seed=seed, cache_scope="table2")


def corpus_suite(paths: Sequence, *, seed: int = 2023) -> WorkloadSuite:
    """A suite of real matrices loaded from MatrixMarket files.

    Each path (``.mtx`` or ``.mtx.gz``) becomes one workload named after its
    filename stem; the matrices are parsed lazily and cached like the
    synthetic suites.  The suite's ``cache_token`` scope is the tuple
    ``("mtx", resolved paths)``, so corpus evaluations flow through the
    parallel scheduler exactly like the canonical suites — workers re-read
    the files from the same paths.
    """
    if not paths:
        raise ValueError("corpus_suite needs at least one MatrixMarket path")
    resolved = tuple(str(Path(p).resolve()) for p in paths)
    duplicates = sorted({path for path in resolved if resolved.count(path) > 1})
    if duplicates:
        raise ValueError(
            f"duplicate corpus path(s): {', '.join(duplicates)}; each matrix "
            f"may appear once per suite")
    specs = []
    for path in resolved:
        try:
            specs.append(WorkloadSpec.from_matrix_market(path))
        except (OSError, ValueError) as error:
            raise ValueError(
                f"failed to load corpus matrix {path}: {error}") from error
    names = [spec.name for spec in specs]
    if len(set(names)) != len(names):
        raise ValueError(f"corpus filenames must yield unique workload "
                         f"names, got {names}")
    return WorkloadSuite(specs, seed=seed, cache_scope=("mtx", resolved))


def synth_suite(specs: Sequence, *, seed: int = 2023) -> WorkloadSuite:
    """A suite of synthetic sparsity-model workloads (see :mod:`repro.tensor.synth`).

    ``specs`` mixes :class:`~repro.tensor.synth.SynthSpec` instances and CLI
    strings (``"model:param=value,..."``); each becomes one workload named
    after its model and non-default parameters.  The suite's ``cache_token``
    scope is ``("synth", spec tokens)`` — hashable and picklable — so
    synthetic evaluations flow through the parallel scheduler exactly like
    the canonical suites: workers regenerate the matrices bit-identically
    from ``(model, params, seed)`` via :func:`suite_from_token`.
    """
    from repro.tensor import synth  # synth imports WorkloadSpec from here

    if not specs:
        raise ValueError("synth_suite needs at least one sparsity-model spec")
    resolved = synth.synth_specs(specs)
    names = [spec.workload_name for spec in resolved]
    if len(set(names)) != len(names):
        raise ValueError(
            f"synth specs must be distinct (identical (model, params) pairs "
            f"collapse to one workload), got {names}")
    return WorkloadSuite(
        [spec.workload_spec() for spec in resolved], seed=seed,
        cache_scope=("synth", tuple(spec.token for spec in resolved)))


def suite_from_token(token: tuple) -> "WorkloadSuite":
    """Rebuild a canonical suite (or a subset of one) from its ``cache_token``.

    The token — ``(cache_scope, seed, workload order)`` — is hashable and
    picklable, so it can cross a process boundary where the suite itself (its
    specs hold closures) cannot.  Worker processes of the evaluation scheduler
    use this to reconstruct bit-identical suites from seeds; see
    :mod:`repro.experiments.scheduler`.

    Four scope layouts exist: a scope *string* naming a built-in canonical
    suite (``"table2"``, ``"small"``), the tuple ``("mtx", paths)`` of a
    :func:`corpus_suite` — rebuilt by re-reading the MatrixMarket files at
    the recorded absolute paths — the tuple ``("synth", spec tokens)`` of
    a :func:`synth_suite`, rebuilt by regenerating every matrix from its
    ``(model, params, seed)`` identity, and the tuple ``("corpus",
    matrix-ids, manifest)`` of a
    :func:`~repro.tensor.corpus.corpus_workload_suite`, rebuilt by resolving
    the recorded dataset IDs through the corpus cache (whose root workers
    find via ``$REPRO_CORPUS_CACHE``).

    Raises ``KeyError`` for tokens whose scope is not a canonical suite or
    whose order names unknown workloads.
    """
    scope, seed, order = token
    if isinstance(scope, tuple) and len(scope) == 3 and scope[0] == "corpus":
        from repro.tensor import corpus

        suite = corpus.corpus_workload_suite(
            list(scope[1]), manifest=scope[2], seed=int(seed))
    elif isinstance(scope, tuple) and len(scope) == 2 and scope[0] == "mtx":
        suite = corpus_suite(scope[1], seed=int(seed))
    elif isinstance(scope, tuple) and len(scope) == 2 and scope[0] == "synth":
        from repro.tensor import synth

        suite = synth_suite(
            [synth.spec_from_token(entry) for entry in scope[1]],
            seed=int(seed))
    else:
        try:
            builder = _CANONICAL_SUITE_BUILDERS[scope]
        except (KeyError, TypeError):
            raise KeyError(
                f"unknown canonical suite scope {scope!r}; "
                f"known: {sorted(_CANONICAL_SUITE_BUILDERS)}") from None
        suite = builder(int(seed))
    if list(order) != suite.names:
        suite = suite.subset(list(order))
    return suite


def small_suite(seed: int = 2023) -> WorkloadSuite:
    """A three-workload suite (one per structure class) for tests and demos."""
    small = [
        WorkloadSpec(
            name="tiny-fem",
            category="linear-system",
            description="small FEM band (test-scale stand-in for rma10)",
            paper_rows=46_835, paper_cols=46_835, paper_sparsity=0.9989,
            builder=lambda rng: generators.banded_matrix(
                600, bandwidth=12, band_fill=0.8, off_band_nnz=1_200, rng=rng, name="tiny-fem"),
        ),
        WorkloadSpec(
            name="tiny-social",
            category="graph",
            description="small power-law graph (test-scale stand-in for soc-Epinions1)",
            paper_rows=75_888, paper_cols=75_888, paper_sparsity=0.99991,
            builder=lambda rng: generators.power_law_matrix(
                700, 6_000, alpha=1.7, rng=rng, name="tiny-social"),
        ),
        WorkloadSpec(
            name="tiny-road",
            category="graph",
            description="small road network (test-scale stand-in for roadNet-CA)",
            paper_rows=1_971_281, paper_cols=1_971_281, paper_sparsity=0.9999986,
            builder=lambda rng: generators.road_network_matrix(
                900, num_clusters=6, cluster_size=24, cluster_fill=0.3, rng=rng,
                name="tiny-road"),
        ),
    ]
    return WorkloadSuite(small, seed=seed, cache_scope="small")


#: The built-in suites by the name requests use (``--suite``).
NAMED_SUITES: Dict[str, Callable[..., WorkloadSuite]] = {
    "full": default_suite,
    "quick": small_suite,
}

#: ``cache_scope`` → builder, used by :func:`suite_from_token` to reconstruct
#: canonical suites in scheduler worker processes.
_CANONICAL_SUITE_BUILDERS: Dict[str, Callable[[int], WorkloadSuite]] = {
    "table2": default_suite,
    "small": small_suite,
}
