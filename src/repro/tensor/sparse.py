"""The :class:`SparseMatrix` workhorse.

The evaluation in the paper operates on two-dimensional sparse tensors
(matrices) from SuiteSparse.  ``SparseMatrix`` wraps a SciPy CSR matrix and
adds the operations the rest of the library needs:

* cheap global statistics (nnz, sparsity, density) used by Swiftiles' initial
  estimate (Eq. 2 of the paper needs only shape and nnz);
* fast *per-tile occupancy* counting for coordinate-space tilings, which
  drives every occupancy-distribution figure (Fig. 1, Fig. 6, Fig. 11–13);
* row/column structure queries used by the ExTensor dataflow model
  (intersection counting, per-row-block occupancies).

:class:`DenseOperand` stands in for a fully-dense operand (the dense factors
of SpMM, SpMV and SDDMM): it answers the occupancy queries of the tilers and
the engines from its shape alone, without storing a value or a coordinate.
"""

from __future__ import annotations

import itertools
from typing import Dict, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from repro.utils.validation import check_positive_int

#: Monotonically increasing identity tokens for cache keys (see ``uid``).
_UID_COUNTER = itertools.count()


def _read_only(array: np.ndarray) -> np.ndarray:
    """Mark ``array`` read-only so cached results cannot be mutated in place."""
    array.setflags(write=False)
    return array


class SparseMatrix:
    """An immutable two-dimensional sparse tensor backed by CSR storage.

    Parameters
    ----------
    matrix:
        Anything SciPy can turn into a CSR matrix (``scipy.sparse`` matrix,
        dense ``numpy`` array, ...).  Explicit zeros are eliminated so that
        ``nnz`` always means "number of stored nonzero values", matching the
        paper's definition of occupancy.
    name:
        Optional human-readable name (workload names such as ``"roadNet-CA"``).
    """

    def __init__(self, matrix: sp.spmatrix | np.ndarray, name: str = "unnamed"):
        self._init_from_csr(sp.csr_matrix(matrix, copy=True), name)

    @classmethod
    def _from_owned_csr(cls, csr: sp.csr_matrix, name: str) -> "SparseMatrix":
        """Wrap a CSR matrix the caller owns, without the defensive copy.

        Internal fast path for derived matrices (transposes, products) whose
        storage is freshly allocated and never aliased by the caller.
        """
        obj = cls.__new__(cls)
        obj._init_from_csr(sp.csr_matrix(csr, copy=False), name)
        return obj

    @classmethod
    def _from_canonical_csr(cls, csr: sp.csr_matrix, name: str) -> "SparseMatrix":
        """Wrap a CSR matrix already in canonical form, without normalizing.

        Canonical means: no explicit zeros, indices sorted within each row.
        The normalization pass in ``_init_from_csr`` *mutates* the CSR
        buffers, which is illegal for matrices whose arrays are read-only
        views into a shared-memory segment (:mod:`repro.tensor.shm`) — the
        exporter guarantees canonical form (every exported matrix came out of
        the normalizing constructor), so this trusted path just attaches.
        """
        obj = cls.__new__(cls)
        obj._attach_csr(csr, name)
        return obj

    def _init_from_csr(self, csr: sp.csr_matrix, name: str) -> None:
        csr.eliminate_zeros()
        csr.sort_indices()
        self._attach_csr(csr, name)

    def _attach_csr(self, csr: sp.csr_matrix, name: str) -> None:
        if csr.ndim != 2:
            raise ValueError("SparseMatrix only supports two-dimensional tensors")
        self._csr = csr
        self._name = str(name)
        # Memoized derived results.  A SparseMatrix is immutable, so every
        # pure function of the matrix can be cached on the instance; the
        # caches below are what lets the evaluation pipeline re-tile, re-scan
        # and re-transpose the same operand at array speed.
        self._uid = next(_UID_COUNTER)
        self._memo: Dict = {}
        self._transpose_cache: Optional["SparseMatrix"] = None
        self._coords_cache: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._row_block_occ_cache: Dict[int, np.ndarray] = {}
        self._tile_occ_cache: Dict[Tuple[int, int], np.ndarray] = {}

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_coo(cls, rows: Sequence[int], cols: Sequence[int],
                 values: Sequence[float] | None, shape: Tuple[int, int],
                 name: str = "unnamed") -> "SparseMatrix":
        """Build from coordinate lists.  ``values=None`` stores all ones.

        Duplicate coordinates are summed, mirroring SciPy COO semantics.
        """
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        if values is None:
            values = np.ones(len(rows), dtype=np.float64)
        values = np.asarray(values, dtype=np.float64)
        if not (len(rows) == len(cols) == len(values)):
            raise ValueError("rows, cols and values must have equal lengths")
        coo = sp.coo_matrix((values, (rows, cols)), shape=shape)
        return cls(coo, name=name)

    @classmethod
    def from_dense(cls, array: np.ndarray, name: str = "unnamed") -> "SparseMatrix":
        """Build from a dense NumPy array, dropping the zeros."""
        return cls(sp.csr_matrix(np.asarray(array)), name=name)

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #
    @property
    def name(self) -> str:
        """Workload name used in reports."""
        return self._name

    @property
    def uid(self) -> int:
        """Process-unique identity token (stable for the instance's lifetime).

        Used as part of cache keys by consumers that memoize derived results
        per matrix (e.g. the tiling cache in :mod:`repro.core.overbooking`).
        """
        return self._uid

    @property
    def memo(self) -> Dict:
        """Instance-scoped cache for derived results keyed by the caller.

        The matrix is immutable, so any pure function of it may store its
        result here (tilers cache :class:`~repro.core.overbooking.TilerResult`
        objects keyed by strategy and capacity).  Entries live exactly as long
        as the matrix, so the cache cannot leak across workloads.
        """
        return self._memo

    @property
    def csr(self) -> sp.csr_matrix:
        """The underlying SciPy CSR matrix (do not mutate)."""
        return self._csr

    @property
    def num_rows(self) -> int:
        return int(self._csr.shape[0])

    @property
    def num_cols(self) -> int:
        return int(self._csr.shape[1])

    @property
    def size(self) -> int:
        """Number of points (zeros and nonzeros) in the tensor."""
        return self.num_rows * self.num_cols

    @property
    def nnz(self) -> int:
        """Occupancy of the whole tensor: the number of stored nonzeros."""
        return int(self._csr.nnz)

    @property
    def density(self) -> float:
        """Fraction of points that are nonzero (``1 - sparsity``)."""
        return self.nnz / self.size if self.size else 0.0

    @property
    def sparsity(self) -> float:
        """Fraction of points that are zero, the paper's ``s``."""
        return 1.0 - self.density

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SparseMatrix(name={self._name!r}, shape={self._csr.shape}, "
            f"nnz={self.nnz}, sparsity={self.sparsity:.6f})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        if self._csr.shape != other._csr.shape:
            return False
        return (self._csr != other._csr).nnz == 0

    # ------------------------------------------------------------------ #
    # Structure queries
    # ------------------------------------------------------------------ #
    def row_occupancies(self) -> np.ndarray:
        """Number of nonzeros in each row (length ``num_rows``)."""
        return np.diff(self._csr.indptr).astype(np.int64)

    def col_occupancies(self) -> np.ndarray:
        """Number of nonzeros in each column (length ``num_cols``)."""
        return np.asarray(
            np.bincount(self._csr.indices, minlength=self.num_cols), dtype=np.int64
        )

    def coordinates(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(rows, cols)`` coordinate arrays of the nonzeros.

        The arrays are computed once and returned read-only; callers that
        need to reorder or scale them should copy (fancy indexing already
        does).
        """
        if self._coords_cache is None:
            coo = self._csr.tocoo()
            self._coords_cache = (_read_only(coo.row.astype(np.int64)),
                                  _read_only(coo.col.astype(np.int64)))
        return self._coords_cache

    def values(self) -> np.ndarray:
        """Nonzero values in CSR order."""
        return self._csr.data.copy()

    def transpose(self) -> "SparseMatrix":
        """Return the transposed tensor (used to form ``B = Aᵀ`` workloads).

        The result is computed once per matrix and cached; the transpose's own
        ``transpose()`` returns this matrix, so round trips are free.  The
        evaluation engine forms ``B = Aᵀ`` once per variant per level — the
        cache collapses those to a single CSR transpose per workload.
        """
        if self._transpose_cache is None:
            transposed = SparseMatrix._from_owned_csr(
                self._csr.T.tocsr(), name=f"{self._name}.T")
            transposed._transpose_cache = self
            self._transpose_cache = transposed
        return self._transpose_cache

    def to_dense(self) -> np.ndarray:
        """Materialize as a dense array (tests and tiny examples only)."""
        return np.asarray(self._csr.todense())

    # ------------------------------------------------------------------ #
    # Tile occupancy counting
    # ------------------------------------------------------------------ #
    def tile_occupancies(self, tile_rows: int, tile_cols: int,
                         *, include_empty: bool = True) -> np.ndarray:
        """Occupancy of every coordinate-space tile of shape (tile_rows, tile_cols).

        Tiles are laid out on a regular grid anchored at the origin; boundary
        tiles may be smaller.  The result is a 1-D array in row-major tile
        order whose length is ``ceil(M/tile_rows) * ceil(N/tile_cols)`` when
        ``include_empty`` is true, otherwise only the occupancies of tiles that
        contain at least one nonzero are returned.

        This is the primitive behind every occupancy-distribution figure: it
        costs one pass over the nonzeros (``O(nnz)``), independent of the
        number of tiles, which is exactly the cheap per-size measurement the
        prescient baseline has to repeat for every candidate size.
        """
        check_positive_int(tile_rows, "tile_rows")
        check_positive_int(tile_cols, "tile_cols")
        key = (tile_rows, tile_cols)
        counts = self._tile_occ_cache.get(key)
        if counts is None:
            grid_rows = -(-self.num_rows // tile_rows)
            grid_cols = -(-self.num_cols // tile_cols)
            rows, cols = self.coordinates()
            tile_ids = (rows // tile_rows) * grid_cols + (cols // tile_cols)
            counts = np.bincount(tile_ids, minlength=grid_rows * grid_cols)
            counts = _read_only(counts.astype(np.int64))
            self._tile_occ_cache[key] = counts
        if include_empty:
            return counts
        return counts[counts > 0]

    def row_block_occupancies(self, block_rows: int) -> np.ndarray:
        """Occupancy of every row-band tile of ``block_rows`` rows × full width.

        This is the tile construction the evaluated ExTensor dataflow uses for
        the stationary operand (expand along K first, to its full extent, then
        grow along M), so the per-block occupancies determine whether a global
        buffer tile fits or overbooks.
        """
        check_positive_int(block_rows, "block_rows")
        cached = self._row_block_occ_cache.get(block_rows)
        if cached is None:
            indptr = self._csr.indptr
            boundaries = np.arange(0, self.num_rows + block_rows, block_rows)
            boundaries = np.clip(boundaries, 0, self.num_rows)
            cumulative = indptr[boundaries]
            cached = _read_only(np.diff(cumulative).astype(np.int64))
            self._row_block_occ_cache[block_rows] = cached
        return cached

    # ------------------------------------------------------------------ #
    # Algebra helpers
    # ------------------------------------------------------------------ #
    def matmul(self, other: "SparseMatrix") -> "SparseMatrix":
        """Reference sparse-sparse matrix multiply (functional ground truth).

        Products are memoized per right-hand operand, so the operation-count
        pass and the reference kernel share a single SpGEMM per workload.
        """
        if self.num_cols != other.num_rows:
            raise ValueError(
                f"inner dimensions do not match: {self.num_cols} vs {other.num_rows}"
            )
        key = ("matmul", other.uid)
        cached = self._memo.get(key)
        if cached is None:
            product = self._csr @ other._csr
            cached = SparseMatrix._from_owned_csr(
                product, name=f"{self._name}@{other._name}")
            self._memo[key] = cached
        return cached


class DenseOperand:
    """A fully-dense ``num_rows × num_cols`` operand, described by its shape.

    The dense factors of SpMM, SpMV and SDDMM are fully occupied, so the
    model needs none of their values: a dense tile's occupancy is its area.
    ``DenseOperand`` answers the operand queries the tilers, Swiftiles and the
    engines make — shape statistics, per-row and per-row-band occupancies,
    the cached transpose, the instance ``memo`` — in closed form, bit-equal
    to a :class:`SparseMatrix` built from a dense array with no zero entry.
    It stores no coordinates and no CSR.
    """

    def __init__(self, num_rows: int, num_cols: int, name: str = "dense"):
        check_positive_int(num_rows, "num_rows")
        check_positive_int(num_cols, "num_cols")
        self._num_rows = int(num_rows)
        self._num_cols = int(num_cols)
        self._name = str(name)
        self._uid = next(_UID_COUNTER)
        self._memo: Dict = {}
        self._transpose_cache: Optional["DenseOperand"] = None
        self._row_block_occ_cache: Dict[int, np.ndarray] = {}

    @property
    def name(self) -> str:
        return self._name

    @property
    def uid(self) -> int:
        """Process-unique identity token (see :attr:`SparseMatrix.uid`)."""
        return self._uid

    @property
    def memo(self) -> Dict:
        """Instance-scoped cache for derived results (see :attr:`SparseMatrix.memo`)."""
        return self._memo

    @property
    def num_rows(self) -> int:
        return self._num_rows

    @property
    def num_cols(self) -> int:
        return self._num_cols

    @property
    def size(self) -> int:
        return self._num_rows * self._num_cols

    @property
    def nnz(self) -> int:
        """Every point is occupied."""
        return self.size

    @property
    def density(self) -> float:
        return 1.0

    @property
    def sparsity(self) -> float:
        return 0.0

    def row_occupancies(self) -> np.ndarray:
        """``num_cols`` nonzeros in each of the ``num_rows`` rows."""
        return np.full(self._num_rows, self._num_cols, dtype=np.int64)

    def row_block_occupancies(self, block_rows: int) -> np.ndarray:
        """Band heights × ``num_cols`` (see :meth:`SparseMatrix.row_block_occupancies`)."""
        check_positive_int(block_rows, "block_rows")
        cached = self._row_block_occ_cache.get(block_rows)
        if cached is None:
            boundaries = np.arange(0, self._num_rows + block_rows, block_rows)
            heights = np.diff(np.clip(boundaries, 0, self._num_rows))
            cached = _read_only(heights.astype(np.int64) * self._num_cols)
            self._row_block_occ_cache[block_rows] = cached
        return cached

    def transpose(self) -> "DenseOperand":
        """The ``num_cols × num_rows`` operand, cached both ways."""
        if self._transpose_cache is None:
            transposed = DenseOperand(self._num_cols, self._num_rows,
                                      name=f"{self._name}.T")
            transposed._transpose_cache = self
            self._transpose_cache = transposed
        return self._transpose_cache
