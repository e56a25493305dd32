"""MatrixMarket-style persistence for sparse matrices.

The evaluation suite is synthetic (see :mod:`repro.tensor.suite`), but users
who have the original SuiteSparse matrices can load them through this module
and run every experiment on the real data: the experiment harness accepts any
mapping from workload name to :class:`~repro.tensor.sparse.SparseMatrix`.

Only the coordinate (``coordinate real/pattern/integer general/symmetric``)
flavour of the MatrixMarket format is supported, which is what SuiteSparse
ships.
"""

from __future__ import annotations

import gzip
from pathlib import Path
from typing import IO, Iterable, Tuple, Union

import numpy as np

from repro.tensor.sparse import SparseMatrix

PathLike = Union[str, Path]


def _open_text(path: PathLike, mode: str) -> IO[str]:
    path = Path(path)
    if path.suffix == ".gz":
        return gzip.open(path, mode + "t")  # type: ignore[return-value]
    return open(path, mode)


def write_matrix_market(matrix: SparseMatrix, path: PathLike,
                        *, pattern: bool = False) -> None:
    """Write ``matrix`` in MatrixMarket coordinate format.

    Parameters
    ----------
    matrix:
        The matrix to persist.
    path:
        Output path; a ``.gz`` suffix triggers gzip compression.
    pattern:
        When true, only coordinates are written (``pattern`` field), matching
        how adjacency matrices are usually distributed.
    """
    rows, cols = matrix.coordinates()
    values = matrix.values()
    field = "pattern" if pattern else "real"
    with _open_text(path, "w") as handle:
        handle.write(f"%%MatrixMarket matrix coordinate {field} general\n")
        handle.write(f"% written by repro.tensor.io for workload {matrix.name}\n")
        handle.write(f"{matrix.num_rows} {matrix.num_cols} {matrix.nnz}\n")
        if pattern:
            for r, c in zip(rows, cols):
                handle.write(f"{r + 1} {c + 1}\n")
        else:
            for r, c, v in zip(rows, cols, values):
                handle.write(f"{r + 1} {c + 1} {v:.17g}\n")


def matrix_market_header(path: PathLike) -> Tuple[int, int, int, bool]:
    """Read only the banner and size line of a MatrixMarket file.

    Returns ``(rows, cols, stored_entries, symmetric)``.  ``stored_entries``
    is the entry count of the *file*; for ``symmetric`` files the loaded
    matrix mirrors off-diagonal entries, so its ``nnz`` is larger (up to 2×).
    Used by the workload-suite corpus path to populate spec metadata without
    parsing the entries (the matrix itself is loaded lazily on first use).
    """
    path = Path(path)
    with _open_text(path, "r") as handle:
        header = handle.readline()
        if not header.lower().startswith("%%matrixmarket"):
            raise ValueError(f"{path} is not a MatrixMarket file")
        symmetric = "symmetric" in header.lower().split()
        line = handle.readline()
        while line.startswith("%"):
            line = handle.readline()
        dims = line.split()
        if len(dims) != 3:
            raise ValueError(f"malformed size line: {line!r}")
        num_rows, num_cols, entries = (int(x) for x in dims)
    return num_rows, num_cols, entries, symmetric


def matrix_market_name(path: PathLike) -> str:
    """The default workload name for a MatrixMarket file (filename stem)."""
    return Path(path).name.replace(".mtx", "").replace(".gz", "")


def read_matrix_market(path: PathLike, name: str | None = None) -> SparseMatrix:
    """Read a MatrixMarket coordinate file into a :class:`SparseMatrix`.

    Handles the ``general`` and ``symmetric`` symmetries and the ``real``,
    ``integer`` and ``pattern`` fields.  Values of pattern matrices are set to
    1.0.
    """
    path = Path(path)
    with _open_text(path, "r") as handle:
        header = handle.readline()
        if not header.lower().startswith("%%matrixmarket"):
            raise ValueError(f"{path} is not a MatrixMarket file")
        tokens = header.lower().split()
        if "coordinate" not in tokens:
            raise ValueError("only coordinate-format MatrixMarket files are supported")
        pattern = "pattern" in tokens
        symmetric = "symmetric" in tokens

        line = handle.readline()
        while line.startswith("%"):
            line = handle.readline()
        dims = line.split()
        if len(dims) != 3:
            raise ValueError(f"malformed size line: {line!r}")
        num_rows, num_cols, nnz = (int(x) for x in dims)

        rows = np.empty(nnz, dtype=np.int64)
        cols = np.empty(nnz, dtype=np.int64)
        values = np.ones(nnz, dtype=np.float64)
        for i, entry in enumerate(_entries(handle, nnz)):
            parts = entry.split()
            rows[i] = int(parts[0]) - 1
            cols[i] = int(parts[1]) - 1
            if not pattern and len(parts) > 2:
                values[i] = float(parts[2])

    if symmetric:
        off_diagonal = rows != cols
        rows = np.concatenate([rows, cols[off_diagonal]])
        cols = np.concatenate([cols, rows[: nnz][off_diagonal]])
        values = np.concatenate([values, values[off_diagonal]])

    matrix_name = name or matrix_market_name(path)
    return SparseMatrix.from_coo(rows, cols, values, (num_rows, num_cols), name=matrix_name)


def _entries(handle: Iterable[str], count: int) -> Iterable[str]:
    emitted = 0
    for line in handle:
        line = line.strip()
        if not line or line.startswith("%"):
            continue
        yield line
        emitted += 1
        if emitted == count:
            return
    if emitted != count:
        raise ValueError(f"expected {count} entries but found {emitted}")
