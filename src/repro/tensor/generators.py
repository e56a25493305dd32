"""Synthetic sparse matrix generators.

The paper evaluates on 22 SuiteSparse matrices (Table 2).  Those matrices are
not redistributable inside this repository, so the evaluation suite is built
from synthetic generators that reproduce the two *classes* of structure the
paper calls out, because those classes are what drive the results:

* **Linear-system matrices** (rma10, cant, consph, ...): symmetric-looking FEM
  matrices with a dense band around the diagonal and a light scatter of
  off-band entries.  Their tile-occupancy distribution is highly bimodal —
  diagonal tiles are dense, off-diagonal tiles nearly empty — which is the
  "deterministic high variability" case discussed in Section 6.2.
* **Graph matrices** (soc-Epinions1, web-Google, roadNet-CA, ...): power-law
  degree distributions (social/web graphs) or near-planar grids with localized
  dense clusters (road networks).  Power-law graphs give a heavy-tailed,
  *asymmetric* tile-occupancy distribution — few very dense tiles, many almost
  empty ones — which is where overbooking wins the most.

All generators:

* take an explicit random source (see :mod:`repro.utils.rng`), so the suite is
  deterministic;
* return a :class:`~repro.tensor.sparse.SparseMatrix` with values of 1.0
  (values do not matter for the traffic/energy model, only positions);
* guarantee the requested shape and approximately the requested occupancy
  (duplicates from random sampling are removed, so the realized nnz may be
  slightly below the request; the suite records the realized numbers).
"""

from __future__ import annotations

import numpy as np

from repro.tensor.sparse import SparseMatrix
from repro.utils.rng import RandomState, resolve_rng
from repro.utils.validation import check_fraction, check_positive_int


def _dedupe(rows: np.ndarray, cols: np.ndarray, num_cols: int) -> tuple[np.ndarray, np.ndarray]:
    """Remove duplicate (row, col) pairs, preserving no particular order.

    Equivalent to ``np.unique`` on the linearized keys (the result is the
    sorted unique key set) but via an explicit sort + neighbor mask, which is
    substantially faster than the hash-based unique for these sizes.
    """
    keys = rows.astype(np.int64) * np.int64(num_cols) + cols.astype(np.int64)
    if keys.size == 0:
        empty = keys.astype(np.int64)
        return empty, empty.copy()
    keys.sort(kind="quicksort")
    mask = np.empty(keys.size, dtype=bool)
    mask[0] = True
    np.not_equal(keys[1:], keys[:-1], out=mask[1:])
    unique = keys[mask]
    return (unique // num_cols).astype(np.int64), (unique % num_cols).astype(np.int64)


def _build(rows: np.ndarray, cols: np.ndarray, shape: tuple[int, int], name: str) -> SparseMatrix:
    rows, cols = _dedupe(np.asarray(rows), np.asarray(cols), shape[1])
    return SparseMatrix.from_coo(rows, cols, None, shape, name=name)


def _trim_to_nnz(rows: np.ndarray, cols: np.ndarray, nnz: int,
                 generator: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Uniformly downselect oversampled pairs to exactly ``nnz``.

    A no-op (and no generator draw) when at or below the target, so callers'
    random streams are unchanged whether or not they oversampled.
    """
    if len(rows) > nnz:
        keep = generator.choice(len(rows), size=nnz, replace=False)
        return rows[keep], cols[keep]
    return rows, cols


def uniform_random_matrix(num_rows: int, num_cols: int, nnz: int, *,
                          rng: RandomState = None,
                          name: str = "uniform") -> SparseMatrix:
    """Uniformly scattered nonzeros (no structure).

    This is the distribution Swiftiles' initial estimate is exact for: when
    nonzeros are uniform, a tile sized ``b / density`` holds ``b`` nonzeros in
    expectation (Section 4.2.1).
    """
    check_positive_int(num_rows, "num_rows")
    check_positive_int(num_cols, "num_cols")
    check_positive_int(nnz, "nnz")
    generator = resolve_rng(rng)
    # Oversample to compensate for duplicate removal.
    sample = min(int(nnz * 1.15) + 16, num_rows * num_cols)
    rows = generator.integers(0, num_rows, size=sample)
    cols = generator.integers(0, num_cols, size=sample)
    rows, cols = _dedupe(rows, cols, num_cols)
    rows, cols = _trim_to_nnz(rows, cols, nnz, generator)
    return _build(rows, cols, (num_rows, num_cols), name)


def banded_matrix(num_rows: int, *, bandwidth: int, band_fill: float = 0.6,
                  off_band_nnz: int = 0, rng: RandomState = None,
                  name: str = "banded") -> SparseMatrix:
    """FEM / linear-system style matrix: dense band plus off-band scatter.

    Parameters
    ----------
    num_rows:
        Matrix dimension (the matrix is square).
    bandwidth:
        Half-width of the band: nonzeros are placed at column offsets in
        ``[-bandwidth, +bandwidth]`` of the diagonal.
    band_fill:
        Fraction of in-band positions that are populated.
    off_band_nnz:
        Number of additional nonzeros scattered uniformly outside the band
        (models the long-range couplings present in e.g. rma10).
    """
    check_positive_int(num_rows, "num_rows")
    check_positive_int(bandwidth, "bandwidth")
    check_fraction(band_fill, "band_fill", inclusive_low=False)
    generator = resolve_rng(rng)

    per_row = max(1, int(round(band_fill * (2 * bandwidth + 1))))
    row_ids = np.repeat(np.arange(num_rows, dtype=np.int64), per_row)
    offsets = generator.integers(-bandwidth, bandwidth + 1, size=len(row_ids))
    col_ids = np.clip(row_ids + offsets, 0, num_rows - 1)

    if off_band_nnz > 0:
        extra_rows = generator.integers(0, num_rows, size=off_band_nnz)
        extra_cols = generator.integers(0, num_rows, size=off_band_nnz)
        row_ids = np.concatenate([row_ids, extra_rows])
        col_ids = np.concatenate([col_ids, extra_cols])

    # Make sure the diagonal itself is populated (FEM stiffness matrices are
    # diagonally dominant), which keeps A @ A^T well-behaved.
    diag = np.arange(num_rows, dtype=np.int64)
    row_ids = np.concatenate([row_ids, diag])
    col_ids = np.concatenate([col_ids, diag])
    return _build(row_ids, col_ids, (num_rows, num_rows), name)


def block_diagonal_matrix(num_rows: int, *, block_size: int, block_fill: float = 0.5,
                          off_block_nnz: int = 0, rng: RandomState = None,
                          name: str = "block-diagonal") -> SparseMatrix:
    """Block-diagonal matrix with dense blocks (models pdb1HYS-like structure)."""
    check_positive_int(num_rows, "num_rows")
    check_positive_int(block_size, "block_size")
    check_fraction(block_fill, "block_fill", inclusive_low=False)
    generator = resolve_rng(rng)

    rows_list = []
    cols_list = []
    for block_start in range(0, num_rows, block_size):
        block_stop = min(block_start + block_size, num_rows)
        extent = block_stop - block_start
        count = max(extent, int(round(block_fill * extent * extent)))
        rows_list.append(block_start + generator.integers(0, extent, size=count))
        cols_list.append(block_start + generator.integers(0, extent, size=count))
    rows = np.concatenate(rows_list)
    cols = np.concatenate(cols_list)

    if off_block_nnz > 0:
        rows = np.concatenate([rows, generator.integers(0, num_rows, size=off_block_nnz)])
        cols = np.concatenate([cols, generator.integers(0, num_rows, size=off_block_nnz)])
    diag = np.arange(num_rows, dtype=np.int64)
    rows = np.concatenate([rows, diag])
    cols = np.concatenate([cols, diag])
    return _build(rows, cols, (num_rows, num_rows), name)


def power_law_matrix(num_nodes: int, nnz: int, *, alpha: float = 1.6,
                     max_degree_fraction: float = 0.04,
                     rng: RandomState = None, name: str = "power-law") -> SparseMatrix:
    """Scale-free graph adjacency matrix with power-law degree distribution.

    Node ``i`` is sampled as an endpoint with probability proportional to
    ``(i + 1) ** -alpha``; rows and columns are drawn independently, which
    yields the hub-dominated structure of social/web graphs and therefore a
    heavy-tailed, highly skewed tile-occupancy distribution — exactly the
    regime in which the paper reports the largest overbooking benefit
    (e.g. webbase-1M, roadNet-CA with 5.7–6.3× over ExTensor-P).
    """
    check_positive_int(num_nodes, "num_nodes")
    check_positive_int(nnz, "nnz")
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    nnz = min(nnz, num_nodes * num_nodes)
    generator = resolve_rng(rng)

    weights = (np.arange(1, num_nodes + 1, dtype=np.float64)) ** (-alpha)
    weights /= weights.sum()

    # Give every node an out-degree proportional to its power-law weight (so
    # hub rows really do carry thousands of edges like real social graphs),
    # then draw the neighbour of each edge from the same skewed distribution.
    # The hub degree is capped at a fraction of the total edge count so that
    # no single row dwarfs the rest of the tensor (real SuiteSparse graphs
    # have heavy tails, not single rows holding most of the matrix).
    check_fraction(max_degree_fraction, "max_degree_fraction", inclusive_low=False)
    degree_cap = max(4, int(round(max_degree_fraction * nnz)))
    degrees = np.minimum(np.round(weights * nnz).astype(np.int64),
                         min(num_nodes, degree_cap))
    rows = np.repeat(np.arange(num_nodes, dtype=np.int64), degrees)
    # Neighbours are drawn mostly uniformly (few collisions, so hub degrees
    # survive deduplication) with a skewed minority that recreates the
    # hub-to-hub dense blocks of real social graphs.
    uniform_cols = generator.integers(0, num_nodes, size=len(rows))
    skewed_cols = generator.choice(num_nodes, size=len(rows), p=weights)
    use_skewed = generator.random(len(rows)) < 0.25
    cols = np.where(use_skewed, skewed_cols, uniform_cols)
    rows, cols = _dedupe(rows, cols, num_nodes)

    # Deduplication removes edges that collided inside hub rows; top the edge
    # list back up with uniformly chosen endpoints until the requested
    # occupancy is (approximately) reached.  Uniform top-up keeps the hub
    # degree cap intact while preserving the overall heavy tail.
    for _ in range(12):
        if len(rows) >= nnz:
            break
        deficit = nnz - len(rows)
        extra_rows = generator.integers(0, num_nodes, size=deficit)
        extra_cols = generator.integers(0, num_nodes, size=deficit)
        rows = np.concatenate([rows, extra_rows])
        cols = np.concatenate([cols, extra_cols])
        rows, cols = _dedupe(rows, cols, num_nodes)

    # Scatter hub identities across the coordinate space so the dense tiles do
    # not all land at the origin: apply a fixed pseudo-random permutation.
    permutation = generator.permutation(num_nodes)
    rows = permutation[rows]
    cols = permutation[cols]
    rows, cols = _trim_to_nnz(rows, cols, nnz, generator)
    return _build(rows, cols, (num_nodes, num_nodes), name)


def density_gradient_matrix(num_rows: int, num_cols: int, nnz: int, *,
                            gamma: float = 2.0, rng: RandomState = None,
                            name: str = "density-gradient") -> SparseMatrix:
    """Nonzeros whose density ramps smoothly toward the bottom-right corner.

    Row ``i`` (column ``j``) is sampled with probability proportional to
    ``((i + 1) / num_rows) ** gamma``, independently for rows and columns, so
    the local density grows polynomially along both axes.  ``gamma = 0`` is
    the uniform distribution; larger ``gamma`` concentrates the nonzeros in
    one corner and yields a *monotone* tile-occupancy gradient — a structure
    class no SuiteSparse stand-in covers, and a useful probe between the
    uniform case (Swiftiles' estimate is exact) and the heavy-tailed one
    (overbooking's best case).
    """
    check_positive_int(num_rows, "num_rows")
    check_positive_int(num_cols, "num_cols")
    check_positive_int(nnz, "nnz")
    if gamma < 0:
        raise ValueError(f"gamma must be non-negative, got {gamma}")
    generator = resolve_rng(rng)
    nnz = min(nnz, num_rows * num_cols)

    row_weights = ((np.arange(num_rows, dtype=np.float64) + 1.0) / num_rows) ** gamma
    row_weights /= row_weights.sum()
    col_weights = ((np.arange(num_cols, dtype=np.float64) + 1.0) / num_cols) ** gamma
    col_weights /= col_weights.sum()

    # Oversample, deduplicate, and top up: the skewed sampling collides much
    # more often than uniform sampling, so the realized nnz converges to the
    # request over a few rounds (bounded, like power_law_matrix's top-up).
    rows = np.empty(0, dtype=np.int64)
    cols = np.empty(0, dtype=np.int64)
    for _ in range(12):
        deficit = nnz - len(rows)
        if deficit <= 0:
            break
        sample = int(deficit * 1.2) + 16
        rows = np.concatenate([
            rows, generator.choice(num_rows, size=sample, p=row_weights)])
        cols = np.concatenate([
            cols, generator.choice(num_cols, size=sample, p=col_weights)])
        rows, cols = _dedupe(rows, cols, num_cols)
    rows, cols = _trim_to_nnz(rows, cols, nnz, generator)
    return _build(rows, cols, (num_rows, num_cols), name)


def road_network_matrix(num_nodes: int, *, extra_edge_fraction: float = 0.05,
                        num_clusters: int = 12, cluster_size: int = 64,
                        cluster_fill: float = 0.25, rng: RandomState = None,
                        name: str = "road-network") -> SparseMatrix:
    """Road-network style adjacency: near-planar grid plus dense "city" clusters.

    Road networks are almost planar (every junction touches a handful of
    roads) but contain small regions — cities — whose junction density is much
    higher.  The grid part produces the near-diagonal structure the paper
    describes for roadNet-CA; the clusters produce the "very few tiles with
    very high occupancy" asymmetry that makes overbooking so effective on it.
    """
    check_positive_int(num_nodes, "num_nodes")
    check_fraction(extra_edge_fraction, "extra_edge_fraction")
    check_fraction(cluster_fill, "cluster_fill", inclusive_low=False)
    generator = resolve_rng(rng)

    side = max(2, int(np.sqrt(num_nodes)))
    usable = side * side
    node = np.arange(usable, dtype=np.int64)
    x = node % side
    y = node // side

    rows_list = []
    cols_list = []
    # Horizontal neighbours.
    mask = x < side - 1
    rows_list.append(node[mask])
    cols_list.append(node[mask] + 1)
    # Vertical neighbours.
    mask = y < side - 1
    rows_list.append(node[mask])
    cols_list.append(node[mask] + side)
    rows = np.concatenate(rows_list)
    cols = np.concatenate(cols_list)
    # Make the adjacency symmetric like an undirected road graph.
    rows, cols = np.concatenate([rows, cols]), np.concatenate([cols, rows])

    num_extra = int(extra_edge_fraction * len(rows))
    if num_extra > 0:
        extra_rows = generator.integers(0, num_nodes, size=num_extra)
        extra_cols = generator.integers(0, num_nodes, size=num_extra)
        rows = np.concatenate([rows, extra_rows])
        cols = np.concatenate([cols, extra_cols])

    for _ in range(num_clusters):
        anchor = int(generator.integers(0, max(1, num_nodes - cluster_size)))
        count = max(1, int(round(cluster_fill * cluster_size * cluster_size)))
        cluster_rows = anchor + generator.integers(0, cluster_size, size=count)
        cluster_cols = anchor + generator.integers(0, cluster_size, size=count)
        rows = np.concatenate([rows, cluster_rows])
        cols = np.concatenate([cols, cluster_cols])

    rows = np.clip(rows, 0, num_nodes - 1)
    cols = np.clip(cols, 0, num_nodes - 1)
    return _build(rows, cols, (num_nodes, num_nodes), name)
