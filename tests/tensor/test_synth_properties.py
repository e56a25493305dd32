"""Property-based validation harness over random sparsity-model matrices.

Hypothesis drives random ``(model, params, seed)`` triples through the synth
registry and checks the tiling invariants the whole evaluation pipeline rests
on:

* **partition** — every stored nonzero lands in exactly one tile, for both
  the uniform-grid tile occupancies and the row-block coordinate-space tiling
  (the occupancy array sums to ``nnz`` and no tile is counted twice);
* **round-trip** — the structure-of-arrays :class:`~repro.tiling.base.Tiling`
  agrees tile-by-tile with a dense NumPy reference (counting nonzeros inside
  each tile's coordinate rectangle), i.e. the vectorized occupancy scan and
  the lazy ``Tile`` views describe the same partition;
* **reproducibility** — the same spec and seed regenerate the bit-identical
  matrix.

The suite-level reproducibility guarantees (tokens, scheduler workers) are
pinned by ``tests/tensor/test_synth.py`` and
``tests/experiments/test_synth_scheduler.py``; this module stresses the
geometry underneath them.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.tensor.synth import SynthSpec
from repro.tiling.coordinate import row_block_tiling

#: Keep generated matrices small: the point is structural diversity, not size.
_PROPERTY_SETTINGS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def synth_spec_strategy(draw) -> SynthSpec:
    """A random small spec from any registered model."""
    model = draw(st.sampled_from(
        ["uniform", "banded", "block_diagonal", "power_law_rows",
         "density_gradient"]))
    n = draw(st.integers(min_value=24, max_value=120))
    if model == "uniform":
        params = {"n": n, "nnz": draw(st.integers(1, max(1, n * n // 4)))}
    elif model == "banded":
        params = {
            "n": n,
            "bandwidth": draw(st.integers(1, max(1, n // 6))),
            "band_fill": draw(st.floats(0.05, 1.0)),
            "off_band_nnz": draw(st.integers(0, n)),
        }
    elif model == "block_diagonal":
        params = {
            "n": n,
            "block_size": draw(st.integers(1, n)),
            "block_fill": draw(st.floats(0.05, 1.0)),
            "off_block_nnz": draw(st.integers(0, n)),
        }
    elif model == "power_law_rows":
        params = {
            "n": n,
            "nnz": draw(st.integers(1, n * 4)),
            "alpha": draw(st.floats(0.3, 2.5)),
            "max_degree_fraction": draw(st.floats(0.01, 1.0)),
        }
    else:  # density_gradient
        params = {
            "n": n,
            "nnz": draw(st.integers(1, n * 4)),
            "gamma": draw(st.floats(0.0, 4.0)),
        }
    return SynthSpec(model, tuple(params.items()))


def _dense_tile_count(dense: np.ndarray, tile) -> int:
    block = dense[tile.row_range.start:tile.row_range.stop,
                  tile.col_range.start:tile.col_range.stop]
    return int(np.count_nonzero(block))


@_PROPERTY_SETTINGS
@given(spec=synth_spec_strategy(), seed=st.integers(0, 2 ** 31),
       tile_rows=st.integers(1, 40), tile_cols=st.integers(1, 40))
def test_uniform_tiling_partitions_every_nonzero(spec, seed, tile_rows,
                                                 tile_cols):
    matrix = spec.build(np.random.default_rng(seed))
    occupancies = matrix.tile_occupancies(tile_rows, tile_cols)
    grid_rows = -(-matrix.num_rows // tile_rows)
    grid_cols = -(-matrix.num_cols // tile_cols)
    assert len(occupancies) == grid_rows * grid_cols
    assert int(occupancies.sum()) == matrix.nnz


@_PROPERTY_SETTINGS
@given(spec=synth_spec_strategy(), seed=st.integers(0, 2 ** 31),
       tile_rows=st.integers(1, 40), tile_cols=st.integers(1, 40))
def test_uniform_tiling_matches_dense_reference(spec, seed, tile_rows,
                                                tile_cols):
    matrix = spec.build(np.random.default_rng(seed))
    dense = matrix.to_dense()
    # Row-major tile order over a grid anchored at the origin, boundary tiles
    # clipped to the matrix extent.
    expected = [int(np.count_nonzero(dense[row:row + tile_rows, col:col + tile_cols]))
                for row in range(0, matrix.num_rows, tile_rows)
                for col in range(0, matrix.num_cols, tile_cols)]
    assert matrix.tile_occupancies(tile_rows, tile_cols).tolist() == expected


@_PROPERTY_SETTINGS
@given(spec=synth_spec_strategy(), seed=st.integers(0, 2 ** 31),
       block_rows=st.integers(1, 40))
def test_row_block_tiling_matches_dense_reference(spec, seed, block_rows):
    matrix = spec.build(np.random.default_rng(seed))
    dense = matrix.to_dense()
    tiling = row_block_tiling(matrix, block_rows)
    assert int(tiling.occupancies().sum()) == matrix.nnz
    for tile in tiling:
        assert tile.num_cols == matrix.num_cols
        assert tile.occupancy == _dense_tile_count(dense, tile)


@_PROPERTY_SETTINGS
@given(spec=synth_spec_strategy(), seed=st.integers(0, 2 ** 31))
def test_soa_views_round_trip(spec, seed):
    """The SoA occupancy array and the lazy Tile views agree everywhere."""
    matrix = spec.build(np.random.default_rng(seed))
    tiling = row_block_tiling(matrix, 16)
    views = list(tiling)
    assert [tile.occupancy for tile in views] == tiling.occupancies().tolist()
    assert [tile.index for tile in views] == list(range(len(tiling)))
    for index in (0, len(tiling) - 1):
        tile = tiling[index]
        assert tile.index == views[index].index
        assert tile.row_range == views[index].row_range
        assert tile.col_range == views[index].col_range


@_PROPERTY_SETTINGS
@given(spec=synth_spec_strategy(), seed=st.integers(0, 2 ** 31))
def test_same_identity_regenerates_bit_identical(spec, seed):
    first = spec.build(np.random.default_rng(seed))
    second = spec.build(np.random.default_rng(seed))
    assert first == second
    assert np.array_equal(first.csr.indptr, second.csr.indptr)
    assert np.array_equal(first.csr.indices, second.csr.indices)
