"""Fig. 1: tile-occupancy distribution of a fixed-size uniform-shape tiling.

The paper tiles a SuiteSparse tensor with a fixed (dense-worst-case) tile size
of 51.4 M points and observes that the maximum tile occupancy (31.6 K) is more
than three orders of magnitude smaller than the tile size, and that 90% of the
tiles hold less than 2 K nonzeros.  The reproduction performs the same
measurement on a suite workload: tile with a fixed square tile, report the
occupancy histogram and the headline percentiles, and compare them with the
uncompressed tile size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.experiments.registry import register
from repro.experiments.runner import ExperimentContext
from repro.tiling.stats import OccupancyStats
from repro.utils.text import format_histogram, format_table


@dataclass(frozen=True)
class Fig1Result:
    """Occupancy distribution of a fixed-size tiling of one workload."""

    workload: str
    tile_rows: int
    tile_cols: int
    tile_size: int
    num_tiles: int
    max_occupancy: int
    p90_occupancy: float
    p99_occupancy: float
    mean_occupancy: float
    histogram_counts: Tuple[int, ...]
    histogram_edges: Tuple[float, ...]

    @property
    def size_to_max_ratio(self) -> float:
        """Uncompressed tile size / maximum occupancy (≫ 1 for sparse tensors)."""
        if self.max_occupancy == 0:
            return float("inf")
        return self.tile_size / self.max_occupancy

    @property
    def max_to_p90_ratio(self) -> float:
        """Maximum occupancy / 90th-percentile occupancy (the paper reports >15×)."""
        if self.p90_occupancy == 0:
            return float("inf")
        return self.max_occupancy / self.p90_occupancy


@register(name="fig1", artifact="Fig. 1",
          title="occupancy distribution of fixed-size tiles",
          kernels=("gram",))
def run(context: ExperimentContext, *, workload: str | None = None,
        tile_fraction: float = 0.125, bins: int = 24) -> Fig1Result:
    """Measure the occupancy distribution of a fixed uniform-shape tiling.

    ``tile_fraction`` sets the tile edge as a fraction of the tensor edge
    (1/8 by default, giving an 8×8 grid of tiles like the paper's example).
    """
    if workload is None:
        # Pick the suite workload with the most skewed structure available:
        # prefer the road-network stand-in, else the first workload.
        names = context.workload_names
        workload = "roadNet-CA" if "roadNet-CA" in names else names[0]
    matrix = context.matrix(workload)

    tile_rows = max(1, int(matrix.num_rows * tile_fraction))
    tile_cols = max(1, int(matrix.num_cols * tile_fraction))
    occupancies = matrix.tile_occupancies(tile_rows, tile_cols, include_empty=True)
    stats = OccupancyStats(occupancies)
    counts, edges = stats.histogram(bins=bins)

    return Fig1Result(
        workload=workload,
        tile_rows=tile_rows,
        tile_cols=tile_cols,
        tile_size=tile_rows * tile_cols,
        num_tiles=int(occupancies.size),
        max_occupancy=int(stats.max),
        p90_occupancy=stats.percentile(90.0),
        p99_occupancy=stats.percentile(99.0),
        mean_occupancy=stats.mean,
        histogram_counts=tuple(int(c) for c in counts),
        histogram_edges=tuple(float(e) for e in edges),
    )


def format_result(result: Fig1Result) -> str:
    summary = format_table(
        ["quantity", "value"],
        [
            ("workload", result.workload),
            ("tile shape", f"{result.tile_rows} x {result.tile_cols}"),
            ("uncompressed tile size", result.tile_size),
            ("number of tiles", result.num_tiles),
            ("max tile occupancy", result.max_occupancy),
            ("90th percentile occupancy", f"{result.p90_occupancy:.0f}"),
            ("99th percentile occupancy", f"{result.p99_occupancy:.0f}"),
            ("mean occupancy", f"{result.mean_occupancy:.1f}"),
            ("tile size / max occupancy", f"{result.size_to_max_ratio:.1f}x"),
            ("max / 90th percentile", f"{result.max_to_p90_ratio:.1f}x"),
        ],
        title="Fig. 1: occupancy of fixed uniform-shape tiles",
    )
    histogram = format_histogram(
        list(result.histogram_edges), list(result.histogram_counts),
        title="Tile occupancy histogram")
    return summary + "\n\n" + histogram
