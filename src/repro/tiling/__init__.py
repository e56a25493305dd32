"""Tiling substrate: coordinate-space and position-space tiling strategies.

The paper (Sections 1–2) contrasts three pre-existing strategies with its
overbooking proposal:

* **uniform shape** coordinate-space tiling (CST) — fixed tile shape sized for
  the worst case (dense tile), zero tiling tax, very low buffer utilization;
* **prescient uniform shape** CST — the largest uniform shape whose *maximum
  observed* occupancy fits the buffer; high preprocessing (tiling tax), still
  low utilization for most tiles;
* **uniform occupancy** position-space tiling (PST) — tiles built to hold
  exactly the buffer capacity worth of nonzeros; high utilization but
  expensive runtime operand matching.

This subpackage implements all three (the overbooking strategy itself lives in
:mod:`repro.core.overbooking`), plus the occupancy-distribution statistics
used throughout the evaluation.
"""

from repro.tiling.base import Tile, Tiling, TilingTax
from repro.tiling.stats import OccupancyStats
from repro.tiling.coordinate import (
    dense_row_block_rows,
    prescient_row_block_rows,
    row_block_tiling,
)
from repro.tiling.position import position_space_tiling

__all__ = [
    "Tile",
    "Tiling",
    "TilingTax",
    "OccupancyStats",
    "dense_row_block_rows",
    "prescient_row_block_rows",
    "row_block_tiling",
    "position_space_tiling",
]
