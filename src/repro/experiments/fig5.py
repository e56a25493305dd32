"""Figs. 3 and 5: buffet vs. Tailors management of an overbooked tile.

Two artifacts are reproduced:

* the **operation-by-operation trace** of Fig. 5 — a Tailor with capacity 4
  and a FIFO-managed region of 2 slots processing the 6-element tile
  ``a…f``, reporting the FIFO offset, the physical buffer offset accessed and
  the buffer contents after every step;
* the **reuse comparison** of Fig. 3 — the number of parent fetches a buffet
  and a Tailor need to serve repeated scans of an overbooked tile (the buffet
  must drop and re-fill the whole tile every pass; the Tailor re-streams only
  the bumped tail).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.reuse import ReuseReport, simulate_buffet_tile, simulate_tailors_tile
from repro.experiments.registry import register
from repro.core.tailors import Tailors, TailorsConfig
from repro.utils.text import format_table


@dataclass(frozen=True)
class TraceStep:
    """One row of the Fig. 5 operation table."""

    step: int
    operation: str
    tile_index: Optional[int]
    fifo_offset: int
    buffer_offset: Optional[int]
    contents: Tuple[Optional[str], ...]


@dataclass(frozen=True)
class Fig5Result:
    trace: List[TraceStep]
    buffet_report: ReuseReport
    tailors_report: ReuseReport

    @property
    def fetch_savings(self) -> float:
        """Factor by which Tailors reduces parent fetches vs. the buffet."""
        if self.tailors_report.parent_fetches == 0:
            return float("inf")
        return self.buffet_report.parent_fetches / self.tailors_report.parent_fetches


@register(name="fig5", artifact="Fig. 3/5",
          title="buffet vs. Tailors management of an overbooked tile",
          kernels=())
def run(*, capacity: int = 4, fifo_region: int = 2,
        tile_occupancy: int = 20, num_passes: int = 3) -> Fig5Result:
    """Reproduce the Fig. 5 trace and a Fig. 3-style reuse comparison."""
    tailor = Tailors(TailorsConfig(capacity=capacity, fifo_region_size=fifo_region))
    tile = ["a", "b", "c", "d", "e", "f"]
    trace: List[TraceStep] = []
    step = 0

    def record(operation: str, tile_index: Optional[int],
               buffer_offset: Optional[int]) -> None:
        nonlocal step
        step += 1
        trace.append(TraceStep(
            step=step,
            operation=operation,
            tile_index=tile_index,
            fifo_offset=tailor.fifo_offset,
            buffer_offset=buffer_offset,
            contents=tuple(tailor.contents()),
        ))

    # Fill until the buffer is full (the figure starts at Fill(d)).
    for index in range(capacity):
        tailor.fill(tile[index])
        record(f"Fill({tile[index]})", index, index)
    # First traversal beyond the buffer: the tile overbooks.
    record("Read(3)", 3, tailor.offset_of(3))
    tailor.overwriting_fill(tile[4], index=4)
    record("OWFill(e)", 4, tailor.offset_of(4))
    record("Read(4)", 4, tailor.offset_of(4))
    tailor.overwriting_fill(tile[5], index=5)
    record("OWFill(f)", 5, tailor.offset_of(5))
    record("Read(5)", 5, tailor.offset_of(5))
    # Second traversal: the head of the tile is still resident ...
    record("Read(0)", 0, tailor.offset_of(0))
    record("Read(1)", 1, tailor.offset_of(1))
    # ... while the bumped tail is streamed again.
    tailor.overwriting_fill(tile[2], index=2)
    record("OWFill(c)", 2, tailor.offset_of(2))
    record("Read(2)", 2, tailor.offset_of(2))
    tailor.overwriting_fill(tile[3], index=3)
    record("OWFill(d)", 3, tailor.offset_of(3))

    buffet_report = simulate_buffet_tile(tile_occupancy, capacity, num_passes)
    tailors_report = simulate_tailors_tile(tile_occupancy, capacity, fifo_region, num_passes)
    return Fig5Result(trace=trace, buffet_report=buffet_report,
                      tailors_report=tailors_report)


def format_result(result: Fig5Result) -> str:
    trace_table = format_table(
        ["step", "operation", "tile index", "FIFO offset", "buffer offset", "buffer"],
        [
            (s.step, s.operation,
             "-" if s.tile_index is None else s.tile_index,
             s.fifo_offset,
             "-" if s.buffer_offset is None else s.buffer_offset,
             " ".join("_" if c is None else str(c) for c in s.contents))
            for s in result.trace
        ],
        title="Fig. 5: Tailors operation trace (capacity 4, FIFO region 2)",
    )
    reuse_table = format_table(
        ["idiom", "tile occupancy", "capacity", "passes", "parent fetches",
         "reuse fraction"],
        [
            (r.idiom, r.tile_occupancy, r.capacity, r.num_passes, r.parent_fetches,
             f"{r.reuse_fraction:.1%}")
            for r in (result.buffet_report, result.tailors_report)
        ],
        title="Fig. 3: parent fetches for an overbooked tile",
    )
    return trace_table + "\n\n" + reuse_table + (
        f"\n\nTailors reduces parent fetches by {result.fetch_savings:.2f}x"
    )
