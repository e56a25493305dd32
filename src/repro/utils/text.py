"""Plain-text report formatting.

The experiment harness regenerates the paper's tables and figures as text
(tables for tables, aligned numeric series / ASCII histograms for figures) so
that no plotting dependency is required.  These helpers produce the formatted
output used by ``repro.experiments.report`` and the benchmark harness.
"""

from __future__ import annotations

from typing import Iterable, Sequence


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]],
                 *, title: str | None = None, float_fmt: str = "{:.3g}") -> str:
    """Render a list of rows as an aligned monospace table.

    Parameters
    ----------
    headers:
        Column names.
    rows:
        Iterable of rows; each row must have ``len(headers)`` entries.  Floats
        are formatted with ``float_fmt``, everything else with ``str``.
    title:
        Optional line printed above the table.
    float_fmt:
        Format string applied to float cells.
    """
    def render(cell: object) -> str:
        if isinstance(cell, float):
            return float_fmt.format(cell)
        return str(cell)

    rendered = [[render(c) for c in row] for row in rows]
    for i, row in enumerate(rendered):
        if len(row) != len(headers):
            raise ValueError(
                f"row {i} has {len(row)} cells but there are {len(headers)} headers"
            )
    widths = [len(h) for h in headers]
    for row in rendered:
        for j, cell in enumerate(row):
            widths[j] = max(widths[j], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[j]) for j, cell in enumerate(cells)).rstrip()

    parts: list[str] = []
    if title:
        parts.append(title)
    parts.append(line(list(headers)))
    parts.append("  ".join("-" * w for w in widths))
    parts.extend(line(row) for row in rendered)
    return "\n".join(parts)


def format_series(x: Sequence[object], y: Sequence[float], *, x_name: str = "x",
                  y_name: str = "y", title: str | None = None) -> str:
    """Render an ``(x, y)`` series as a two-column table (used for figure data)."""
    if len(x) != len(y):
        raise ValueError(f"x and y must have the same length, got {len(x)} and {len(y)}")
    return format_table([x_name, y_name], zip(x, y), title=title)


def format_histogram(bin_edges: Sequence[float], counts: Sequence[float], *,
                     title: str | None = None, width: int = 40) -> str:
    """Render a histogram as rows of ``[lo, hi)  count  bar`` with ASCII bars."""
    if len(bin_edges) != len(counts) + 1:
        raise ValueError(
            f"expected len(bin_edges) == len(counts) + 1, got {len(bin_edges)} and {len(counts)}"
        )
    peak = max(counts) if counts and max(counts) > 0 else 1.0
    rows = []
    for i, count in enumerate(counts):
        lo, hi = bin_edges[i], bin_edges[i + 1]
        bar = "#" * int(round(width * (count / peak)))
        rows.append((f"[{lo:.3g}, {hi:.3g})", count, bar))
    return format_table(["bin", "count", "histogram"], rows, title=title)
