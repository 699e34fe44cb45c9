"""Plain-text rendering of tables and series for the experiment harness.

The benchmark harness prints the same rows/series the paper's figures
report; these helpers keep that output consistent and diff-friendly.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence


def human_time(seconds: float) -> str:
    """Render a duration the way the paper discusses them (s / min / h)."""
    if seconds < 0:
        raise ValueError(f"negative duration: {seconds}")
    if seconds < 120:
        return f"{seconds:.1f} s"
    if seconds < 2 * 3600:
        return f"{seconds / 60:.1f} min"
    return f"{seconds / 3600:.2f} h"


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Render an aligned monospace table.

    >>> print(format_table(["a", "b"], [[1, 2.5]]))
    a  b
    -  ---
    1  2.5
    """
    str_rows: List[List[str]] = [[_cell(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError("row length does not match headers")
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip(),
        "  ".join("-" * w for w in widths),
    ]
    for row in str_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines)


def _cell(v: object) -> str:
    if isinstance(v, float):
        if v == 0:
            return "0"
        if abs(v) >= 1000:
            return f"{v:.0f}"
        if abs(v) >= 1:
            return f"{v:.3g}"
        return f"{v:.3g}"
    return str(v)
