"""Plain-text table emitters for the experiment reports.

Every report prints the same rows/series the paper reports; these
helpers keep that output consistent and machine-checkable.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.errors import AnalysisError


def format_table(headers: Sequence[str], rows: Sequence[Sequence],
                 title: str = "") -> str:
    """Render an ASCII table with right-aligned numeric-ish columns.

    Args:
        headers: column names.
        rows: row cells; values are rendered with ``str`` (format numbers
            before passing them in).
        title: optional title line printed above the table.

    Raises:
        AnalysisError: if a row's width does not match the header width.
    """
    if not headers:
        raise AnalysisError("table needs at least one column")
    str_rows: List[List[str]] = []
    for row in rows:
        if len(row) != len(headers):
            raise AnalysisError(
                f"row width {len(row)} does not match header width {len(headers)}"
            )
        str_rows.append([str(cell) for cell in row])

    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def fmt_line(cells: Sequence[str]) -> str:
        return "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(cells))

    lines = []
    if title:
        lines.append(title)
    lines.append(fmt_line(headers))
    lines.append("  ".join("-" * w for w in widths))
    lines.extend(fmt_line(row) for row in str_rows)
    return "\n".join(lines)
