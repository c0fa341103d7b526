"""Plain-text table rendering for benchmark output.

The benchmark harness prints the same rows the paper's claims describe;
these helpers keep the formatting consistent and dependency-free.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Sequence


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[Any]],
    title: str = "",
) -> str:
    """Render an aligned ASCII table."""
    str_rows: List[List[str]] = [[_fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError("row length does not match headers")
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in str_rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(value: Any) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def format_markdown_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[Any]],
) -> str:
    """Render a GitHub-flavoured markdown table (used by metric reports)."""
    str_rows: List[List[str]] = [[_fmt(c) for c in row] for row in rows]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError("row length does not match headers")
    lines = [
        "| " + " | ".join(headers) + " |",
        "|" + "|".join("---" for _ in headers) + "|",
    ]
    for row in str_rows:
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines)


def format_series(
    points: Sequence[tuple],
    x_label: str = "x",
    y_label: str = "y",
) -> str:
    """Render an (x, y) series as an ASCII sparkline table (y in [0, 1+]),
    the largest y as a 40-character bar."""
    if not points:
        return "(empty series)"
    y_max = max(y for _x, y in points) or 1.0
    lines = [f"{x_label:>10} | {y_label}"]
    for x, y in points:
        bar = "#" * int(round(40 * y / y_max))
        lines.append(f"{x:>10.2f} | {y:.3f} {bar}")
    return "\n".join(lines)
