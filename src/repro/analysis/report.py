"""Plain-text rendering of tables and figures."""

from __future__ import annotations

from typing import List

from repro.analysis.tables import TableData


def render_table(table: TableData) -> str:
    """Render a :class:`TableData` as an aligned plain-text table."""
    headers = [str(c) for c in table.columns]
    rows = [[str(v) for v in row] for row in table.rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines: List[str] = []
    if table.title:
        lines.append(table.title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def render_figure(figure, max_points: int = 12) -> str:
    """Render a :class:`FigureData` as a compact textual summary."""
    lines = [figure.title, f"  x: {figure.x_label} | y: {figure.y_label}"]
    for name, points in figure.series.items():
        if not points:
            lines.append(f"  {name}: (empty)")
            continue
        sampled = points
        if len(points) > max_points:
            step = len(points) / max_points
            sampled = [points[int(i * step)] for i in range(max_points)]
            if sampled[-1] != points[-1]:
                sampled.append(points[-1])
        rendered = ", ".join(f"({x:.3g}, {y:.3g})" for x, y in sampled)
        lines.append(f"  {name} [{len(points)} pts]: {rendered}")
    return "\n".join(lines)


def render_markdown_table(table: TableData) -> str:
    """Render a :class:`TableData` as GitHub-flavored markdown."""
    headers = [str(c) for c in table.columns]
    lines = ["| " + " | ".join(headers) + " |",
             "|" + "|".join("---" for _ in headers) + "|"]
    for row in table.rows:
        lines.append("| " + " | ".join(str(v) for v in row) + " |")
    return "\n".join(lines)
