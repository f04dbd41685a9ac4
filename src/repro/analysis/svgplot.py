"""Dependency-free SVG line charts for the reproduced figures.

Offline environments have no plotting stack, so this module renders
:class:`~repro.analysis.figures.FigureData` to standalone SVG: axes,
ticks, step/line series, and a legend.  Enough to eyeball every CDF and
time series the paper shows.
"""

from __future__ import annotations

import html
from typing import List

from repro.analysis.figures import FigureData
from repro.util.envelope import atomic_write

_PALETTE = ("#4269d0", "#efb118", "#ff725c", "#6cc5b0", "#3ca951",
            "#ff8ab7", "#a463f2", "#97bbf5", "#9c6b4e", "#9498a0")

_WIDTH, _HEIGHT = 720, 440
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 160, 50, 55


def _nice_ticks(low: float, high: float, count: int = 5) -> List[float]:
    if high <= low:
        high = low + 1.0
    span = high - low
    step = span / max(count - 1, 1)
    return [low + i * step for i in range(count)]


def _fmt(value: float) -> str:
    if value == int(value) and abs(value) < 1e6:
        return str(int(value))
    return f"{value:.3g}"


def render_svg(figure: FigureData,
               width: int = _WIDTH, height: int = _HEIGHT) -> str:
    """Render a figure as an SVG document string."""
    series = {name: pts for name, pts in figure.series.items() if pts}
    xs = [x for pts in series.values() for x, _ in pts]
    ys = [y for pts in series.values() for _, y in pts]
    x_lo, x_hi = (min(xs), max(xs)) if xs else (0.0, 1.0)
    y_lo, y_hi = (min(ys), max(ys)) if ys else (0.0, 1.0)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    plot_w = width - _MARGIN_L - _MARGIN_R
    plot_h = height - _MARGIN_T - _MARGIN_B

    def px(x: float) -> float:
        return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return _MARGIN_T + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    parts: List[str] = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}" '
        f'font-family="sans-serif" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{_MARGIN_L}" y="24" font-size="15" font-weight="bold">'
        f'{html.escape(figure.title)}</text>',
    ]

    # Axes and gridlines.
    for tick in _nice_ticks(x_lo, x_hi):
        x = px(tick)
        parts.append(f'<line x1="{x:.1f}" y1="{_MARGIN_T}" x2="{x:.1f}" '
                     f'y2="{_MARGIN_T + plot_h}" stroke="#eee"/>')
        parts.append(f'<text x="{x:.1f}" y="{_MARGIN_T + plot_h + 18}" '
                     f'text-anchor="middle">{_fmt(tick)}</text>')
    for tick in _nice_ticks(y_lo, y_hi):
        y = py(tick)
        parts.append(f'<line x1="{_MARGIN_L}" y1="{y:.1f}" '
                     f'x2="{_MARGIN_L + plot_w}" y2="{y:.1f}" stroke="#eee"/>')
        parts.append(f'<text x="{_MARGIN_L - 8}" y="{y + 4:.1f}" '
                     f'text-anchor="end">{_fmt(tick)}</text>')
    parts.append(f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" '
                 f'height="{plot_h}" fill="none" stroke="#999"/>')
    parts.append(f'<text x="{_MARGIN_L + plot_w / 2:.0f}" '
                 f'y="{height - 12}" text-anchor="middle" fill="#444">'
                 f'{html.escape(figure.x_label)}</text>')
    parts.append(f'<text x="18" y="{_MARGIN_T + plot_h / 2:.0f}" '
                 f'text-anchor="middle" fill="#444" transform="rotate(-90 18 '
                 f'{_MARGIN_T + plot_h / 2:.0f})">'
                 f'{html.escape(figure.y_label)}</text>')

    # Series (decimated for very dense CDFs).
    for index, (name, points) in enumerate(series.items()):
        color = _PALETTE[index % len(_PALETTE)]
        pts = points
        if len(pts) > 600:
            step = len(pts) / 600
            pts = [pts[int(i * step)] for i in range(600)] + [pts[-1]]
        path = " ".join(
            f"{'M' if i == 0 else 'L'}{px(x):.1f},{py(y):.1f}"
            for i, (x, y) in enumerate(pts))
        parts.append(f'<path d="{path}" fill="none" stroke="{color}" '
                     f'stroke-width="1.8"/>')
        legend_y = _MARGIN_T + 14 + index * 18
        legend_x = _MARGIN_L + plot_w + 12
        parts.append(f'<line x1="{legend_x}" y1="{legend_y - 4}" '
                     f'x2="{legend_x + 20}" y2="{legend_y - 4}" '
                     f'stroke="{color}" stroke-width="2.5"/>')
        parts.append(f'<text x="{legend_x + 26}" y="{legend_y}">'
                     f'{html.escape(name)}</text>')

    parts.append("</svg>")
    return "\n".join(parts)


def save_svg(figure: FigureData, path: str, **kwargs) -> None:
    """Render a figure and write it to ``path`` (temp-then-rename)."""
    with atomic_write(path) as handle:
        handle.write(render_svg(figure, **kwargs).encode("utf-8"))
