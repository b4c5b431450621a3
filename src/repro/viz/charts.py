"""Dependency-free SVG line charts for the regenerated figures.

Renders a :class:`~repro.experiments.figures.FigureResult` (or any x → series
mapping) as an SVG line chart in the style of the paper's matplotlib
figures: the figure's own x axis (robot count for the paper's figures),
one marked line per series, a legend, and a y axis starting at zero
like the originals.
"""

from __future__ import annotations

import typing
from xml.sax.saxutils import escape

__all__ = ["line_chart_svg", "figure_to_svg"]

_PALETTE = ("#1c6dd0", "#d1495b", "#26734d", "#b07c12", "#7d3bbd")
_MARKERS = ("circle", "square", "diamond", "triangle", "cross")


def line_chart_svg(
    x_values: typing.Sequence[float],
    series: typing.Mapping[str, typing.Sequence[float]],
    title: str = "",
    x_label: str = "",
    y_label: str = "",
    width: int = 560,
    height: int = 420,
) -> str:
    """An SVG line chart of *series* over *x_values*.

    The y axis spans from zero to a little above the data maximum,
    matching the paper's presentation.
    """
    if not x_values:
        raise ValueError("chart needs at least one x value")
    if not series:
        raise ValueError("chart needs at least one series")
    for name, values in series.items():
        if len(values) != len(x_values):
            raise ValueError(
                f"series {name!r} has {len(values)} values for "
                f"{len(x_values)} x positions"
            )

    margin_left, margin_right = 62, 16
    margin_top, margin_bottom = 34, 48
    plot_w = width - margin_left - margin_right
    plot_h = height - margin_top - margin_bottom

    x_min, x_max = min(x_values), max(x_values)
    x_span = (x_max - x_min) or 1.0
    y_max = max(
        (v for values in series.values() for v in values if v == v),
        default=1.0,
    )
    y_max = y_max * 1.1 or 1.0

    def sx(x: float) -> float:
        return margin_left + (x - x_min) / x_span * plot_w

    def sy(y: float) -> float:
        return margin_top + plot_h - (y / y_max) * plot_h

    parts: typing.List[str] = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}" '
        'font-family="Helvetica, Arial, sans-serif">',
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
    ]

    # Gridlines + y tick labels.
    ticks = 5
    for tick in range(ticks + 1):
        y_value = y_max * tick / ticks
        y_px = sy(y_value)
        parts.append(
            f'<line x1="{margin_left}" y1="{y_px:.1f}" '
            f'x2="{margin_left + plot_w}" y2="{y_px:.1f}" '
            'stroke="#e3e3e3" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{margin_left - 8}" y="{y_px + 4:.1f}" '
            'font-size="11" text-anchor="end" fill="#444">'
            f"{y_value:.0f}</text>"
        )

    # X ticks at the data points.
    for x in x_values:
        x_px = sx(x)
        parts.append(
            f'<line x1="{x_px:.1f}" y1="{margin_top + plot_h}" '
            f'x2="{x_px:.1f}" y2="{margin_top + plot_h + 5}" '
            'stroke="#444" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x_px:.1f}" y="{margin_top + plot_h + 18}" '
            'font-size="11" text-anchor="middle" fill="#444">'
            f"{x:g}</text>"
        )

    # Axes.
    parts.append(
        f'<line x1="{margin_left}" y1="{margin_top}" '
        f'x2="{margin_left}" y2="{margin_top + plot_h}" '
        'stroke="#222" stroke-width="1.5"/>'
    )
    parts.append(
        f'<line x1="{margin_left}" y1="{margin_top + plot_h}" '
        f'x2="{margin_left + plot_w}" y2="{margin_top + plot_h}" '
        'stroke="#222" stroke-width="1.5"/>'
    )

    # Series lines, markers, legend.
    legend_y = margin_top + 6
    for index, (name, values) in enumerate(series.items()):
        color = _PALETTE[index % len(_PALETTE)]
        points = [
            (sx(x), sy(v))
            for x, v in zip(x_values, values)
            if v == v  # skip NaN
        ]
        if len(points) >= 2:
            coords = " ".join(f"{x:.1f},{y:.1f}" for x, y in points)
            parts.append(
                f'<polyline points="{coords}" fill="none" '
                f'stroke="{color}" stroke-width="2"/>'
            )
        for x_px, y_px in points:
            parts.append(_marker(index, x_px, y_px, color))
        # Legend row (top-left inside the plot).
        lx = margin_left + 12
        ly = legend_y + index * 16
        parts.append(
            f'<line x1="{lx}" y1="{ly}" x2="{lx + 22}" y2="{ly}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(_marker(index, lx + 11, ly, color))
        parts.append(
            f'<text x="{lx + 28}" y="{ly + 4}" font-size="11" '
            f'fill="#222">{escape(name)}</text>'
        )

    if title:
        parts.append(
            f'<text x="{width / 2:.0f}" y="18" font-size="13" '
            f'text-anchor="middle" fill="#111">{escape(title)}</text>'
        )
    if x_label:
        parts.append(
            f'<text x="{margin_left + plot_w / 2:.0f}" '
            f'y="{height - 10}" font-size="12" text-anchor="middle" '
            f'fill="#222">{escape(x_label)}</text>'
        )
    if y_label:
        cx, cy = 16, margin_top + plot_h / 2
        parts.append(
            f'<text x="{cx}" y="{cy:.0f}" font-size="12" '
            f'text-anchor="middle" fill="#222" '
            f'transform="rotate(-90 {cx} {cy:.0f})">'
            f"{escape(y_label)}</text>"
        )

    parts.append("</svg>")
    return "\n".join(parts)


def _marker(index: int, x: float, y: float, color: str) -> str:
    kind = _MARKERS[index % len(_MARKERS)]
    if kind == "circle":
        return f'<circle cx="{x:.1f}" cy="{y:.1f}" r="3.5" fill="{color}"/>'
    if kind == "square":
        return (
            f'<rect x="{x - 3:.1f}" y="{y - 3:.1f}" width="6" height="6" '
            f'fill="{color}"/>'
        )
    if kind == "diamond":
        return (
            f'<rect x="{x - 3:.1f}" y="{y - 3:.1f}" width="6" height="6" '
            f'fill="{color}" transform="rotate(45 {x:.1f} {y:.1f})"/>'
        )
    if kind == "triangle":
        return (
            f'<polygon points="{x:.1f},{y - 4:.1f} {x - 4:.1f},{y + 3:.1f} '
            f'{x + 4:.1f},{y + 3:.1f}" fill="{color}"/>'
        )
    return (
        f'<path d="M {x - 3:.1f} {y - 3:.1f} L {x + 3:.1f} {y + 3:.1f} '
        f'M {x - 3:.1f} {y + 3:.1f} L {x + 3:.1f} {y - 3:.1f}" '
        f'stroke="{color}" stroke-width="2"/>'
    )


def figure_to_svg(figure: typing.Any, y_label: str = "") -> str:
    """Render a :class:`~repro.experiments.figures.FigureResult` as a chart."""
    return line_chart_svg(
        list(figure.x_values),
        {name: list(values) for name, values in figure.series.items()},
        title=figure.figure,
        x_label=figure.x_label,
        y_label=y_label,
    )
