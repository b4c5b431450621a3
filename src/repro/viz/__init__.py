"""Visualisation: dependency-free SVG rendering."""

from repro.viz.charts import figure_to_svg, line_chart_svg
from repro.viz.svg import SvgCanvas, render_field_svg, trails_from_trace

__all__ = [
    "SvgCanvas",
    "figure_to_svg",
    "line_chart_svg",
    "render_field_svg",
    "trails_from_trace",
]
