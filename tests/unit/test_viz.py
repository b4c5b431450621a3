"""Unit tests for SVG field rendering."""

import xml.etree.ElementTree as ElementTree

import pytest

from repro import Algorithm, ScenarioRuntime, paper_scenario
from repro.geometry import Point, Rect
from repro.sim import RecordingSink, Tracer
from repro.viz import SvgCanvas, render_field_svg, trails_from_trace


@pytest.fixture(scope="module")
def small_runtime():
    config = paper_scenario(
        Algorithm.CENTRALIZED,
        4,
        seed=3,
        sim_time_s=1_500.0,
        sensors_per_robot=25,
        placement="grid",
    )
    tracer = Tracer()
    moves = RecordingSink()
    tracer.subscribe("move", moves)
    runtime = ScenarioRuntime(config, tracer=tracer)
    runtime.run()
    return runtime, moves


class TestSvg:
    def test_document_is_wellformed_xml(self, small_runtime):
        runtime, moves = small_runtime
        svg = render_field_svg(
            runtime, trails=trails_from_trace(moves.records)
        )
        root = ElementTree.fromstring(svg)
        assert root.tag.endswith("svg")

    def test_contains_sensors_robots_manager(self, small_runtime):
        runtime, _moves = small_runtime
        svg = render_field_svg(runtime, show_voronoi=False)
        circles = svg.count("<circle")
        expected = (
            len(runtime.sensors) + len(runtime.robots) + 1  # manager
        )
        assert circles == expected

    def test_voronoi_overlay_adds_polygons(self, small_runtime):
        runtime, _moves = small_runtime
        with_cells = render_field_svg(runtime, show_voronoi=True)
        without = render_field_svg(runtime, show_voronoi=False)
        assert with_cells.count("<polygon") > without.count("<polygon")

    def test_trails_rendered_as_polylines(self, small_runtime):
        runtime, moves = small_runtime
        trails = trails_from_trace(moves.records)
        assert trails  # robots moved during the run
        svg = render_field_svg(runtime, trails=trails)
        assert svg.count("<polyline") == len(
            [t for t in trails.values() if len(t) >= 2]
        )

    def test_trails_grouped_per_robot(self, small_runtime):
        _runtime, moves = small_runtime
        trails = trails_from_trace(moves.records)
        assert all(key.startswith("robot-") for key in trails)

    def test_canvas_y_axis_points_up(self):
        canvas = SvgCanvas(Rect.square(100.0), width_px=120, margin_px=10)
        low = canvas._map(Point(0, 0))
        high = canvas._map(Point(0, 100))
        assert high[1] < low[1]  # larger field-y => smaller pixel-y

    def test_text_escaped(self):
        canvas = SvgCanvas(Rect.square(100.0))
        canvas.text(Point(0, 0), "<&>")
        assert "&lt;&amp;&gt;" in canvas.to_svg()
