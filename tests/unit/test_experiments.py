"""Unit tests for the experiment harness (runner, renderer, figures)."""

import math

import pytest

from repro.deploy import Algorithm, paper_scenario
from repro.experiments import (
    ClaimCheck,
    figure2_motion_overhead,
    render_series_table,
    render_table,
    run_config,
    sweep,
)

FAST = dict(
    sim_time_s=2_000.0,
    sensors_per_robot=25,
    placement="grid",
)


class TestRenderTable:
    def test_basic_layout(self):
        text = render_table(
            ["name", "value"],
            [["alpha", 1.5], ["beta", 20]],
            title="demo",
        )
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "| alpha |  1.50 |" in text
        assert "|  beta |    20 |" in text

    def test_nan_rendered_as_dash(self):
        text = render_table(["x"], [[float("nan")]])
        assert "-" in text

    def test_empty_rows(self):
        text = render_table(["only", "headers"], [])
        assert "only" in text and "headers" in text

    def test_series_table(self):
        text = render_series_table(
            "robots",
            [4, 9],
            {"fixed": [1.0, 2.0], "dynamic": [3.0, 4.0]},
        )
        assert "| robots | fixed | dynamic |" in text
        assert "|      4 |  1.00 |    3.00 |" in text


class TestRunConfig:
    def test_returns_complete_report(self):
        report = run_config(
            paper_scenario(Algorithm.CENTRALIZED, 4, seed=8, **FAST)
        )
        assert report.failures >= 0
        assert "centralized" in report.description

    def test_deterministic(self):
        config = paper_scenario(Algorithm.CENTRALIZED, 4, seed=8, **FAST)
        assert (
            run_config(config).mean_travel_distance
            == run_config(config).mean_travel_distance
            or math.isnan(run_config(config).mean_travel_distance)
        )

    def test_on_runtime_hook_sees_the_live_runtime(self):
        """The hook receives the wired runtime before the run starts
        (the service's lease keeper watches it for liveness) without
        changing the result."""
        from repro.experiments import run_config_timed

        config = paper_scenario(Algorithm.FIXED, 4, seed=8, **FAST)
        seen = []
        report, duration = run_config_timed(
            config, on_runtime=seen.append
        )
        assert len(seen) == 1
        assert seen[0].sim.processed_events > 0  # the sim that ran
        assert duration >= 0.0
        plain, _ = run_config_timed(config)
        assert report.failures == plain.failures
        assert report.description == plain.description


class TestSweep:
    @pytest.fixture(scope="class")
    def grid(self):
        return sweep(
            (Algorithm.CENTRALIZED, Algorithm.FIXED),
            robot_counts=(4,),
            seeds=(1, 2),
            **FAST,
        )

    def test_grid_shape(self, grid):
        assert len(grid.points) == 2
        assert grid.algorithms() == ["centralized", "fixed"]
        assert grid.robot_counts() == [4]

    def test_point_lookup(self, grid):
        point = grid.point(Algorithm.FIXED, 4)
        assert point.algorithm == Algorithm.FIXED
        assert len(point.reports) == 2

    def test_missing_point_raises(self, grid):
        with pytest.raises(KeyError):
            grid.point(Algorithm.DYNAMIC, 4)

    def test_series_extraction(self, grid):
        series = grid.series(Algorithm.FIXED, "failures", [4])
        assert len(series) == 1
        assert series[0] > 0


class TestFigureGenerators:
    def test_figure_from_precomputed_sweep(self):
        grid = sweep(
            (Algorithm.FIXED, Algorithm.DYNAMIC, Algorithm.CENTRALIZED),
            robot_counts=(4,),
            seeds=(1,),
            **FAST,
        )
        figure = figure2_motion_overhead(
            robot_counts=(4,), seeds=(1,), sweep_result=grid
        )
        assert figure.x_values == (4,)
        assert set(figure.series) == {
            Algorithm.FIXED,
            Algorithm.DYNAMIC,
            Algorithm.CENTRALIZED,
        }
        rendered = figure.render()
        assert "Figure 2" in rendered
        assert "[PASS]" in rendered or "[FAIL]" in rendered

    def test_claim_check_str(self):
        ok = ClaimCheck(claim="c", holds=True, detail="d")
        bad = ClaimCheck(claim="c", holds=False, detail="d")
        assert str(ok).startswith("[PASS]")
        assert str(bad).startswith("[FAIL]")
