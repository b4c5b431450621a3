"""Unit tests for the Figure 3 / Figure 4 generators on tiny sweeps."""

import pytest

from repro.deploy import Algorithm
from repro.experiments import (
    figure3_hops,
    figure4_update_transmissions,
    sweep,
)

FAST = dict(
    sim_time_s=3_000.0,
    sensors_per_robot=25,
    placement="grid",
)


@pytest.fixture(scope="module")
def tiny_sweep():
    return sweep(
        (Algorithm.FIXED, Algorithm.DYNAMIC, Algorithm.CENTRALIZED),
        robot_counts=(4,),
        seeds=(1,),
        **FAST,
    )


class TestFigure3Generator:
    def test_series_structure(self, tiny_sweep):
        figure = figure3_hops(
            robot_counts=(4,), seeds=(1,), sweep_result=tiny_sweep
        )
        assert set(figure.series) == {
            "centralized: failure report",
            "centralized: repair request",
            "dynamic: failure report",
            "fixed: failure report",
        }
        for values in figure.series.values():
            assert len(values) == 1

    def test_request_below_report_even_tiny(self, tiny_sweep):
        figure = figure3_hops(
            robot_counts=(4,), seeds=(1,), sweep_result=tiny_sweep
        )
        report = figure.series["centralized: failure report"][0]
        request = figure.series["centralized: repair request"][0]
        assert request < report

    def test_render_contains_claims(self, tiny_sweep):
        figure = figure3_hops(
            robot_counts=(4,), seeds=(1,), sweep_result=tiny_sweep
        )
        rendered = figure.render()
        assert "Figure 3" in rendered
        assert rendered.count("[") >= 3  # one mark per claim


class TestFigure4Generator:
    def test_series_structure(self, tiny_sweep):
        figure = figure4_update_transmissions(
            robot_counts=(4,), seeds=(1,), sweep_result=tiny_sweep
        )
        assert set(figure.series) == {
            Algorithm.DYNAMIC,
            Algorithm.FIXED,
            Algorithm.CENTRALIZED,
        }

    def test_flood_ordering_holds_even_tiny(self, tiny_sweep):
        figure = figure4_update_transmissions(
            robot_counts=(4,), seeds=(1,), sweep_result=tiny_sweep
        )
        dynamic = figure.series[Algorithm.DYNAMIC][0]
        fixed = figure.series[Algorithm.FIXED][0]
        centralized = figure.series[Algorithm.CENTRALIZED][0]
        assert dynamic > fixed > centralized

    def test_all_claims_hold_property(self, tiny_sweep):
        figure = figure4_update_transmissions(
            robot_counts=(4,), seeds=(1,), sweep_result=tiny_sweep
        )
        assert figure.all_claims_hold == all(
            claim.holds for claim in figure.claims
        )
