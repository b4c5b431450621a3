"""Byte pins of the rendered figure studies at a tiny scale.

Every figure generator groups its runs and averages the replicates
before it renders a table and a claim checklist.  These tests hash the
``render()`` text and the unrounded series of each study, so any change
to the grid order, the grouping or the averaging shows up as a digest
mismatch, not as a silently different figure.  The scale (one or two seeds, 25 sensors per
robot on a grid, 2000 s horizons, two-value grids) keeps the whole file
to a few seconds; the digests say nothing about whether a claim holds.
"""

import hashlib

import pytest

from repro.deploy import Algorithm
from repro.experiments import (
    figure2_motion_overhead,
    figure3_hops,
    figure4_update_transmissions,
    sweep,
)
from repro.experiments.degraded import figure_degraded
from repro.experiments.resilience import (
    figure_resilience,
    figure_resilience_permanence,
)
from repro.experiments.verification import figure_verification

TINY = dict(sensors_per_robot=25, placement="grid")

STUDIES = {
    "resilience": lambda: figure_resilience(
        mtbf_values=(2_000.0, 8_000.0),
        seeds=(1,),
        sim_time_s=2_000.0,
        **TINY,
    ),
    "permanence": lambda: figure_resilience_permanence(
        permanent_p_values=(0.0, 1.0),
        robot_mtbf_s=2_000.0,
        seeds=(1,),
        sim_time_s=2_000.0,
        **TINY,
    ),
    "degraded": lambda: figure_degraded(
        seeds=(1,), sim_time_s=2_000.0, **TINY
    ),
    "verification": lambda: figure_verification(
        seeds=(1,), sim_time_s=2_000.0, **TINY
    ),
}

PAPER_FIGURES = {
    "2": figure2_motion_overhead,
    "3": figure3_hops,
    "4": figure4_update_transmissions,
}

EXPECTED = {
    "resilience": "434014d15c66da29",
    "permanence": "b8570b1d09bce762",
    "degraded": "6129ab0f015a36f3",
    "verification": "8de7a9103596a282",
    "2": "de92c3b8ece22746",
    "3": "f6de8197b3295eec",
    "4": "7e10b91dfe5c12e4",
}


def digest(figure):
    """The rendered text plus the full-precision series (the table
    rounds to two decimals)."""
    text = f"{figure.render()}\n{figure.x_values!r}\n{figure.series!r}"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(STUDIES))
def test_extension_figure_render_is_pinned(name):
    assert digest(STUDIES[name]()) == EXPECTED[name]


@pytest.fixture(scope="module")
def shared_grid():
    return sweep(
        Algorithm.ALL,
        robot_counts=(4,),
        seeds=(1, 2),
        sim_time_s=2_000.0,
        **TINY,
    )


@pytest.mark.parametrize("number", sorted(PAPER_FIGURES))
def test_paper_figure_render_is_pinned(shared_grid, number):
    figure = PAPER_FIGURES[number](
        robot_counts=(4,), seeds=(1, 2), sweep_result=shared_grid
    )
    assert digest(figure) == EXPECTED[number]
