"""The paper's headline claims, checked at test scale.

The claims themselves are the ``ClaimCheck``s that the figure
generators attach to Figures 2-4 (``python -m repro figure 2|3|4``
prints the same checklist at full scale).  These tests run a smaller
grid (one seed, shorter horizon, 4 and 9 robots) in the
low-utilization regime the paper motivates ("robots spend most of the
time waiting", §4.1) and require every claim to hold on it.  No claim
is exempt at this scale.
"""

import pytest

from repro import Algorithm
from repro.experiments import (
    figure2_motion_overhead,
    figure3_hops,
    figure4_update_transmissions,
    sweep,
)

SCALE = dict(
    sim_time_s=16_000.0,
    robot_speed_mps=4.0,  # low-utilization regime, see module docstring
)

GENERATORS = {
    "2": figure2_motion_overhead,
    "3": figure3_hops,
    "4": figure4_update_transmissions,
}


@pytest.fixture(scope="module")
def figures():
    grid = sweep(
        Algorithm.ALL,
        robot_counts=(4, 9),
        seeds=(1,),
        **SCALE,
    )
    return {
        number: generator(
            robot_counts=(4, 9), seeds=(1,), sweep_result=grid
        )
        for number, generator in GENERATORS.items()
    }


def assert_claim(figure, fragment):
    """The one claim of *figure* whose text contains *fragment* holds."""
    (claim,) = [c for c in figure.claims if fragment in c.claim]
    assert claim.holds, str(claim)


@pytest.mark.parametrize("number", sorted(GENERATORS))
def test_every_figure_claim_holds(figures, number):
    claims = figures[number].claims
    failed = [str(claim) for claim in claims if not claim.holds]
    assert not failed


class TestClaimA_MotionOverhead:
    """(a) centralized and dynamic have lower motion overhead than
    fixed."""

    def test_ordering_at_nine_robots(self, figures):
        assert_claim(figures["2"], "fixed has the highest motion overhead")
        assert_claim(figures["2"], "dynamic saves")

    def test_dynamic_close_to_centralized(self, figures):
        assert_claim(figures["2"], "dynamic tracks centralized")


class TestClaimB_Scalability:
    """(b) the centralized algorithm is less scalable: its hop counts
    grow with the network while the distributed ones stay flat."""

    def test_centralized_hops_grow(self, figures):
        assert_claim(figures["3"], "centralized report hops grow")

    def test_distributed_hops_flat_around_two(self, figures):
        assert_claim(figures["3"], "stay flat around two")
        assert_claim(figures["3"], "within 1-10 hops")

    def test_requests_cheaper_than_reports(self, figures):
        # The manager's 250 m radio shortens the first hop of every
        # repair request.
        assert_claim(figures["3"], "more hops than requests")


class TestClaimC_MessagingOverhead:
    """(c) the distributed algorithms have higher messaging cost."""

    def test_location_update_ordering(self, figures):
        assert_claim(figures["4"], "far more update transmissions")
        assert_claim(figures["4"], "dynamic pays slightly more than fixed")
        assert_claim(figures["4"], "centralized routed updates")

    def test_flood_size_tracks_subarea_population(self, figures):
        assert_claim(figures["4"], "a subarea flood costs")


class TestDeliveryClaim:
    """Reports are delivered essentially always (paper: "100% delivery
    ratio due to the high density of sensor nodes and low traffic")."""

    def test_delivery_ratio_near_one(self, figures):
        assert_claim(figures["3"], "failure reports are delivered")

    def test_failures_repaired(self, figures):
        assert_claim(figures["2"], "repairs >= 90% of its failures")
        assert_claim(figures["2"], "field-scale distances")
