"""Cross-validation of graph algorithms against networkx oracles.

networkx is a test-only dependency used as an independent reference
implementation: connectivity of unit-disk graphs, planarity of the
Gabriel subgraph, and domination of the efficient-broadcast relay set.
"""

import random

import pytest

networkx = pytest.importorskip("networkx")

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.deploy import is_connected
from repro.geometry import Point
from repro.net.neighbors import NeighborEntry
from repro.routing import gabriel_neighbors


def random_points(seed, count, side=300.0):
    rng = random.Random(seed)
    return [
        Point(rng.uniform(0, side), rng.uniform(0, side))
        for _ in range(count)
    ]


def unit_disk_graph(points, radius):
    graph = networkx.Graph()
    graph.add_nodes_from(range(len(points)))
    for i, a in enumerate(points):
        for j in range(i + 1, len(points)):
            if a.distance_to(points[j]) <= radius:
                graph.add_edge(i, j)
    return graph


class TestConnectivityOracle:
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=0, max_value=100_000),
        st.integers(min_value=1, max_value=50),
        st.floats(min_value=20.0, max_value=150.0),
    )
    def test_is_connected_matches_networkx(self, seed, count, radius):
        points = random_points(seed, count)
        ours = is_connected(points, radius)
        theirs = networkx.is_connected(unit_disk_graph(points, radius))
        assert ours == theirs


class TestGabrielPlanarity:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=100_000))
    def test_gabriel_subgraph_is_planar(self, seed):
        """The Gabriel graph of any point set is planar — the property
        face routing's correctness rests on."""
        points = random_points(seed, 30, side=250.0)
        radius = 90.0
        graph = networkx.Graph()
        graph.add_nodes_from(range(len(points)))
        for i, origin in enumerate(points):
            entries = [
                NeighborEntry(f"{j}", p, "sensor")
                for j, p in enumerate(points)
                if j != i and p.distance_to(origin) <= radius
            ]
            for kept in gabriel_neighbors(origin, entries):
                graph.add_edge(i, int(kept.node_id))
        is_planar, _embedding = networkx.check_planarity(graph)
        assert is_planar

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=100_000))
    def test_gabriel_preserves_connectivity(self, seed):
        """Planarization must not disconnect a connected UDG."""
        radius = 90.0
        points = random_points(seed, 30, side=220.0)
        full = unit_disk_graph(points, radius)
        if not networkx.is_connected(full):
            return  # property only claimed for connected inputs
        gabriel = networkx.Graph()
        gabriel.add_nodes_from(range(len(points)))
        for i, origin in enumerate(points):
            entries = [
                NeighborEntry(f"{j}", p, "sensor")
                for j, p in enumerate(points)
                if j != i and p.distance_to(origin) <= radius
            ]
            for kept in gabriel_neighbors(origin, entries):
                gabriel.add_edge(i, int(kept.node_id))
        assert networkx.is_connected(gabriel)


class TestRelaySetOracle:
    def test_relay_set_dominates_and_connects(self):
        from repro import Algorithm, ScenarioRuntime, paper_scenario
        from repro.net.radio import SENSOR_RANGE_M

        runtime = ScenarioRuntime(
            paper_scenario(
                Algorithm.FIXED,
                4,
                seed=41,
                efficient_broadcast=True,
                sensors_per_robot=25,
                sim_time_s=500.0,
            )
        )
        runtime.initialize()
        sensors = runtime.sensors_sorted()
        relay_ids = {
            s.node_id for s in sensors if runtime.is_relay(s.node_id)
        }
        positions = {s.node_id: s.position for s in sensors}

        graph = unit_disk_graph(
            [s.position for s in sensors], SENSOR_RANGE_M
        )
        index_of = {s.node_id: i for i, s in enumerate(sensors)}

        # Domination (networkx oracle).
        assert networkx.is_dominating_set(
            graph, {index_of[r] for r in relay_ids}
        )
        # Connectivity of the relay subgraph, per component of the
        # full graph (the greedy CDS seeds each component separately).
        relay_graph = graph.subgraph({index_of[r] for r in relay_ids})
        for component in networkx.connected_components(graph):
            relays_in_component = set(component) & set(relay_graph.nodes)
            if len(relays_in_component) > 1:
                assert networkx.is_connected(
                    relay_graph.subgraph(relays_in_component)
                )
