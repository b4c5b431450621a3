"""Property-based tests for geographic routing on random networks."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.deploy import is_connected
from repro.geometry import Point
from repro.net import Category, Channel, NetworkNode, RadioConfig
from repro.net.neighbors import NeighborEntry
from repro.routing import RoutingStats, gabriel_neighbors
from repro.sim import RandomStreams, Simulator


class Probe(NetworkNode):
    kind = "sensor"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.delivered = []

    def on_packet_delivered(self, packet):
        self.delivered.append(packet)


def random_connected_points(seed, count, side=300.0, radio=70.0):
    rng = random.Random(seed)
    while True:
        points = [
            Point(rng.uniform(0, side), rng.uniform(0, side))
            for _ in range(count)
        ]
        if is_connected(points, radio):
            return points


entries_strategy = st.lists(
    st.builds(
        Point,
        st.floats(min_value=-100.0, max_value=100.0),
        st.floats(min_value=-100.0, max_value=100.0),
    ),
    min_size=0,
    max_size=15,
    unique=True,
)


class TestPlanarizationProperties:
    @settings(max_examples=60, deadline=None)
    @given(entries_strategy)
    def test_gabriel_matches_disk_oracle(self, positions):
        """An edge is kept iff no other entry lies strictly inside the
        disk whose diameter is the edge (to within the same 1e-9)."""
        origin = Point(0.0, 0.0)
        entries = [
            NeighborEntry(f"n{i:02d}", p, "sensor")
            for i, p in enumerate(positions)
            if p.distance_to(origin) > 1e-9
        ]

        def witnessed(candidate):
            cx = (origin.x + candidate.position.x) / 2.0
            cy = (origin.y + candidate.position.y) / 2.0
            ex = origin.x - candidate.position.x
            ey = origin.y - candidate.position.y
            radius_sq = (ex * ex + ey * ey) / 4.0
            for other in entries:
                if other is candidate:
                    continue
                dx = other.position.x - cx
                dy = other.position.y - cy
                if dx * dx + dy * dy < radius_sq - 1e-9:
                    return True
            return False

        expected = [e.node_id for e in entries if not witnessed(e)]
        kept = [e.node_id for e in gabriel_neighbors(origin, entries)]
        assert kept == expected

    @settings(max_examples=60, deadline=None)
    @given(entries_strategy)
    def test_single_neighbor_always_kept(self, positions):
        origin = Point(0.0, 0.0)
        for position in positions:
            if position.distance_to(origin) < 1e-9:
                continue
            entries = [NeighborEntry("only", position, "sensor")]
            assert len(gabriel_neighbors(origin, entries)) == 1

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_gabriel_graph_is_symmetric_on_udg(self, seed):
        """If u keeps edge (u,v), v keeps edge (v,u) — given both see
        the same witnesses, which holds on a symmetric unit-disk graph."""
        points = random_connected_points(seed, 25, side=200.0, radio=70.0)
        ids = [f"n{i:02d}" for i in range(len(points))]
        neighbor_sets = {}
        for i, origin in enumerate(points):
            entries = [
                NeighborEntry(ids[j], p, "sensor")
                for j, p in enumerate(points)
                if j != i and p.distance_to(origin) <= 70.0
            ]
            neighbor_sets[ids[i]] = {
                e.node_id for e in gabriel_neighbors(origin, entries)
            }
        for u, kept in neighbor_sets.items():
            for v in kept:
                assert u in neighbor_sets[v], (u, v)


class TestDeliveryProperties:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_greedy_face_delivers_on_connected_udg(self, seed):
        """GFG's guarantee: on a connected unit-disk graph with accurate
        tables, every routed packet reaches its destination."""
        radio = 70.0
        points = random_connected_points(seed, 30, side=300.0, radio=radio)
        sim = Simulator()
        streams = RandomStreams(seed)
        channel = Channel(sim, streams)
        stats = RoutingStats()
        nodes = []
        for index, point in enumerate(points):
            node = Probe(
                f"n{index:02d}",
                point,
                RadioConfig(range_m=radio),
                sim,
                channel,
                streams,
                routing_stats=stats,
            )
            nodes.append(node)
        for a in nodes:
            for b in nodes:
                if a is not b and a.position.distance_to(b.position) <= radio:
                    a.neighbor_table.upsert(
                        b.node_id, b.position, b.kind
                    )

        picker = random.Random(seed)
        pairs = [
            picker.sample(range(len(nodes)), 2) for _ in range(5)
        ]
        for source, target in pairs:
            nodes[source].send_routed(
                nodes[target].node_id,
                nodes[target].position,
                Category.DATA,
                (source, target),
            )
        sim.run(until=30.0)
        delivered = sum(len(n.delivered) for n in nodes)
        assert delivered == len(pairs)
        assert stats.dropped_count(Category.DATA) == 0
