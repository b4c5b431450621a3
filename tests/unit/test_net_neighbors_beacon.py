"""Unit tests for neighbour tables and the beacon service."""

import random

from repro.geometry import Point
from repro.net import (
    BeaconService,
    Category,
    Channel,
    NeighborEntry,
    NeighborTable,
    NetworkNode,
    NodeAnnouncement,
    sensor_radio,
)
from repro.routing import RoutingStats
from repro.sim import RandomStreams, Simulator

import pytest


class TestNeighborTable:
    def make(self):
        table = NeighborTable()
        table.upsert("a", Point(0, 0), "sensor")
        table.upsert("b", Point(10, 0), "sensor")
        table.upsert("r", Point(5, 5), "robot")
        return table

    def test_upsert_and_get(self):
        table = self.make()
        entry = table.get("a")
        assert entry is not None and entry.position == Point(0, 0)
        assert "a" in table and len(table) == 3

    def test_upsert_refreshes(self):
        table = self.make()
        table.upsert("a", Point(1, 1), "robot")
        entry = table.get("a")
        assert entry.position == Point(1, 1)
        assert entry.kind == "robot"
        assert len(table) == 3

    def test_remove(self):
        table = self.make()
        assert table.remove("a")
        assert not table.remove("a")
        assert "a" not in table

    def test_entries_sorted_by_id(self):
        table = self.make()
        assert [e.node_id for e in table.entries()] == ["a", "b", "r"]

    def test_bulk_insert_leaves_entries_id_sorted(self):
        table = self.make()
        held = table.entries()
        table.insert_all(
            [
                NeighborEntry("c", Point(1, 2), "sensor"),
                NeighborEntry("a", Point(3, 4), "robot"),
                NeighborEntry("0", Point(5, 6), "manager"),
            ]
        )
        assert [e.node_id for e in table.entries()] == [
            "0", "a", "b", "c", "r"
        ]
        assert (table.get("a").position, table.get("a").kind) == (
            Point(3, 4), "robot"
        )
        assert [e.node_id for e in held] == ["a", "b", "r"]

    def test_of_kind(self):
        table = self.make()
        assert [e.node_id for e in table.of_kind("robot")] == ["r"]

    def test_clear(self):
        table = self.make()
        table.clear()
        assert len(table) == 0

    @pytest.mark.parametrize("seed", range(5))
    def test_kept_rows_match_a_fresh_rebuild(self, seed):
        # Random inserts, bulk inserts, refreshes, removals and clears.
        # After every step the kept rows equal an id-sorted rebuild, and
        # a list handed out before the step still holds what it held.
        rng = random.Random(seed)
        table = NeighborTable()
        node_ids = [f"n{i}" for i in range(8)]
        for _ in range(300):
            before = table.entries()
            held = list(before)
            roll = rng.random()
            node_id = rng.choice(node_ids)
            refresh = roll < 0.6 and node_id in table
            if roll < 0.6:
                table.upsert(
                    node_id,
                    Point(rng.randint(0, 9), rng.randint(0, 9)),
                    rng.choice(["sensor", "robot"]),
                )
            elif roll < 0.7:
                table.insert_all(
                    NeighborEntry(
                        other_id,
                        Point(rng.randint(0, 9), rng.randint(0, 9)),
                        rng.choice(["sensor", "robot"]),
                    )
                    for other_id in rng.sample(node_ids, 3)
                )
            elif roll < 0.95:
                table.remove(node_id)
            else:
                table.clear()
            assert len(before) == len(held)
            assert all(a is b for a, b in zip(before, held))
            rebuilt = [table.get(nid) for nid in sorted(table.ids())]
            rows = table.entries()
            assert len(rows) == len(rebuilt)
            assert all(a is b for a, b in zip(rows, rebuilt))
            if refresh:
                assert table.entries() is before
            for kind in ("sensor", "robot"):
                assert table.of_kind(kind) == [
                    e for e in rebuilt if e.kind == kind
                ]


class TestBeaconService:
    def build_pair(self):
        sim = Simulator()
        streams = RandomStreams(5)
        channel = Channel(sim, streams)
        stats = RoutingStats()
        a = NetworkNode(
            "a", Point(0, 0), sensor_radio(), sim, channel, streams,
            routing_stats=stats,
        )
        b = NetworkNode(
            "b", Point(20, 0), sensor_radio(), sim, channel, streams,
            routing_stats=stats,
        )
        return sim, channel, a, b

    def test_beacons_fill_neighbor_tables(self):
        sim, channel, a, b = self.build_pair()
        BeaconService(a, period=10.0)
        sim.run(until=25.0)
        entry = b.neighbor_table.get("a")
        assert entry is not None
        assert entry.kind == "node"

    def test_beacon_cadence(self):
        sim, channel, a, b = self.build_pair()
        service = BeaconService(a, period=10.0)
        sim.run(until=45.0)
        # First beacon within one period, then every 10 s: 4-5 beacons.
        assert 4 <= service.beacons_sent <= 5
        assert (
            channel.stats.transmissions[Category.BEACON]
            == service.beacons_sent
        )

    def test_death_halts_beaconing(self):
        sim, channel, a, b = self.build_pair()
        service = BeaconService(a, period=10.0)
        sim.run(until=15.0)
        a.die()
        sent = service.beacons_sent
        sim.run(until=60.0)
        assert service.beacons_sent == sent

    def test_static_node_reuses_one_announcement(self):
        sim, channel, a, b = self.build_pair()
        sent = []
        channel.tracer.subscribe(
            "tx", lambda record: sent.append(record["frame"].packet.payload)
        )
        BeaconService(a, period=10.0)
        sim.run(until=35.0)
        assert len(sent) >= 3
        assert all(announcement is sent[0] for announcement in sent)
        assert sent[0] == NodeAnnouncement(
            node_id="a", position=Point(0, 0), kind="node"
        )

    def test_beacon_now_carries_the_current_position(self):
        sim, channel, a, b = self.build_pair()
        sent = []
        channel.tracer.subscribe(
            "tx", lambda record: sent.append(record["frame"].packet.payload)
        )
        service = BeaconService(a, period=10.0)
        service.beacon_now()
        a.move_to(Point(5, 5))
        service.beacon_now()
        sim.run(until=1.0)
        # Both went out before any periodic beacon: the MAC sends FIFO.
        assert sent[:2] == [
            NodeAnnouncement(node_id="a", position=Point(0, 0), kind="node"),
            NodeAnnouncement(node_id="a", position=Point(5, 5), kind="node"),
        ]

    def test_invalid_period_rejected(self):
        sim, channel, a, b = self.build_pair()
        with pytest.raises(ValueError):
            BeaconService(a, period=0.0)
