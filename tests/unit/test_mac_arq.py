"""Unit tests for the MAC's ARQ giving-up path."""

from repro.geometry import Point
from repro.net import (
    Category,
    Channel,
    NetworkNode,
    Packet,
    RadioConfig,
)
from repro.net.mac import MAX_RETRIES
from repro.routing import DropReason, RoutingStats
from repro.sim import RandomStreams, Simulator


class Probe(NetworkNode):
    kind = "sensor"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.link_failures = []

    def on_link_failure(self, frame):
        self.link_failures.append(frame)
        super().on_link_failure(frame)


class TestArqExhaustion:
    def test_gives_up_after_max_retries(self):
        sim = Simulator()
        streams = RandomStreams(2)
        channel = Channel(sim, streams)
        stats = RoutingStats()
        sender = Probe(
            "src",
            Point(0, 0),
            RadioConfig(range_m=63.0, loss_rate=0.999),
            sim,
            channel,
            streams,
            routing_stats=stats,
        )
        receiver = Probe(
            "dst",
            Point(10, 0),
            RadioConfig(range_m=63.0, loss_rate=0.999),
            sim,
            channel,
            streams,
            routing_stats=stats,
        )
        sender.neighbor_table.upsert("dst", Point(10, 0), "sensor")
        packet = Packet(
            source="src",
            destination="dst",
            category=Category.DATA,
            dest_location=Point(10, 0),
        )
        sender.mac.send_packet(packet, "dst")
        sim.run(until=5.0)
        # With ~100% loss every attempt dies; after the retry budget the
        # MAC reports the link failure and the router (with the only
        # neighbour evicted) drops the packet.
        assert len(sender.link_failures) == 1
        assert "dst" not in sender.neighbor_table
        assert (
            channel.stats.retransmissions.get(Category.DATA, 0)
            == MAX_RETRIES
        )
        assert (
            stats.drops.get((Category.DATA, DropReason.NO_NEIGHBORS), 0)
            + stats.drops.get(
                (Category.DATA, DropReason.LINK_FAILURE), 0
            )
            >= 1
        )

    def test_ack_cancels_retransmission(self):
        sim = Simulator()
        streams = RandomStreams(3)
        channel = Channel(sim, streams)
        stats = RoutingStats()
        # Tiny loss rate: ARQ machinery is armed but frames get through.
        sender = Probe(
            "src",
            Point(0, 0),
            RadioConfig(range_m=63.0, loss_rate=1e-9),
            sim,
            channel,
            streams,
            routing_stats=stats,
        )
        receiver = Probe(
            "dst",
            Point(10, 0),
            RadioConfig(range_m=63.0, loss_rate=1e-9),
            sim,
            channel,
            streams,
            routing_stats=stats,
        )
        sender.neighbor_table.upsert("dst", Point(10, 0), "sensor")
        packet = Packet(
            source="src",
            destination="dst",
            category=Category.DATA,
            dest_location=Point(10, 0),
        )
        sender.mac.send_packet(packet, "dst")
        sim.run(until=5.0)
        assert channel.stats.retransmissions.get(Category.DATA, 0) == 0
        assert sender.link_failures == []

