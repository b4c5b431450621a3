"""Unit tests for the NetworkNode base class surface."""

import gc
import importlib
import pkgutil
import weakref

import pytest

from repro import __version__
from repro.geometry import Point
from repro.net import (
    Category,
    Channel,
    NetworkNode,
    Packet,
    RadioConfig,
    sensor_radio,
)
from repro.net.mac import ACK_TIMEOUT_S
from repro.routing import RoutingStats
from repro.sim import RandomStreams, RecordingSink, Simulator, Tracer


def build_node(node_id="n1", position=Point(0, 0), tracer=None, radio=None):
    sim = Simulator()
    streams = RandomStreams(1)
    channel = Channel(sim, streams, tracer=tracer)
    node = NetworkNode(
        node_id,
        position,
        radio or sensor_radio(),
        sim,
        channel,
        streams,
        routing_stats=RoutingStats(),
    )
    return sim, channel, node


class TestLifecycle:
    def test_die_is_idempotent(self):
        _sim, channel, node = build_node()
        node.die()
        node.die()
        assert not node.alive
        assert not channel.has_node("n1")

    def test_dead_node_ignores_frames(self):
        sim, channel, node = build_node()
        from repro.net import Frame

        node.die()
        node.handle_frame(
            Frame(sender="x", link_destination="n1", packet=None),
            "x",
            Point(1, 1),
        )  # must not raise

    def test_move_updates_position_and_emits_trace(self):
        tracer = Tracer()
        sink = RecordingSink()
        tracer.subscribe("move", sink)
        _sim, _channel, node = build_node(tracer=tracer)
        node.move_to(Point(5, 6))
        assert node.position == Point(5, 6)
        assert len(sink.records) == 1
        assert sink.records[0]["node"] == "n1"

    def test_death_emits_trace(self):
        tracer = Tracer()
        sink = RecordingSink()
        tracer.subscribe("node_death", sink)
        _sim, _channel, node = build_node(tracer=tracer)
        node.die()
        assert len(sink.records) == 1


class TestSendSurface:
    def test_send_routed_requires_location(self):
        _sim, _channel, node = build_node()
        with pytest.raises(ValueError):
            node.send_routed(
                "target", None, Category.DATA, "payload"
            )

    def test_send_routed_returns_packet(self):
        sim, channel, node = build_node()
        packet = node.send_routed(
            "ghost", Point(10, 0), Category.DATA, "x"
        )
        assert packet.destination == "ghost"
        assert packet.category == Category.DATA

    def test_send_broadcast_custom_size(self):
        sim, channel, node = build_node()
        packet = node.send_broadcast(Category.BEACON, "b", size_bits=128)
        assert packet.size_bits == 128
        assert packet.is_broadcast

    def test_default_location_hint_is_none(self):
        _sim, _channel, node = build_node()
        assert node.location_hint("anything") is None

    def test_repr_mentions_state(self):
        _sim, _channel, node = build_node()
        assert "up" in repr(node)
        node.die()
        assert "down" in repr(node)

    def test_repr_of_a_closed_node(self):
        _sim, _channel, node = build_node()
        node.close()
        assert repr(node) == "<NetworkNode closed>"


class TestDeathFreesTheNode:
    """A dead node is on no cycle: with the collector off, reference
    counting frees it once the last event queued for it has run."""

    @pytest.fixture(autouse=True)
    def collector_off(self):
        gc.collect()
        gc.disable()
        yield
        gc.enable()

    def test_a_queued_frame_holds_it_until_the_mac_wakes(self):
        sim, channel, node = build_node()
        node.send_broadcast(Category.BEACON, "b")  # a jittered wake-up
        node.die()
        dead = weakref.ref(node)
        del node
        assert dead() is not None
        assert sim.processed_events == 0
        sim.run()  # the MAC's wake-up, the only event
        assert sim.processed_events == 1
        assert dead() is None
        assert channel.stats.frames_sent == 0  # the frame was dropped

    def test_a_pending_ack_timer_holds_it_until_it_fires(self):
        lossy = RadioConfig(range_m=63.0, loss_rate=0.999)
        sim, channel, node = build_node(radio=lossy)
        NetworkNode("n2", Point(10, 0), lossy, sim, channel, node.streams)
        node.mac.send_packet(
            Packet(
                source="n1",
                destination="n2",
                category=Category.DATA,
                dest_location=Point(10, 0),
            ),
            "n2",
        )
        sim.run(until=0.01)  # sent once; its ack timer is armed
        assert channel.stats.frames_sent == 1
        node.die()
        dead = weakref.ref(node)
        del node
        sim.run(until=ACK_TIMEOUT_S)
        assert dead() is not None
        sim.run(until=1.0)
        assert dead() is None
        assert channel.stats.frames_sent == 1  # no retransmission
        assert not channel.stats.retransmissions


class TestPackageSurface:
    def test_version_string(self):
        assert __version__ == "1.0.0"

    def test_public_api_importable(self):
        # Every module's __all__ must resolve: a name that was deleted
        # or trimmed from the imports but left in __all__ fails here.
        import repro

        names = ["repro"] + sorted(
            info.name
            for info in pkgutil.walk_packages(repro.__path__, "repro.")
            if not info.name.endswith(".__main__")
        )
        assert len(names) > 90
        for name in names:
            module = importlib.import_module(name)
            for attribute in module.__all__:
                assert hasattr(module, attribute), f"{name}.{attribute}"
