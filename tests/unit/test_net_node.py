"""Unit tests for the NetworkNode base class surface."""

import importlib
import pkgutil

import pytest

from repro import __version__
from repro.geometry import Point
from repro.net import Category, Channel, NetworkNode, sensor_radio
from repro.routing import RoutingStats
from repro.sim import RandomStreams, RecordingSink, Simulator, Tracer


def build_node(node_id="n1", position=Point(0, 0), tracer=None):
    sim = Simulator()
    streams = RandomStreams(1)
    channel = Channel(sim, streams, tracer=tracer)
    node = NetworkNode(
        node_id,
        position,
        sensor_radio(),
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
