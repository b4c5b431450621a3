"""Unit tests for frames, packets and categories."""

import dataclasses
import inspect

import pytest

from repro.geometry import Point
from repro.net import (
    BROADCAST,
    Category,
    Frame,
    NodeAnnouncement,
    Packet,
)
from repro.net.frames import reset_id_counters


class TestPacket:
    def test_broadcast_detection(self):
        packet = Packet(source="a", destination=BROADCAST, category="x")
        assert packet.is_broadcast

    def test_routed_packet(self):
        packet = Packet(
            source="a",
            destination="b",
            category=Category.FAILURE_REPORT,
            dest_location=Point(1, 2),
        )
        assert not packet.is_broadcast
        assert packet.hops == 0

    def test_packet_ids_are_unique(self):
        a = Packet(source="a", destination="b", category="x")
        b = Packet(source="a", destination="b", category="x")
        assert a.packet_id != b.packet_id

    def test_routing_state_is_per_packet(self):
        a = Packet(source="a", destination="b", category="x")
        b = Packet(source="a", destination="b", category="x")
        a.routing_state["mode"] = "perimeter"
        assert "mode" not in b.routing_state


class TestFrame:
    def test_broadcast_detection(self):
        frame = Frame(sender="a", link_destination=BROADCAST, packet=None)
        assert frame.is_broadcast

    def test_category_from_packet(self):
        packet = Packet(
            source="a", destination="b", category=Category.BEACON
        )
        frame = Frame(sender="a", link_destination="b", packet=packet)
        assert frame.category == Category.BEACON

    def test_ack_category(self):
        ack = Frame(
            sender="a",
            link_destination="b",
            packet=None,
            is_ack=True,
            ack_for=7,
        )
        assert ack.category == Category.ACK

    def test_payloadless_frame_category(self):
        frame = Frame(sender="a", link_destination="b", packet=None)
        assert frame.category == Category.DATA

    def test_frame_ids_are_unique(self):
        a = Frame(sender="a", link_destination="b", packet=None)
        b = Frame(sender="a", link_destination="b", packet=None)
        assert a.frame_id != b.frame_id


def assigned_fields(cls):
    return [f.name for f in dataclasses.fields(cls) if not f.init]


class TestHandWrittenConstructors:
    """Packet and Frame write their ``__init__`` out by hand; it must
    keep the signature and behaviour the dataclass fields describe."""

    @pytest.mark.parametrize("cls", [Packet, Frame])
    def test_parameters_match_the_fields(self, cls):
        params = list(inspect.signature(cls.__init__).parameters.values())
        assert params[0].name == "self"
        assert [(p.name, p.default) for p in params[1:]] == [
            (
                f.name,
                inspect.Parameter.empty
                if f.default is dataclasses.MISSING
                else f.default,
            )
            for f in dataclasses.fields(cls)
            if f.init
        ]

    def test_every_field_is_set(self):
        assert assigned_fields(Packet) == ["packet_id", "routing_state"]
        assert assigned_fields(Frame) == [
            "frame_id",
            "is_broadcast",
            "category",
        ]
        packet = Packet(source="a", destination="b", category="x")
        frame = Frame(sender="a", link_destination="b", packet=packet)
        for obj in (packet, frame):
            for field in dataclasses.fields(obj):
                getattr(obj, field.name)
        assert "is_broadcast" in Frame.__slots__
        assert "category" in Frame.__slots__

    def test_ids_are_consecutive_and_restart_at_one(self):
        for _ in range(2):
            reset_id_counters()
            packets = [
                Packet(source="a", destination="b", category="x")
                for _ in range(3)
            ]
            frames = [
                Frame(sender="a", link_destination="b", packet=packet)
                for packet in packets
            ]
            assert [p.packet_id for p in packets] == [1, 2, 3]
            assert [f.frame_id for f in frames] == [1, 2, 3]

    @pytest.mark.parametrize(
        "link_destination, has_packet, is_ack",
        [
            (BROADCAST, True, False),
            ("b", True, False),
            ("b", False, True),
            ("b", False, False),
            (BROADCAST, False, False),
        ],
        ids=["broadcast", "unicast", "ack", "packet-less", "bare-broadcast"],
    )
    def test_attributes_follow_the_property_rules(
        self, link_destination, has_packet, is_ack
    ):
        packet = (
            Packet(source="a", destination="b", category=Category.BEACON)
            if has_packet
            else None
        )
        frame = Frame(
            sender="a",
            link_destination=link_destination,
            packet=packet,
            is_ack=is_ack,
            ack_for=3 if is_ack else None,
        )
        if is_ack:
            category = Category.ACK
        elif packet is not None:
            category = packet.category
        else:
            category = Category.DATA
        assert frame.is_broadcast == (link_destination == BROADCAST)
        assert frame.category == category

    def test_each_packet_gets_its_own_routing_state(self):
        packets = [
            Packet(source="a", destination="b", category="x")
            for _ in range(4)
        ]
        assert all(p.routing_state == {} for p in packets)
        assert len({id(p.routing_state) for p in packets}) == len(packets)


class TestCategories:
    def test_all_lists_every_category(self):
        assert Category.FAILURE_REPORT in Category.ALL
        assert Category.LOCATION_UPDATE in Category.ALL
        assert Category.ACK in Category.ALL
        assert len(set(Category.ALL)) == len(Category.ALL)


class TestNodeAnnouncement:
    def test_fields(self):
        ann = NodeAnnouncement(
            node_id="robot-01", position=Point(3, 4), kind="robot"
        )
        assert ann.node_id == "robot-01"
        assert ann.position == Point(3, 4)
        assert ann.kind == "robot"

    def test_frozen(self):
        ann = NodeAnnouncement(
            node_id="x", position=Point(0, 0), kind="sensor"
        )
        try:
            ann.kind = "robot"
            raised = False
        except AttributeError:
            raised = True
        assert raised
