"""Unit tests for the channel (delivery, ranges, loss) and MAC (queueing,
jitter, ARQ)."""

import pytest

from repro.geometry import Point
from repro.net import (
    BROADCAST,
    Category,
    Channel,
    Frame,
    Mac,
    NetworkNode,
    NodeAnnouncement,
    Packet,
    RadioConfig,
    robot_radio,
    sensor_radio,
)
from repro.routing import RoutingStats
from repro.sim import RandomStreams, Simulator, Tracer


class Recorder(NetworkNode):
    """A node that records everything handed up by the link layer."""

    kind = "sensor"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.broadcasts = []
        self.delivered = []
        self.link_failures = []

    def on_broadcast_received(self, packet, sender_id, sender_position):
        self.broadcasts.append((packet, sender_id))

    def on_packet_delivered(self, packet):
        self.delivered.append(packet)

    def on_link_failure(self, frame):
        self.link_failures.append(frame)
        super().on_link_failure(frame)


def build(positions, radio=None, loss=0.0, seed=0, tracer=None):
    sim = Simulator()
    streams = RandomStreams(seed)
    channel = Channel(sim, streams, tracer=tracer)
    stats = RoutingStats()
    nodes = []
    for index, position in enumerate(positions):
        node = Recorder(
            f"n{index:02d}",
            position,
            radio or sensor_radio(loss),
            sim,
            channel,
            streams,
            routing_stats=stats,
        )
        nodes.append(node)
    return sim, channel, nodes


class TestDelivery:
    def test_broadcast_reaches_only_nodes_in_range(self):
        sim, channel, nodes = build(
            [Point(0, 0), Point(50, 0), Point(200, 0)]
        )
        nodes[0].send_broadcast(Category.DATA, "hello")
        sim.run(until=1.0)
        assert len(nodes[1].broadcasts) == 1
        assert len(nodes[2].broadcasts) == 0

    def test_sender_does_not_hear_itself(self):
        sim, channel, nodes = build([Point(0, 0), Point(10, 0)])
        nodes[0].send_broadcast(Category.DATA, "x")
        sim.run(until=1.0)
        assert nodes[0].broadcasts == []

    def test_range_is_directional(self):
        # A long-range robot can reach a sensor that cannot reach back.
        sim = Simulator()
        streams = RandomStreams(0)
        channel = Channel(sim, streams)
        stats = RoutingStats()
        robot = Recorder(
            "robot", Point(0, 0), robot_radio(), sim, channel, streams,
            routing_stats=stats,
        )
        sensor = Recorder(
            "sensor", Point(150, 0), sensor_radio(), sim, channel,
            streams, routing_stats=stats,
        )
        robot.send_broadcast(Category.DATA, "from-robot")
        sensor.send_broadcast(Category.DATA, "from-sensor")
        sim.run(until=1.0)
        assert len(sensor.broadcasts) == 1    # robot reached 150m
        assert len(robot.broadcasts) == 0     # sensor could not

    def test_dead_receiver_gets_nothing(self):
        sim, channel, nodes = build([Point(0, 0), Point(10, 0)])
        nodes[1].die()
        nodes[0].send_broadcast(Category.DATA, "x")
        sim.run(until=1.0)
        assert nodes[1].broadcasts == []

    def test_dead_sender_transmits_nothing(self):
        sim, channel, nodes = build([Point(0, 0), Point(10, 0)])
        nodes[0].send_broadcast(Category.DATA, "x")  # queued in MAC
        nodes[0].die()
        sim.run(until=1.0)
        assert nodes[1].broadcasts == []
        assert channel.stats.frames_sent == 0

    def test_transmission_counted_per_category(self):
        sim, channel, nodes = build([Point(0, 0), Point(10, 0)])
        nodes[0].send_broadcast(Category.BEACON, "b")
        nodes[0].send_broadcast(Category.LOCATION_UPDATE, "u")
        sim.run(until=1.0)
        assert channel.stats.transmissions[Category.BEACON] == 1
        assert channel.stats.transmissions[Category.LOCATION_UPDATE] == 1

    def test_transmit_hook_invoked(self):
        # A "tx" subscriber hears each transmit once, with its sender.
        sim, channel, nodes = build([Point(0, 0), Point(10, 0)])
        seen = []
        channel.tracer.subscribe(
            "tx", lambda record: seen.append(record["sender"])
        )
        nodes[0].send_broadcast(Category.DATA, "x")
        sim.run(until=1.0)
        assert seen == ["n00"]

    def test_duplicate_node_id_rejected(self):
        sim, channel, nodes = build([Point(0, 0)])
        with pytest.raises(ValueError):
            Recorder(
                "n00", Point(1, 1), sensor_radio(), sim, channel,
                RandomStreams(1), routing_stats=RoutingStats(),
            )

    def test_unreachable_unicast_notifies_sender(self):
        sim, channel, nodes = build([Point(0, 0), Point(30, 0)])
        # Hand-craft a unicast to a node that is too far away.
        nodes[0].neighbor_table.upsert(
            "phantom", Point(10, 0), "sensor"
        )
        packet = Packet(
            source="n00",
            destination="phantom",
            category=Category.DATA,
            dest_location=Point(10, 0),
        )
        nodes[0].mac.send_packet(packet, "phantom")
        sim.run(until=1.0)
        assert channel.stats.frames_unreachable == 1
        assert len(nodes[0].link_failures) == 1
        # GPSR reaction: the unresponsive neighbour was evicted.
        assert "phantom" not in nodes[0].neighbor_table

    def test_node_moved_updates_reachability(self):
        sim, channel, nodes = build([Point(0, 0), Point(200, 0)])
        nodes[1].move_to(Point(40, 0))
        nodes[0].send_broadcast(Category.DATA, "x")
        sim.run(until=1.0)
        assert len(nodes[1].broadcasts) == 1


class TestReceiverIndex:
    """The static receiver cache and the mobile layer."""

    def test_robot_move_keeps_static_receiver_list(self):
        sim, channel, nodes = build(
            [Point(0, 0), Point(30, 0), Point(500, 500)]
        )
        sensor, neighbour, robot = nodes
        cached = channel.receivers_of(sensor)
        robot.move_to(Point(400, 500))  # first move: joins the mobile layer
        robot.move_to(Point(300, 500))
        assert channel.receivers_of(sensor) is cached
        assert cached == [neighbour]

    def test_robot_in_range_is_merged_without_touching_the_cache(self):
        sim, channel, nodes = build(
            [Point(0, 0), Point(30, 0), Point(500, 500)]
        )
        sensor, neighbour, robot = nodes
        cached = channel.receivers_of(sensor)
        robot.move_to(Point(10, 0))
        assert channel.receivers_of(sensor) == [neighbour, robot]
        robot.move_to(Point(500, 500))
        assert channel.receivers_of(sensor) is cached
        assert cached == [neighbour]

    def test_death_outside_range_keeps_the_entry(self):
        sim, channel, nodes = build(
            [Point(0, 0), Point(30, 0), Point(300, 0)]
        )
        sensor, neighbour, far = nodes
        cached = channel.receivers_of(sensor)
        far.die()
        assert channel.receivers_of(sensor) is cached

    def test_death_inside_range_drops_the_entry(self):
        sim, channel, nodes = build(
            [Point(0, 0), Point(30, 0), Point(50, 0)]
        )
        sensor, neighbour, other = nodes
        cached = channel.receivers_of(sensor)
        assert cached == [neighbour, other]
        neighbour.die()
        assert channel.receivers_of(sensor) == [other]

    def test_replacement_at_dead_position_is_heard(self):
        sim, channel, nodes = build([Point(0, 0), Point(30, 0)])
        sensor, victim = nodes
        assert channel.receivers_of(sensor) == [victim]
        victim.die()
        assert channel.receivers_of(sensor) == []
        replacement = Recorder(
            "n99", Point(30, 0), sensor_radio(), sim, channel,
            RandomStreams(1), routing_stats=RoutingStats(),
        )
        assert channel.receivers_of(sensor) == [replacement]

    def test_mobile_node_dies_and_recovers(self):
        sim, channel, nodes = build([Point(0, 0), Point(500, 0)])
        sensor, robot = nodes
        robot.move_to(Point(20, 0))
        assert channel.receivers_of(sensor) == [robot]
        robot.die()
        assert channel.receivers_of(sensor) == []
        robot.alive = True
        channel.register(robot)  # back in the static layer, where it stopped
        assert channel.receivers_of(sensor) == [robot]
        assert channel.nodes_within(Point(0, 0), 25.0) == [sensor, robot]

    def test_unregistered_node_cannot_move(self):
        sim, channel, nodes = build([Point(0, 0), Point(500, 0)])
        robot = nodes[1]
        robot.move_to(Point(10, 0))
        channel.unregister(robot.node_id)
        with pytest.raises(KeyError):
            channel.node_moved(robot)


def broadcast_frame(sender, payload):
    packet = Packet(
        source=sender.node_id,
        destination=BROADCAST,
        category=Category.BEACON,
        payload=payload,
    )
    return Frame(
        sender=sender.node_id, link_destination=BROADCAST, packet=packet
    )


class TestDeliveryPath:
    def test_announcement_refreshes_the_table_before_the_hook(self):
        seen = []

        class Watcher(Recorder):
            def on_announcement(self, announcement, now):
                super().on_announcement(announcement, now)
                entry = self.neighbor_table.get(announcement.node_id)
                seen.append((entry.position, now))

        sim = Simulator()
        streams = RandomStreams(0)
        channel = Channel(sim, streams)
        sender = Recorder(
            "n00", Point(0, 0), sensor_radio(), sim, channel, streams
        )
        receiver = Watcher(
            "n01", Point(10, 0), sensor_radio(), sim, channel, streams
        )
        receiver.neighbor_table.upsert("n00", Point(40, 40), "sensor")
        announcement = NodeAnnouncement("n00", Point(0, 0), "sensor")
        channel.transmit(sender, broadcast_frame(sender, announcement))
        sim.run(until=1.0)
        assert [position for position, _ in seen] == [Point(0, 0)]
        assert 0.0 < seen[0][1] < 1.0

    def test_only_non_announcements_reach_on_broadcast_received(self):
        sim, channel, nodes = build([Point(0, 0), Point(10, 0)])
        announcement = NodeAnnouncement("n00", Point(0, 0), "sensor")
        channel.transmit(nodes[0], broadcast_frame(nodes[0], announcement))
        sim.run(until=1.0)
        assert nodes[1].broadcasts == []
        assert nodes[1].neighbor_table.get("n00").position == Point(0, 0)
        channel.transmit(nodes[0], broadcast_frame(nodes[0], "x"))
        sim.run(until=2.0)
        assert [packet.payload for packet, _ in nodes[1].broadcasts] == ["x"]
        assert channel.stats.frames_delivered == 2

    def test_robot_back_up_in_flight_still_receives(self):
        from repro.core import ScenarioRuntime
        from repro.deploy import Algorithm, paper_scenario

        runtime = ScenarioRuntime(
            paper_scenario(
                Algorithm.CENTRALIZED,
                4,
                seed=3,
                placement="grid",
                sensors_per_robot=25,
                sim_time_s=2_000.0,
            )
        )
        runtime.initialize()
        channel = runtime.channel
        robot = runtime.robots_sorted()[0]
        sender = next(
            sensor
            for sensor in runtime.sensors_sorted()
            if robot in channel.receivers_of(sensor)
        )
        announcement = NodeAnnouncement("ghost", Point(1, 2), "sensor")
        channel.transmit(sender, broadcast_frame(sender, announcement))
        robot.mark_down(permanent=False)
        robot.mark_up()
        runtime.sim.run(until=runtime.sim.now + 1.0)
        assert robot.neighbor_table.get("ghost").position == Point(1, 2)

    def test_frame_to_a_dead_sensor_skips_its_replacement(self):
        sim, channel, nodes = build([Point(0, 0), Point(10, 0)])
        announcement = NodeAnnouncement("ghost", Point(1, 2), "sensor")
        channel.transmit(nodes[0], broadcast_frame(nodes[0], announcement))
        channel.transmit(nodes[0], broadcast_frame(nodes[0], "x"))
        nodes[1].die()
        # Replacements take a fresh id at the failed node's position.
        replacement = Recorder(
            "n01-r", Point(10, 0), sensor_radio(), sim, channel,
            RandomStreams(1),
        )
        sim.run(until=1.0)
        assert replacement.broadcasts == []
        assert replacement.neighbor_table.get("ghost") is None
        assert nodes[1].broadcasts == []
        assert channel.stats.frames_delivered == 0

    def test_receiver_dying_in_flight_is_skipped(self):
        tracer = Tracer()
        rx = []
        tracer.subscribe("rx", rx.append)
        sim, channel, nodes = build(
            [Point(0, 0), Point(10, 0), Point(20, 0)], tracer=tracer
        )
        channel.transmit(nodes[0], broadcast_frame(nodes[0], "x"))
        nodes[1].die()
        sim.run(until=1.0)
        assert nodes[1].broadcasts == []
        assert len(nodes[2].broadcasts) == 1
        assert [record["receiver"] for record in rx] == ["n02"]
        assert channel.stats.frames_delivered == 1

    def test_rx_records_precede_each_hook_in_id_order(self):
        log = []
        tracer = Tracer()
        tracer.subscribe(
            "rx", lambda record: log.append(("rx", record["receiver"]))
        )
        # Listed out of id order in space: the receiver set is id-sorted.
        sim, channel, nodes = build(
            [Point(0, 0), Point(30, 0), Point(-10, 0), Point(5, 5)],
            tracer=tracer,
        )
        for node in nodes[1:]:
            node.on_broadcast_received = (
                lambda packet, sender_id, position, node_id=node.node_id:
                log.append(("hook", node_id))
            )
        channel.transmit(nodes[0], broadcast_frame(nodes[0], "x"))
        sim.run(until=1.0)
        assert log == [
            (step, node_id)
            for node_id in ("n01", "n02", "n03")
            for step in ("rx", "hook")
        ]

    def test_lossy_unicast_goes_through_the_mac(self, monkeypatch):
        incoming = []
        inner = Mac.handle_incoming

        def handle_incoming(mac, frame, sender_id):
            incoming.append((mac.node.node_id, frame.is_ack))
            return inner(mac, frame, sender_id)

        monkeypatch.setattr(Mac, "handle_incoming", handle_incoming)
        sim, channel, nodes = build(
            [Point(0, 0), Point(10, 0)], loss=0.1, seed=0
        )
        packet = Packet(
            source="n00",
            destination="n01",
            category=Category.DATA,
            dest_location=Point(10, 0),
        )
        nodes[0].mac.send_packet(packet, "n01")
        sim.run(until=5.0)
        assert nodes[1].delivered == [packet]
        assert ("n01", False) in incoming  # the data frame, acked
        assert ("n00", True) in incoming  # the ack, consumed
        assert nodes[0].mac._pending_acks == {}


class TestLossAndArq:
    def test_lossless_by_default_no_acks(self):
        sim, channel, nodes = build([Point(0, 0), Point(10, 0)])
        nodes[0].send_broadcast(Category.DATA, "x")
        sim.run(until=1.0)
        assert channel.stats.transmissions.get(Category.ACK, 0) == 0

    def test_unicast_acked_and_retransmitted_under_loss(self):
        sim, channel, nodes = build(
            [Point(0, 0), Point(10, 0)], loss=0.4, seed=3
        )
        packet = Packet(
            source="n00",
            destination="n01",
            category=Category.DATA,
            dest_location=Point(10, 0),
        )
        nodes[0].neighbor_table.upsert("n01", Point(10, 0), "sensor")
        nodes[0].mac.send_packet(packet, "n01")
        sim.run(until=5.0)
        # Delivered despite loss (possibly after retransmissions).
        assert len(nodes[1].delivered) == 1
        assert channel.stats.transmissions.get(Category.ACK, 0) >= 1

    def test_loss_rate_validation(self):
        with pytest.raises(ValueError):
            RadioConfig(range_m=63.0, loss_rate=1.0)

    def test_frames_lost_counted_under_loss(self):
        sim, channel, nodes = build(
            [Point(0, 0), Point(10, 0)], loss=0.5, seed=5
        )
        for index in range(40):
            nodes[0].send_broadcast(Category.DATA, index)
        sim.run(until=60.0)
        assert channel.stats.frames_lost > 0
        # Lost + delivered accounts for every receiver contact of every
        # frame (one receiver here, but acks are also on the air).
        assert (
            channel.stats.frames_lost + channel.stats.frames_delivered
            > 0
        )
        assert len(nodes[1].broadcasts) < 40  # some really were lost

    def test_retransmissions_counted_per_category(self):
        sim, channel, nodes = build(
            [Point(0, 0), Point(10, 0)], loss=0.4, seed=3
        )
        packet = Packet(
            source="n00",
            destination="n01",
            category=Category.FAILURE_REPORT,
            dest_location=Point(10, 0),
        )
        nodes[0].neighbor_table.upsert("n01", Point(10, 0), "sensor")
        nodes[0].mac.send_packet(packet, "n01")
        sim.run(until=30.0)
        assert len(nodes[1].delivered) == 1
        # seed=3 loses at least one frame or ack on this link, so the
        # ARQ retransmission counter must have fired for this category.
        assert (
            channel.stats.retransmissions[Category.FAILURE_REPORT] >= 1
        )
        assert Category.DATA not in channel.stats.retransmissions

    def test_unicast_to_dead_receiver_counts_unreachable(self):
        sim, channel, nodes = build(
            [Point(0, 0), Point(10, 0)], loss=0.2, seed=1
        )
        nodes[0].neighbor_table.upsert("n01", Point(10, 0), "sensor")
        nodes[1].die()
        packet = Packet(
            source="n00",
            destination="n01",
            category=Category.DATA,
            dest_location=Point(10, 0),
        )
        nodes[0].mac.send_packet(packet, "n01")
        sim.run(until=30.0)
        assert nodes[1].delivered == []
        assert channel.stats.frames_unreachable >= 1
        # Lossy mode: ARQ keeps trying a while before giving up, and
        # every such retry is also unreachable.
        assert (
            channel.stats.frames_unreachable
            >= channel.stats.retransmissions.get(Category.DATA, 0)
        )


class TestMacSerialisation:
    def test_frames_sent_in_fifo_order(self):
        sim, channel, nodes = build([Point(0, 0), Point(10, 0)])
        order = []
        channel.tracer.subscribe(
            "tx", lambda record: order.append(record["frame"].packet.payload)
        )
        for index in range(5):
            nodes[0].send_broadcast(Category.DATA, index)
        sim.run(until=2.0)
        assert order == [0, 1, 2, 3, 4]

    def test_queue_depth_visible(self):
        sim, channel, nodes = build([Point(0, 0), Point(10, 0)])
        for index in range(3):
            nodes[0].send_broadcast(Category.DATA, index)
        assert nodes[0].mac.queue_depth >= 2

    def test_broadcast_jitter_desynchronises(self):
        sim, channel, nodes = build(
            [Point(0, 0), Point(10, 0), Point(20, 0)]
        )
        times = []
        channel.tracer.subscribe(
            "tx", lambda record: times.append(record.time)
        )
        for node in nodes:
            node.send_broadcast(Category.DATA, "x")
        sim.run(until=2.0)
        assert len(set(times)) == len(times)  # no two at the same instant


class TestDropCauses:
    """Per-cause drop accounting and the network-fault field hook."""

    def _field(self, seed=0):
        from repro.faults.network import NetworkFaultField

        return NetworkFaultField(RandomStreams(seed).stream("channel.jam"))

    def _region(self, kind, center, radius, severity=1.0):
        from repro.faults.network import FaultRegion

        return FaultRegion(
            label="r", kind=kind, center=center, radius=radius,
            severity=severity,
        )

    def test_count_drop_rejects_unknown_cause(self):
        from repro.net.channel import ChannelStats

        stats = ChannelStats()
        with pytest.raises(ValueError):
            stats.count_drop("cosmic-rays")

    def test_count_drop_increments_total_and_cause(self):
        from repro.net.channel import ChannelStats, DropCause

        stats = ChannelStats()
        stats.count_drop(DropCause.LOSS)
        stats.count_drop(DropCause.JAM)
        stats.count_drop(DropCause.JAM)
        stats.count_drop(DropCause.PARTITION)
        assert stats.frames_lost == 4
        assert stats.dropped_loss == 1
        assert stats.dropped_jam == 2
        assert stats.dropped_partition == 1

    def test_bernoulli_loss_attributed_to_loss(self):
        sim, channel, nodes = build(
            [Point(0, 0), Point(10, 0)], loss=0.5, seed=5
        )
        for index in range(40):
            nodes[0].send_broadcast(Category.DATA, index)
        sim.run(until=60.0)
        assert channel.stats.dropped_loss == channel.stats.frames_lost > 0
        assert channel.stats.dropped_jam == 0
        assert channel.stats.dropped_partition == 0

    def test_jam_region_drops_receivers_inside_only(self):
        from repro.faults.script import FaultKind

        sim, channel, nodes = build(
            [Point(0, 0), Point(50, 0), Point(120, 0)],
            radio=RadioConfig(range_m=200.0),
        )
        field = self._field()
        field.add(self._region(FaultKind.JAM, Point(50, 0), 30.0))
        channel.fault_field = field
        nodes[0].send_broadcast(Category.DATA, "x")
        sim.run(until=1.0)
        assert nodes[1].broadcasts == []  # inside the disk: jammed
        assert len(nodes[2].broadcasts) == 1  # outside: heard
        assert channel.stats.dropped_jam == 1
        assert channel.stats.dropped_loss == 0

    def test_jammed_sender_still_heard_outside(self):
        from repro.faults.script import FaultKind

        sim, channel, nodes = build(
            [Point(0, 0), Point(50, 0)],
            radio=RadioConfig(range_m=200.0),
        )
        field = self._field()
        field.add(self._region(FaultKind.JAM, Point(0, 0), 10.0))
        channel.fault_field = field
        nodes[0].send_broadcast(Category.DATA, "x")
        sim.run(until=1.0)
        # Jamming blinds receivers in the disk, not senders: the jammed
        # node's own transmission escapes.
        assert len(nodes[1].broadcasts) == 1
        assert channel.stats.frames_lost == 0

    def test_partition_drops_boundary_crossings_both_ways(self):
        from repro.faults.script import FaultKind

        sim, channel, nodes = build(
            [Point(0, 0), Point(50, 0), Point(20, 0)],
            radio=RadioConfig(range_m=200.0),
        )
        field = self._field()
        field.add(self._region(FaultKind.PARTITION, Point(0, 0), 30.0))
        channel.fault_field = field
        nodes[0].send_broadcast(Category.DATA, "in->out")
        nodes[1].send_broadcast(Category.DATA, "out->in")
        sim.run(until=1.0)
        # n00 (inside) to n02 (inside) crosses nothing; to n01 it does.
        assert [p.payload for (p, s) in nodes[2].broadcasts] == ["in->out"]
        assert nodes[0].broadcasts == []  # out->in dropped at n00
        assert [p.payload for (p, s) in nodes[1].broadcasts] == []
        # Crossings dropped: n00->n01, n01->n00, and n01->n02.
        assert channel.stats.dropped_partition == 3
        assert channel.stats.dropped_jam == 0

    def test_degrade_severity_is_probabilistic(self):
        from repro.faults.script import FaultKind

        sim, channel, nodes = build(
            [Point(0, 0), Point(10, 0)],
            radio=RadioConfig(range_m=200.0),
        )
        field = self._field(seed=2)
        field.add(
            self._region(FaultKind.DEGRADE, Point(10, 0), 5.0, severity=0.5)
        )
        channel.fault_field = field
        for index in range(60):
            nodes[0].send_broadcast(Category.DATA, index)
        sim.run(until=90.0)
        received = len(nodes[1].broadcasts)
        assert 0 < received < 60  # some pass, some jam
        assert channel.stats.dropped_jam == 60 - received

    def test_inactive_field_counts_nothing(self):
        sim, channel, nodes = build([Point(0, 0), Point(10, 0)])
        channel.fault_field = self._field()
        nodes[0].send_broadcast(Category.DATA, "x")
        sim.run(until=1.0)
        assert len(nodes[1].broadcasts) == 1
        assert channel.stats.frames_lost == 0
