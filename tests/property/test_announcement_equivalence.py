"""The sensor's announcement hook against the two steps it replaced.

A broadcast :class:`~repro.net.frames.NodeAnnouncement` once reached a
sensor as a neighbour-table upsert followed by the announcement branch
of ``on_broadcast_received``.  ``SensorNode.on_announcement`` now does
both in one call.  Random announcement sequences are fed to one sensor
through the hook and to the same sensor of an identical runtime
through the reference below; after every step the two must agree
exactly on the neighbour rows, the beacon stamps, the guardee
positions and the reported set, or the pinned trace baselines would
move.  The hook refreshes a known neighbour's row in place, so a robot
sender announces itself under a kind drawn anew at each step.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ScenarioRuntime
from repro.deploy import Algorithm, paper_scenario
from repro.geometry import Point
from repro.net import NodeAnnouncement

#: The sensor under test; after setup it guards sensor-0001 and -0003.
SUBJECT = "sensor-0000"

senders = st.sampled_from(
    [f"sensor-{i:04d}" for i in range(1, 12)]
    + ["sensor-r00001", "robot-00"]
)
positions = st.builds(
    Point,
    st.sampled_from([0.0, 5.0, 37.5]),
    st.sampled_from([0.0, 12.0]),
)
#: A robot sender's announced kind; the hook's in-place refresh must
#: overwrite ``kind`` as upsert does.
robot_kinds = st.sampled_from(["robot", "manager"])
steps = st.lists(
    st.tuples(
        senders,
        positions,
        st.floats(min_value=0.0, max_value=30.0),
        robot_kinds,
    ),
    min_size=1,
    max_size=12,
)
initial_ids = st.sets(senders, max_size=4)


def reference_receive(sensor, announcement):
    """The parent's two steps: the channel's upsert, then the
    ``NodeAnnouncement`` branch of ``on_broadcast_received``."""
    sensor.neighbor_table.upsert(
        announcement.node_id, announcement.position, announcement.kind
    )
    sensor._last_beacon[announcement.node_id] = sensor.sim.now
    if announcement.node_id in sensor.guardees:
        sensor.guardee_positions[announcement.node_id] = announcement.position
    elif (
        sensor.runtime.config.verify_failures
        and announcement.node_id in sensor._reported
    ):
        sensor.note_alive(announcement.node_id, announcement.position)


def subject(verify, reported, released):
    runtime = ScenarioRuntime(
        paper_scenario(
            Algorithm.CENTRALIZED,
            1,
            seed=5,
            placement="grid",
            sensors_per_robot=12,
            sim_time_s=500.0,
            verify_failures=verify,
        )
    )
    runtime.initialize()
    runtime.sim.run(until=5.0)  # Guardian confirms arrive.
    sensor = runtime.sensors[SUBJECT]
    assert sensor.guardees == {"sensor-0001", "sensor-0003"}
    for guardee_id in sorted(released):
        sensor.release_guardee(guardee_id)
    sensor._reported.update(reported)
    return sensor


def state(sensor):
    return (
        [
            (entry.node_id, entry.position, entry.kind)
            for entry in sensor.neighbor_table.entries()
        ],
        dict(sensor._last_beacon),
        dict(sensor.guardee_positions),
        set(sensor._reported),
        set(sensor.guardees),
    )


class TestAnnouncementHook:
    @settings(max_examples=60, deadline=None)
    @given(
        st.booleans(),
        initial_ids,
        st.sets(st.sampled_from(["sensor-0001", "sensor-0003"])),
        steps,
    )
    def test_hook_matches_upsert_then_old_branch(
        self, verify, reported, released, sequence
    ):
        hook = subject(verify, reported, released)
        reference = subject(verify, reported, released)
        assert state(hook) == state(reference)
        for sender_id, position, gap, robot_kind in sequence:
            kind = robot_kind if sender_id.startswith("robot") else "sensor"
            announcement = NodeAnnouncement(sender_id, position, kind)
            until = hook.sim.now + gap
            hook.sim.run(until=until)
            reference.sim.run(until=until)
            hook.on_announcement(announcement, hook.sim.now)
            reference_receive(reference, announcement)
            assert state(hook) == state(reference)
