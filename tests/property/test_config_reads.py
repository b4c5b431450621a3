"""Every setting a config changes is one the run reads.

A ``ScenarioConfig`` field enters the store key (``config_digest``)
whether or not the simulation looks at it.  A field set away from its
default that the run never reads gives one simulation a second key, so
the store runs it twice and keeps two copies.  ``ScenarioConfig``
refuses such combinations; this test finds the ones it does not yet
refuse.

:class:`ReadRecorder` logs the fields read while a tiny generated
config is built into a runtime and run to its horizon.  Reads made while
the config validates, describes, serialises or copies itself are not
logged: those touch every field by construction.  No field is exempt; an
exemption belongs in this file, with the reason it is not a rejection.
"""

import dataclasses
import typing

from hypothesis import HealthCheck, Phase, given, reject, settings
from hypothesis import strategies as st

from repro.core.runtime import ScenarioRuntime
from repro.deploy.scenario import (
    Algorithm,
    DetectionMode,
    DispatchPolicy,
    PartitionStyle,
    PlacementStyle,
    ScenarioConfig,
)

DEFAULTS = {
    field.name: field.default for field in dataclasses.fields(ScenarioConfig)
}
FIELDS = frozenset(DEFAULTS)


class ReadRecorder(ScenarioConfig):
    """A config that logs which of its fields are read, while logging."""

    #: The field names read so far; None while not logging.
    reads: typing.Optional[typing.Set[str]] = None

    def __getattribute__(self, name: str) -> typing.Any:
        reads = ReadRecorder.reads
        if reads is not None and name in FIELDS:
            reads.add(name)
        return object.__getattribute__(self, name)

    def _unlogged(self, method, *args, **kwargs):
        reads = ReadRecorder.reads
        ReadRecorder.reads = None
        try:
            return method(self, *args, **kwargs)
        finally:
            ReadRecorder.reads = reads

    def describe(self):
        return self._unlogged(ScenarioConfig.describe)

    def to_json_dict(self):
        return self._unlogged(ScenarioConfig.to_json_dict)

    def replace(self, **changes):
        return self._unlogged(ScenarioConfig.replace, **changes)


#: Scripted events inside the horizon, one per kind (and one robot
#: breakdown with its own duration).  Robot events come early so that
#: their target is still up when they fire.
EVENTS = (
    {"time": 10.0, "target": "robot-00", "kind": "breakdown"},
    {
        "time": 10.0,
        "target": "robot-01",
        "kind": "breakdown",
        "duration": 50.0,
    },
    {"time": 10.0, "target": "robot-02", "kind": "battery"},
    {"time": 10.0, "target": "robot-03", "kind": "crash"},
    {
        "time": 100.0,
        "target": "manager-00",
        "kind": "manager_down",
        "duration": 100.0,
    },
    *(
        {"time": 50.0, "target": kind, "kind": kind, "x": x, "y": y,
         "radius": 80.0}
        for kind, x, y in (
            ("jam", 300.0, 200.0),
            ("degrade", 100.0, 200.0),
            ("partition", 200.0, 100.0),
        )
    ),
)

#: One non-default value (or a choice of them) per optional field.
OPTIONAL = {
    "seed": st.integers(min_value=1, max_value=3),
    "robot_speed_mps": st.just(2.0),
    "beacon_period_s": st.just(5.0),
    "update_threshold_m": st.just(10.0),
    "detection_mode": st.just(DetectionMode.BEACON),
    "placement": st.just(PlacementStyle.GRID),
    "partition": st.just(PartitionStyle.STAGGERED),
    "loss_rate": st.just(0.05),
    "efficient_broadcast": st.just(True),
    "robot_capacity": st.just(2),
    "dispatch_policy": st.sampled_from(
        [DispatchPolicy.CLOSEST_IDLE, DispatchPolicy.LEAST_LOADED]
    ),
    "data_traffic_period_s": st.just(120.0),
    "return_to_post_after_s": st.just(30.0),
    "robot_mtbf_s": st.just(400.0),
    "robot_downtime_s": st.just(100.0),
    "robot_fault_permanent_p": st.sampled_from([0.25, 1.0]),
    "fault_script": st.lists(
        st.sampled_from(EVENTS), min_size=1, max_size=2, unique_by=str
    ).map(tuple),
    "jam_rate": st.just(0.05),
    "jam_radius_m": st.just(50.0),
    "jam_duration_mtbf_s": st.just(100.0),
    "jam_loss_rate": st.just(0.5),
    "verify_failures": st.just(True),
    "adaptive_verify": st.just(True),
    "coop_repair": st.just(True),
    "jam_aware": st.just(True),
}


@st.composite
def tiny_configs(draw) -> ReadRecorder:
    """A valid 4-robot, 100-sensor config with a few optional fields set.

    Lifetimes are short enough that sensors fail, get reported and get
    repaired well inside the 800 s horizon.
    """
    fields: typing.Dict[str, typing.Any] = {
        "algorithm": draw(st.sampled_from(Algorithm.ALL)),
        "sensors_per_robot": 25,
        "mean_lifetime_s": 1_000.0,
        "sim_time_s": 800.0,
    }
    for name, values in OPTIONAL.items():
        if draw(st.integers(min_value=0, max_value=7)) == 0:
            fields[name] = draw(values)
    try:
        return ReadRecorder(**fields)
    except ValueError:
        reject()


class TestConfigReadCoverage:
    @settings(
        max_examples=50,
        deadline=None,
        derandomize=True,
        # No shrinking: the failure already names the unread field, and
        # shrinking whole runs takes minutes.
        phases=[Phase.explicit, Phase.generate],
        suppress_health_check=[HealthCheck.filter_too_much],
    )
    @given(config=tiny_configs())
    def test_every_changed_field_is_read(self, config):
        changed = {
            name
            for name in FIELDS
            if getattr(config, name) != DEFAULTS[name]
        }
        ReadRecorder.reads = set()
        try:
            ScenarioRuntime(config).run()
            reads = ReadRecorder.reads
        finally:
            ReadRecorder.reads = None
        assert changed <= reads, (
            f"set but never read: {sorted(changed - reads)}"
        )
