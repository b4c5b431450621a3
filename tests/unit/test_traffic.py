"""Unit tests for the background data-traffic service."""

import pytest

from repro import Algorithm, ScenarioRuntime, paper_scenario
from repro.core.traffic import DataTrafficService, SensorReading
from repro.net import Category


def runtime_with_traffic(algorithm=Algorithm.CENTRALIZED, period=100.0):
    config = paper_scenario(
        algorithm,
        4,
        seed=18,
        sensors_per_robot=25,
        placement="grid",
        sim_time_s=1_000.0,
        data_traffic_period_s=period,
    )
    return ScenarioRuntime(config)


class TestService:
    def test_invalid_period_rejected(self):
        runtime = runtime_with_traffic()
        with pytest.raises(ValueError):
            DataTrafficService(runtime, period=0.0)

    def test_readings_carry_increasing_sequence(self):
        runtime = runtime_with_traffic()
        runtime.initialize()
        seen = {}

        def capture(record):
            packet = record["frame"].packet
            if packet is None or not isinstance(
                packet.payload, SensorReading
            ):
                return
            reading = packet.payload
            if record["sender"] != reading.origin_id:
                return  # forwarded by a relay, not the origin
            previous = seen.get(reading.origin_id, 0)
            # Strictly new reading, or a re-transmission of the current
            # one after a link-failure re-route — never a regression.
            assert previous <= reading.seq <= previous + 1
            seen[reading.origin_id] = reading.seq

        runtime.tracer.subscribe("tx", capture)
        runtime.sim.run(until=450.0)
        assert seen  # traffic flowed
        assert max(seen.values()) >= 4  # ~4-5 periods elapsed

    def test_sink_is_manager_when_centralized(self):
        runtime = runtime_with_traffic(Algorithm.CENTRALIZED)
        runtime.initialize()
        sensor = runtime.sensors_sorted()[0]
        sink = runtime.traffic._sink_for(sensor)
        assert sink[0] == runtime.manager.node_id

    def test_sink_is_myrobot_when_distributed(self):
        runtime = runtime_with_traffic(Algorithm.DYNAMIC)
        runtime.initialize()
        sensor = runtime.sensors_sorted()[0]
        sink = runtime.traffic._sink_for(sensor)
        assert sink[0] == sensor.myrobot_id

    def test_dead_sensor_stops_reporting(self):
        runtime = runtime_with_traffic()
        runtime.initialize()
        victim = runtime.sensors_sorted()[3]
        victim_id = victim.node_id
        runtime.sim.run(until=150.0)
        runtime.failure_process.kill_now(victim)
        sent_by_victim = []

        def capture(record):
            if record["sender"] == victim_id:
                sent_by_victim.append(record["frame"])

        runtime.tracer.subscribe("tx", capture)
        runtime.sim.run(until=800.0)
        assert sent_by_victim == []

    def test_readings_counted_in_data_category(self):
        runtime = runtime_with_traffic()
        runtime.run()
        assert (
            runtime.channel.stats.transmissions.get(Category.DATA, 0) > 0
        )
        assert runtime.traffic.readings_sent > 0
