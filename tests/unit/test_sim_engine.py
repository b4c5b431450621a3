"""Unit tests for the discrete-event kernel (engine, events, processes)."""

import gc

import pytest

from repro.sim import SimulationError, Simulator


def cycles_left_by(action):
    """Run *action* with the collector off; return how many unreachable
    objects it left behind."""
    gc.collect()
    gc.disable()
    try:
        gc.collect()
        action()
        return gc.collect()
    finally:
        gc.enable()


class TestClockAndTimeouts:
    def test_clock_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_timeout_advances_clock(self):
        sim = Simulator()
        fired = []
        sim.call_in(3.5, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [3.5]
        assert sim.now == 3.5

    def test_timeouts_fire_in_time_order(self):
        sim = Simulator()
        order = []
        sim.call_in(2.0, lambda: order.append("b"))
        sim.call_in(1.0, lambda: order.append("a"))
        sim.call_in(3.0, lambda: order.append("c"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_same_time_events_fire_in_scheduling_order(self):
        sim = Simulator()
        order = []
        for label in ("first", "second", "third"):
            sim.call_in(1.0, lambda label=label: order.append(label))
        sim.run()
        assert order == ["first", "second", "third"]

    def test_negative_timeout_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.timeout(-1.0)

    def test_zero_timeout_fires(self):
        sim = Simulator()
        fired = []
        sim.call_in(0.0, lambda: fired.append(True))
        sim.run()
        assert fired == [True]

    def test_call_at_schedules_at_absolute_time(self):
        sim = Simulator()
        fired = []
        sim.call_at(7.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [7.0]

    def test_call_at_in_the_past_rejected(self):
        sim = Simulator()
        sim.run(until=10.0)
        with pytest.raises(SimulationError):
            sim.call_at(5.0, lambda: None)


class TestRunUntil:
    def test_run_until_time_stops_clock_there(self):
        sim = Simulator()
        fired = []
        sim.call_in(1.0, lambda: fired.append(1))
        sim.call_in(10.0, lambda: fired.append(10))
        sim.run(until=5.0)
        assert fired == [1]
        assert sim.now == 5.0

    def test_event_exactly_at_horizon_not_processed(self):
        sim = Simulator()
        fired = []
        sim.call_in(5.0, lambda: fired.append(5))
        sim.run(until=5.0)
        assert fired == []

    def test_run_until_past_time_rejected(self):
        sim = Simulator()
        sim.run(until=10.0)
        with pytest.raises(SimulationError):
            sim.run(until=1.0)

    def test_run_drains_queue_without_horizon(self):
        sim = Simulator()
        for delay in (1.0, 2.0, 3.0):
            sim.call_in(delay, lambda: None)
        sim.run()
        assert sim.now == 3.0
        assert sim.processed_events == 3

    def test_clock_reaches_horizon_even_if_queue_drains_early(self):
        sim = Simulator()
        sim.call_in(1.0, lambda: None)
        sim.run(until=100.0)
        assert sim.now == 100.0


class TestEvents:
    def test_event_lifecycle(self):
        sim = Simulator()
        event = sim.event()
        assert not event.triggered and not event.processed
        event.succeed("payload")
        assert event.triggered and not event.processed
        sim.run()
        assert event.processed
        assert event.value == "payload"

    def test_value_unavailable_before_trigger(self):
        sim = Simulator()
        event = sim.event()
        with pytest.raises(SimulationError):
            _ = event.value

    def test_double_succeed_rejected(self):
        sim = Simulator()
        event = sim.event()
        event.succeed()
        with pytest.raises(SimulationError):
            event.succeed()

    def test_fail_requires_exception(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.event().fail("not an exception")

    def test_unhandled_failed_event_crashes_run(self):
        sim = Simulator()
        sim.event().fail(RuntimeError("boom"))
        with pytest.raises(RuntimeError, match="boom"):
            sim.run()

    def test_callback_after_processing_runs_immediately(self):
        sim = Simulator()
        event = sim.event()
        event.succeed(7)
        sim.run()
        seen = []
        event.add_callback(lambda e: seen.append(e.value))
        assert seen == [7]

    def test_cancel_discards_scheduled_callback(self):
        sim = Simulator()
        fired = []
        handle = sim.call_in(1.0, lambda: fired.append(True))
        sim.cancel(handle)
        sim.run()
        assert fired == []


class TestConditions:
    def test_any_of_fires_on_first(self):
        sim = Simulator()
        done = []

        def worker(sim, delay):
            yield sim.timeout(delay)
            return delay

        def boss(sim):
            a = sim.process(worker(sim, 1.0))
            b = sim.process(worker(sim, 4.0))
            values = yield sim.any_of([a, b])
            done.append((sim.now, list(values.values())))

        sim.process(boss(sim))
        sim.run()
        assert done == [(1.0, [1.0])]

    def test_empty_any_of_fires_immediately(self):
        sim = Simulator()
        done = []

        def boss(sim):
            values = yield sim.any_of([])
            done.append(values)

        sim.process(boss(sim))
        sim.run()
        assert done == [{}]

    def test_abandoned_any_of_leaves_no_cycle(self):
        """A wait that fired first drops its constituents, so the one
        still pending no longer forms a cycle with it."""

        def abandon():
            sim = Simulator()
            never = sim.event()
            wait = sim.any_of([never, sim.timeout(1.0)])
            sim.run()
            assert wait.processed

        assert cycles_left_by(abandon) == 0


class TestClose:
    def test_close_cancels_the_queue_and_keeps_the_clock(self):
        sim = Simulator()
        fired = []
        sim.call_in(1.0, lambda: fired.append(1.0))
        sim.call_in(5.0, lambda: fired.append(5.0))
        sim.run(until=2.0)
        events = sim.processed_events
        sim.close()
        assert (sim.now, sim.processed_events) == (2.0, events)
        sim.run()
        assert fired == [1.0]
        assert (sim.now, sim.processed_events) == (2.0, events)

    def test_close_cancels_the_waits_hanging_on_the_queue(self):
        """A process waiting on a pending event and a queued timer at
        once is a cycle; closing breaks it."""
        resumed = []

        def idle(sim, wake):
            yield sim.any_of([wake, sim.timeout(10.0)])
            resumed.append(sim.now)

        def run_and_close():
            sim = Simulator()
            wake = sim.event()
            sim.process(idle(sim, wake))
            sim.run(until=1.0)
            sim.close()
            assert wake.callbacks is None

        assert cycles_left_by(run_and_close) == 0
        assert resumed == []


class TestProcesses:
    def test_process_return_value(self):
        sim = Simulator()

        def worker(sim):
            yield sim.timeout(1.0)
            return "done"

        process = sim.process(worker(sim))
        sim.run()
        assert process.value == "done"
        assert not process.is_alive

    def test_process_joins_another(self):
        sim = Simulator()
        log = []

        def child(sim):
            yield sim.timeout(2.0)
            return "child-result"

        def parent(sim):
            result = yield sim.process(child(sim))
            log.append((sim.now, result))

        sim.process(parent(sim))
        sim.run()
        assert log == [(2.0, "child-result")]

    def test_yielding_non_event_fails_process(self):
        # An unobserved failing process crashes the run: errors never
        # pass silently out of the simulation.
        sim = Simulator()

        def bad(sim):
            yield "nope"

        process = sim.process(bad(sim))
        with pytest.raises(SimulationError, match="non-event"):
            sim.run()
        assert not process.ok

    def test_exception_in_process_propagates_to_joiner(self):
        sim = Simulator()
        caught = []

        def failing(sim):
            yield sim.timeout(1.0)
            raise ValueError("inner")

        def watcher(sim):
            try:
                yield sim.process(failing(sim))
            except ValueError as exc:
                caught.append(str(exc))

        sim.process(watcher(sim))
        sim.run()
        assert caught == ["inner"]

    def test_non_generator_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.process(lambda: None)


class TestTimerWaits:
    """A process that yields a timer of its own simulator attaches to it
    directly; these pin that the shortcut behaves like the generic
    wait."""

    def test_yielding_a_processed_timer_continues_in_the_same_step(self):
        sim = Simulator()
        early = sim.timeout(1.0)
        log = []

        def late(sim):
            yield sim.timeout(2.0)
            before = sim.processed_events
            value = yield early
            log.append((sim.now, value, sim.processed_events - before))

        sim.process(late(sim))
        sim.run()
        assert log == [(2.0, None, 0)]

    def test_yielding_another_simulators_timer_fails(self):
        sim = Simulator()
        other = Simulator()

        def stray(sim):
            yield other.timeout(1.0)

        process = sim.process(stray(sim))
        with pytest.raises(SimulationError, match="different simulator"):
            sim.run()
        assert not process.ok

    @pytest.mark.parametrize("direct_first", [True, False])
    def test_timer_shared_with_any_of_keeps_attach_order(self, direct_first):
        sim = Simulator()
        timer = sim.timeout(1.0)
        waits = []
        log = []

        def direct(sim):
            value = yield timer
            log.append(("direct", sim.now, value))

        def through_any_of(sim):
            wait = sim.any_of([timer, sim.event()])
            waits.append(wait)
            fired = yield wait
            log.append(("any_of", sim.now, list(fired.values())))

        starts = [direct, through_any_of]
        if not direct_first:
            starts.reverse()
        processes = {start: sim.process(start(sim)) for start in starts}
        sim.run(until=0.5)
        owners = [callback.__self__ for callback in timer.callbacks]
        expected = [
            waits[0] if start is through_any_of else processes[start]
            for start in starts
        ]
        assert owners == expected
        sim.run()
        # The any_of resumes its process through its own event, queued
        # when the timer's callbacks ran, so it always comes second.
        assert log == [("direct", 1.0, None), ("any_of", 1.0, [None])]

    def test_close_cancels_a_process_parked_on_a_timeout(self):
        resumed = []

        def parked(sim):
            yield sim.timeout(10.0)
            resumed.append(sim.now)

        def run_and_close():
            sim = Simulator()
            process = sim.process(parked(sim))
            sim.run(until=1.0)
            sim.close()
            assert process.callbacks is None
            sim.run()

        assert cycles_left_by(run_and_close) == 0
        assert resumed == []

    def test_processed_events_counts_each_timeout_once(self):
        sim = Simulator()

        def ticker(sim):
            for _ in range(3):
                yield sim.timeout(1.0)

        sim.process(ticker(sim))
        sim.timeout(5.0)
        sim.cancel(sim.timeout(6.0))
        sim.run()
        # The process start, three waits, the process's end and the
        # bare timeout; the cancelled one is skipped.
        assert sim.processed_events == 6
        assert sim.now == 5.0


class TestDeterminism:
    def test_identical_runs_produce_identical_traces(self):
        def run_once():
            sim = Simulator()
            log = []

            def worker(sim, name, delay):
                while sim.now < 20:
                    yield sim.timeout(delay)
                    log.append((sim.now, name))

            sim.process(worker(sim, "a", 3.0))
            sim.process(worker(sim, "b", 5.0))
            sim.run(until=30.0)
            return log

        assert run_once() == run_once()

    def test_processed_event_count_increases(self):
        sim = Simulator()
        for delay in range(1, 6):
            sim.call_in(float(delay), lambda: None)
        sim.run()
        assert sim.processed_events >= 5
