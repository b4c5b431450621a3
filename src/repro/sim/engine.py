"""The simulation engine: clock, event queue, and run loop.

:class:`Simulator` owns a binary-heap event queue keyed by
``(time, priority, sequence)``.  The sequence number makes ordering total
and deterministic: two events scheduled for the same time and priority are
processed in scheduling order, so a seeded run always replays identically.

Typical use::

    sim = Simulator()

    def hello(sim):
        yield sim.timeout(3.0)
        print("the time is", sim.now)

    sim.process(hello(sim))
    sim.run(until=10.0)
"""

from __future__ import annotations

import heapq
import typing

from heapq import heappop as _heappop, heappush as _heappush

from repro.sim.events import (
    AllOf,
    AnyOf,
    Callback,
    Event,
    SimulationError,
    Timeout,
)
from repro.sim.process import Process, ProcessGenerator

__all__ = [
    "Simulator",
    "StopSimulation",
    "PRIORITY_URGENT",
    "PRIORITY_NORMAL",
    "TIME_EPSILON",
    "times_equal",
]

#: Priority for kernel-internal wakeups that must precede normal events.
PRIORITY_URGENT = 0
#: Default priority for all user events.
PRIORITY_NORMAL = 1

#: Default tolerance for comparing simulation timestamps.  Timestamps are
#: sums of float delays, so two "simultaneous" events can differ by a few
#: ulps; direct ``==`` between times is a determinism hazard (and flagged
#: by ``repro.lint`` rule R4).
TIME_EPSILON = 1e-9


def times_equal(a: float, b: float, tolerance: float = TIME_EPSILON) -> bool:
    """True if simulation times *a* and *b* agree within *tolerance*.

    Use this instead of ``a == b`` whenever both operands are simulation
    timestamps (accumulated float delays).
    """
    return abs(a - b) <= tolerance


class StopSimulation(Exception):
    """Raised internally to halt :meth:`Simulator.run` at ``until``."""


class Simulator:
    """A deterministic discrete-event simulator.

    Parameters
    ----------
    start_time:
        Initial value of the simulation clock (seconds).  Defaults to 0.
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._queue: list = []
        self._seq = 0
        self._processed_events = 0

    # ------------------------------------------------------------------
    # Clock & introspection
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def processed_events(self) -> int:
        """Total number of events processed so far (a progress measure)."""
        return self._processed_events

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if queue is empty."""
        while self._queue:
            time, _priority, _seq, event = self._queue[0]
            if event.callbacks is None:
                heapq.heappop(self._queue)  # cancelled / already processed
                continue
            return time
        return float("inf")

    # ------------------------------------------------------------------
    # Event factories
    # ------------------------------------------------------------------
    def event(self) -> Event:
        """Create a fresh, untriggered :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: typing.Any = None) -> Timeout:
        """Create an event that fires ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def process(
        self,
        generator: ProcessGenerator,
        name: typing.Optional[str] = None,
    ) -> Process:
        """Start a new :class:`Process` driving *generator*."""
        return Process(self, generator, name=name)

    def all_of(self, events: typing.Iterable[Event]) -> AllOf:
        """Event firing once every event in *events* has fired."""
        return AllOf(self, events)

    def any_of(self, events: typing.Iterable[Event]) -> AnyOf:
        """Event firing once any event in *events* has fired."""
        return AnyOf(self, events)

    def call_at(
        self,
        time: float,
        callback: typing.Callable[[], None],
    ) -> Event:
        """Schedule *callback* (no arguments) to run at absolute *time*."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time} before now ({self._now})"
            )
        return self.call_in(time - self._now, callback)

    def call_in(
        self,
        delay: float,
        callback: typing.Callable[[], None],
    ) -> Event:
        """Schedule *callback* (no arguments) to run after *delay* seconds.

        This is the kernel's fast path: plain callbacks account for most
        of the event volume (MAC wakeups, channel deliveries, timers), so
        they skip the full ``Timeout`` + ``add_callback`` machinery and
        go onto the heap as a lightweight :class:`Callback` event.  The
        returned event is cancellable via :meth:`cancel` and yieldable
        from processes, exactly like a Timeout.
        """
        if delay < 0:
            raise ValueError(f"negative callback delay: {delay!r}")
        # Inlined Callback construction: __new__ + direct slot stores
        # skip the __init__ call frame on the kernel's hottest path.
        event = Callback.__new__(Callback)
        event.sim = self
        event.callbacks = []
        event._value = None
        event._ok = True
        event._fn = callback
        time = self._now + delay
        event._scheduled_at = time
        seq = self._seq + 1
        self._seq = seq
        _heappush(self._queue, (time, PRIORITY_NORMAL, seq, event))
        return event

    @staticmethod
    def cancel(event: Event) -> None:
        """Cancel a scheduled event by discarding its callbacks.

        The queue entry is skipped lazily when the main loop reaches it.
        Cancelling an already-processed event is a no-op.
        """
        event.callbacks = None

    # ------------------------------------------------------------------
    # Scheduling internals
    # ------------------------------------------------------------------
    def _enqueue(
        self,
        event: Event,
        delay: float,
        priority: int = PRIORITY_NORMAL,
    ) -> None:
        """Insert *event* into the queue ``delay`` seconds from now."""
        time = self._now + delay
        event._scheduled_at = time
        self._seq += 1
        heapq.heappush(self._queue, (time, priority, self._seq, event))

    # ------------------------------------------------------------------
    # Run loop
    # ------------------------------------------------------------------
    def step(self) -> None:
        """Process exactly one event.

        Raises
        ------
        SimulationError
            If the queue is empty.
        """
        if not self._queue:
            raise SimulationError("step() on an empty event queue")
        while True:
            if not self._queue:
                return  # Only cancelled entries remained: nothing to do.
            time, _priority, _seq, event = heapq.heappop(self._queue)
            if event.callbacks is None:
                continue  # cancelled
            break
        if time < self._now:  # pragma: no cover - heap invariant guard
            raise SimulationError("event queue went backwards in time")
        self._now = time
        self._processed_events += 1
        event._process()

    def run(
        self,
        until: typing.Union[None, float, Event] = None,
    ) -> typing.Any:
        """Run the simulation.

        Parameters
        ----------
        until:
            * ``None`` — run until the event queue drains.
            * a number — run until the clock reaches that time (events
              scheduled exactly at ``until`` are *not* processed; the
              clock is left at ``until``).
            * an :class:`Event` — run until that event is processed and
              return its value (re-raising its exception if it failed).
        """
        stop_event: typing.Optional[Event] = None
        if isinstance(until, Event):
            stop_event = until
            if stop_event.processed:
                if stop_event.ok:
                    return stop_event.value
                raise typing.cast(BaseException, stop_event.value)
            stop_event.add_callback(self._stop_callback)
        elif until is not None:
            horizon = float(until)
            if horizon < self._now:
                raise SimulationError(
                    f"until ({horizon}) is before now ({self._now})"
                )
            stop_event = Event(self)
            stop_event._ok = True
            stop_event._value = None
            stop_event.callbacks.append(self._stop_callback)
            self._seq += 1
            heapq.heappush(
                self._queue,
                (horizon, PRIORITY_URGENT, self._seq, stop_event),
            )

        # Inlined main loop (identical semantics to repeated step()):
        # local bindings and the hand-inlined Callback fast path shave
        # several hundred nanoseconds per event, which matters at
        # millions of events per run.
        queue = self._queue
        pop = _heappop
        fast_type = Callback
        processed = 0
        try:
            while queue:
                entry = pop(queue)
                event = entry[3]
                if type(event) is fast_type:
                    # Inlined Callback._process (the common case).
                    callbacks = event.callbacks
                    if callbacks is None:
                        continue  # cancelled
                    event.callbacks = None
                    self._now = entry[0]
                    processed += 1
                    event._fn()
                    if callbacks:
                        for callback in callbacks:
                            callback(event)
                    continue
                if event.callbacks is None:
                    continue  # cancelled
                self._now = entry[0]
                processed += 1
                event._process()
        except StopSimulation:
            pass
        finally:
            self._processed_events += processed

        if isinstance(until, Event):
            if not until.processed:
                raise SimulationError(
                    "run(until=event) exhausted the queue before the event "
                    "fired — deadlock in the model?"
                )
            if until.ok:
                return until.value
            raise typing.cast(BaseException, until.value)
        if until is not None:
            # Leave the clock exactly at the horizon even if the queue
            # drained early.
            self._now = max(self._now, float(until))
        return None

    @staticmethod
    def _stop_callback(event: Event) -> None:
        raise StopSimulation

    def __repr__(self) -> str:
        return (
            f"<Simulator t={self._now:.3f} queued={len(self._queue)} "
            f"processed={self._processed_events}>"
        )
