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

import typing

from heapq import heappop as _heappop, heappush as _heappush

from repro.sim.events import AnyOf, Callback, Event, SimulationError
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
    """A deterministic discrete-event simulator whose clock starts at 0."""

    def __init__(self) -> None:
        self._now = 0.0
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

    # ------------------------------------------------------------------
    # Event factories
    # ------------------------------------------------------------------
    def event(self) -> Event:
        """Create a fresh, untriggered :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float) -> Callback:
        """Create an event that fires ``delay`` seconds from now.

        A :class:`Callback` with no callable, built inline as in
        :meth:`call_in`: processes yield one per wait, so it skips the
        extra call frame, and the run loop calls nothing for it.
        """
        if delay < 0:
            raise ValueError(f"negative delay: {delay!r}")
        event = Callback.__new__(Callback)
        event.sim = self
        event.callbacks = []
        event._value = None
        event._ok = True
        event._fn = None
        time = self._now + delay
        seq = self._seq + 1
        self._seq = seq
        _heappush(self._queue, (time, PRIORITY_NORMAL, seq, event))
        return event

    def process(
        self,
        generator: ProcessGenerator,
        name: typing.Optional[str] = None,
    ) -> Process:
        """Start a new :class:`Process` driving *generator*."""
        return Process(self, generator, name=name)

    def any_of(self, events: typing.Iterable[Event]) -> AnyOf:
        """Event firing once any event in *events* has fired."""
        return AnyOf(self, events)

    def call_at(
        self,
        time: float,
        callback: typing.Callable[[], None],
    ) -> Callback:
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
    ) -> Callback:
        """Schedule *callback* (no arguments) to run after *delay* seconds.

        This is the kernel's fast path: callbacks and timeouts make up
        most of the event volume (MAC wakeups, channel deliveries,
        protocol timers, process waits), so each goes onto the heap as a
        lightweight :class:`Callback` event that the run loop processes
        inline.  The returned event is cancellable via :meth:`cancel` and
        yieldable from processes.
        """
        if delay < 0:
            raise ValueError(f"negative delay: {delay!r}")
        # Inlined Callback construction: __new__ + direct slot stores
        # skip the __init__ call frame on the kernel's hottest path.
        event = Callback.__new__(Callback)
        event.sim = self
        event.callbacks = []
        event._value = None
        event._ok = True
        event._fn = callback
        time = self._now + delay
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
    def _enqueue(self, event: Event) -> None:
        """Queue a just-triggered *event* for processing at the current time."""
        self._seq += 1
        _heappush(self._queue, (self._now, PRIORITY_NORMAL, self._seq, event))

    # ------------------------------------------------------------------
    # Run loop
    # ------------------------------------------------------------------
    def run(self, until: typing.Optional[float] = None) -> None:
        """Run the simulation.

        Parameters
        ----------
        until:
            * ``None`` — run until the event queue drains.
            * a number — run until the clock reaches that time (events
              scheduled exactly at ``until`` are *not* processed; the
              clock is left at ``until``).
        """
        if until is not None:
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
            _heappush(
                self._queue,
                (horizon, PRIORITY_URGENT, self._seq, stop_event),
            )

        # Inlined main loop: local bindings and the hand-inlined Callback
        # fast path shave several hundred nanoseconds per event, which
        # matters at millions of events per run.
        queue = self._queue
        pop = _heappop
        fast_type = Callback
        processed = 0
        try:
            while queue:
                entry = pop(queue)
                event = entry[3]
                if type(event) is fast_type:
                    # A Callback: timer, timeout or process start (the
                    # common case).
                    callbacks = event.callbacks
                    if callbacks is None:
                        continue  # cancelled
                    event.callbacks = None
                    self._now = entry[0]
                    processed += 1
                    fn = event._fn
                    if fn is not None:
                        fn()
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

        if until is not None:
            # Leave the clock exactly at the horizon even if the queue
            # drained early.
            self._now = max(self._now, horizon)

    @staticmethod
    def _stop_callback(event: Event) -> None:
        raise StopSimulation

    def close(self) -> None:
        """Empty the queue and cancel every wait that hangs on it.

        Each queued event refers to this simulator, and its callable or
        callbacks reach back into the model that scheduled it, so a
        finished run's queue ties the whole model into cycles.  Closing
        cancels the queued events and, through their callbacks, the
        processes and :class:`AnyOf` waits they would have resumed,
        with the other constituents of those waits.  That breaks the
        cycles.  :attr:`now` and :attr:`processed_events` stay readable;
        running a closed simulator finds nothing to do.
        """
        pending = [entry[3] for entry in self._queue]
        self._queue.clear()
        while pending:
            event = pending.pop()
            callbacks = event.callbacks
            if callbacks is None:
                continue
            event.callbacks = None
            if type(event) is Callback:
                event._fn = None
            elif type(event) is AnyOf:
                pending.extend(event.events)
            for callback in callbacks:
                waiter = getattr(callback, "__self__", None)
                if isinstance(waiter, Event):
                    pending.append(waiter)

    def __repr__(self) -> str:
        return (
            f"<Simulator t={self._now:.3f} queued={len(self._queue)} "
            f"processed={self._processed_events}>"
        )
