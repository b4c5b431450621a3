"""Generator-based simulation processes.

A *process* wraps a Python generator: the generator ``yield``-s
:class:`~repro.sim.events.Event` instances and is resumed with the event's
value once it fires (or has the event's exception thrown into it).  A
process is itself an event that triggers when the generator finishes,
which lets other processes join it::

    def maintain(sim, robot):
        while True:
            request = yield robot.next_request()   # wait for work
            yield sim.timeout(travel_time)         # drive there
            robot.replace_node(request.location)

    proc = sim.process(maintain(sim, robot))

Processes support cooperative cancellation via :meth:`Process.interrupt`,
which raises :class:`~repro.sim.events.Interrupt` at the current wait point.
"""

from __future__ import annotations

import typing

from repro.sim.events import Event, Interrupt, PENDING, SimulationError

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Simulator

__all__ = ["Process"]

ProcessGenerator = typing.Generator[Event, typing.Any, typing.Any]


class Process(Event):
    """An active component driven by a generator.

    The process event succeeds with the generator's return value, or fails
    with the exception that escaped the generator.
    """

    __slots__ = ("generator", "_target", "name")

    def __init__(
        self,
        sim: "Simulator",
        generator: ProcessGenerator,
        name: typing.Optional[str] = None,
    ) -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise SimulationError(
                f"process requires a generator, got {generator!r}"
            )
        super().__init__(sim)
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        #: The event this process is currently waiting on (None if running
        #: or finished).
        self._target: typing.Optional[Event] = None

        # Kick off the generator via an immediately-triggered event so the
        # first step happens inside the simulator loop, not synchronously.
        start = Event(sim)
        start.callbacks.append(self._resume)
        start._ok = True
        start._value = None
        sim._enqueue(start, 0.0)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._value is PENDING

    @property
    def target(self) -> typing.Optional[Event]:
        """The event the process is currently waiting for, if any."""
        return self._target

    def interrupt(self, cause: typing.Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its wait point.

        Interrupting a finished process is an error; interrupting a
        process that has not started yet is allowed and delivered before
        its first step.
        """
        if not self.is_alive:
            raise SimulationError(f"{self!r} has terminated; cannot interrupt")
        # Deliver asynchronously, via a failed event, so the interrupt is
        # ordered with respect to other scheduled events.
        interrupt_event = Event(self.sim)
        interrupt_event._ok = False
        interrupt_event._value = Interrupt(cause)
        interrupt_event.callbacks.append(self._deliver_interrupt)
        self.sim._enqueue(interrupt_event, 0.0)

    def _deliver_interrupt(self, event: Event) -> None:
        """Detach from the current wait target, then resume with the
        interrupt.

        Without the detach, the original target would later fire and resume
        the process a second time with a stale event.
        """
        if not self.is_alive:
            return  # Terminated between scheduling and delivery.
        target = self._target
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(self._resume)
            except ValueError:  # pragma: no cover - defensive
                pass
        self._target = None
        self._resume(event)

    # ------------------------------------------------------------------
    # Generator stepping
    # ------------------------------------------------------------------
    def _resume(self, event: Event) -> None:
        """Advance the generator with the outcome of *event*."""
        if not self.is_alive:
            # A stale wakeup (e.g. an interrupt raced with termination).
            return

        try:
            while True:
                if event._ok:
                    result = self.generator.send(event._value)
                else:
                    # The exception is "used" once thrown; mark the event
                    # defused so unhandled failures are still detectable.
                    result = self.generator.throw(
                        typing.cast(BaseException, event._value)
                    )

                if not isinstance(result, Event):
                    error = SimulationError(
                        f"process {self.name!r} yielded a non-event: "
                        f"{result!r}"
                    )
                    self.generator.close()
                    self._target = None
                    self.fail(error)
                    return

                if result.sim is not self.sim:
                    error = SimulationError(
                        f"process {self.name!r} yielded an event from a "
                        "different simulator"
                    )
                    self.generator.close()
                    self._target = None
                    self.fail(error)
                    return

                if result.processed:
                    # Already fired: continue stepping synchronously with
                    # the event's recorded outcome.
                    event = result
                    continue

                self._target = result
                result.add_callback(self._resume)
                return
        except StopIteration as stop:
            self._target = None
            self.succeed(stop.value)
        except BaseException as exc:  # noqa: BLE001 - must surface any error
            self._target = None
            self.fail(exc)

    def __repr__(self) -> str:
        state = "alive" if self.is_alive else "finished"
        return f"<Process {self.name!r} {state} at {id(self):#x}>"
