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
"""

from __future__ import annotations

import typing

from repro.sim.events import Callback, Event, PENDING, SimulationError

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Simulator

__all__ = ["Process"]

ProcessGenerator = typing.Generator[Event, typing.Any, typing.Any]


class Process(Event):
    """An active component driven by a generator.

    The process event succeeds with the generator's return value, or fails
    with the exception that escaped the generator.
    """

    __slots__ = ("generator", "name")

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
        # The first step happens inside the simulator loop, not
        # synchronously here.
        sim.timeout(0.0).add_callback(self._resume)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._value is PENDING

    # ------------------------------------------------------------------
    # Generator stepping
    # ------------------------------------------------------------------
    def _resume(self, event: Event) -> None:
        """Advance the generator with the outcome of *event*.

        A yielded timer of this process's own simulator (the common
        wait) gets this method appended to its callbacks, exactly as
        :meth:`~repro.sim.events.Event.add_callback` would, without the
        generic checks below.
        """
        sim = self.sim
        try:
            while True:
                if event._ok:
                    result = self.generator.send(event._value)
                else:
                    result = self.generator.throw(
                        typing.cast(BaseException, event._value)
                    )

                if type(result) is Callback and result.sim is sim:
                    callbacks = result.callbacks
                    if callbacks is None:
                        # Already processed: continue in this step.
                        event = result
                        continue
                    callbacks.append(self._resume)
                    return

                if not isinstance(result, Event):
                    error = SimulationError(
                        f"process {self.name!r} yielded a non-event: "
                        f"{result!r}"
                    )
                    self.generator.close()
                    self.fail(error)
                    return

                if result.sim is not sim:
                    error = SimulationError(
                        f"process {self.name!r} yielded an event from a "
                        "different simulator"
                    )
                    self.generator.close()
                    self.fail(error)
                    return

                if result.processed:
                    # Already fired: continue stepping synchronously with
                    # the event's recorded outcome.
                    event = result
                    continue

                result.add_callback(self._resume)
                return
        except StopIteration as stop:
            self.succeed(stop.value)
        except BaseException as exc:  # noqa: BLE001 - must surface any error
            self.fail(exc)

    def __repr__(self) -> str:
        state = "alive" if self.is_alive else "finished"
        return f"<Process {self.name!r} {state} at {id(self):#x}>"
