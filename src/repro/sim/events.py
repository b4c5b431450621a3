"""Event primitives for the discrete-event simulation kernel.

An :class:`Event` is a one-shot synchronisation point: it starts *pending*,
is later *triggered* (either succeeded with a value or failed with an
exception), and finally *processed* once the simulator has run its callbacks.
Processes (see :mod:`repro.sim.process`) wait on events by ``yield``-ing
them; plain callbacks can be attached with :meth:`Event.add_callback`.

Two subclasses cover every other wait the models in :mod:`repro.core`
need: :class:`Callback`, the one timer (behind both
:meth:`~repro.sim.engine.Simulator.call_in` and
:meth:`~repro.sim.engine.Simulator.timeout`), and :class:`AnyOf`, which
fires with the first of several events.
"""

from __future__ import annotations

import typing

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Simulator

__all__ = [
    "PENDING",
    "Event",
    "Callback",
    "AnyOf",
    "SimulationError",
]


class _PendingType:
    """Sentinel marking an event whose value has not been decided yet."""

    _instance: typing.Optional["_PendingType"] = None

    def __new__(cls) -> "_PendingType":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "<PENDING>"

    def __bool__(self) -> bool:
        return False


#: Sentinel stored in :attr:`Event.value` while the event is untriggered.
PENDING = _PendingType()


class SimulationError(Exception):
    """Raised for misuse of the kernel (double trigger, bad yield, ...)."""


class Event:
    """A one-shot occurrence that callbacks and processes can wait on.

    Parameters
    ----------
    sim:
        The owning simulator. Events may only be triggered and processed
        by the simulator that created them.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        #: Callbacks run when the event is processed; each receives the event.
        self.callbacks: typing.Optional[list] = []
        self._value: typing.Any = PENDING
        self._ok: bool = True

    # ------------------------------------------------------------------
    # State inspection
    # ------------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled for processing."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once the simulator has run this event's callbacks."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded, False if it failed.

        Only meaningful once :attr:`triggered` is True.
        """
        return self._ok

    @property
    def value(self) -> typing.Any:
        """The event's value (or the exception for failed events)."""
        if self._value is PENDING:
            raise SimulationError(f"value of {self!r} is not yet available")
        return self._value

    # ------------------------------------------------------------------
    # Triggering
    # ------------------------------------------------------------------
    def succeed(self, value: typing.Any = None) -> "Event":
        """Trigger the event successfully with *value*.

        The event is scheduled to be processed at the current simulation
        time; callbacks run when the simulator reaches it in the event
        queue (never synchronously inside ``succeed``).
        """
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.sim._enqueue(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed with *exception*.

        A failed event throws *exception* into every process waiting on it.
        """
        if not isinstance(exception, BaseException):
            raise SimulationError(
                f"fail() requires an exception, got {exception!r}"
            )
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = False
        self._value = exception
        self.sim._enqueue(self)
        return self

    # ------------------------------------------------------------------
    # Callbacks
    # ------------------------------------------------------------------
    def add_callback(self, callback: typing.Callable[["Event"], None]) -> None:
        """Attach *callback* to run when the event is processed.

        If the event has already been processed the callback runs
        immediately (synchronously), preserving at-least-once semantics.
        """
        if self.callbacks is None:
            callback(self)
        else:
            self.callbacks.append(callback)

    def _process(self) -> None:
        """Run all callbacks.  Called by the simulator main loop only.

        A *failed* event with no listeners re-raises its exception: errors
        never pass silently out of the simulation.
        """
        callbacks = self.callbacks
        if callbacks is None:
            raise SimulationError(f"{self!r} has already been processed")
        self.callbacks = None
        if not self._ok and not callbacks:
            raise typing.cast(BaseException, self._value)
        for callback in callbacks:
            callback(self)

    def __repr__(self) -> str:
        state = "pending"
        if self.processed:
            state = "processed"
        elif self.triggered:
            state = "triggered"
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Callback(Event):
    """The one timer: the event behind :meth:`Simulator.call_in` and
    :meth:`Simulator.timeout`.

    It is born triggered and holds a bare callable in a slot.  The
    simulator builds it without ``__init__`` and its run loop calls the
    callable directly, then any callbacks attached with
    :meth:`~Event.add_callback`, so the common path walks no callback
    list.  A timeout is a Callback whose callable is None: the run loop
    only runs its callbacks (usually one waiting process).  The base
    :meth:`~Event.succeed` and :meth:`~Event.fail` reject it as already
    triggered.
    """

    __slots__ = ("_fn",)


class AnyOf(Event):
    """An event that fires as soon as any of *events* fires.

    It succeeds on the first success and fails with the first failure.
    Its value is a dict mapping each constituent that has succeeded so
    far to its value.  With no constituents it succeeds at once with an
    empty dict.
    """

    __slots__ = ("events",)

    def __init__(self, sim: "Simulator", events: typing.Iterable[Event]) -> None:
        super().__init__(sim)
        self.events: tuple = tuple(events)
        for event in self.events:
            if event.sim is not sim:
                raise SimulationError(
                    "all events of an any_of must share one simulator"
                )
        if not self.events:
            self.succeed({})
            return
        for event in self.events:
            event.add_callback(self._check)

    def _check(self, event: Event) -> None:
        if self._value is not PENDING:
            return
        if event._ok:
            self.succeed(
                {
                    constituent: constituent._value
                    for constituent in self.events
                    if constituent.triggered and constituent._ok
                }
            )
        else:
            self.fail(typing.cast(BaseException, event._value))
        # A constituent still pending keeps this method among its
        # callbacks; dropping the constituents breaks that cycle, so an
        # abandoned wait is freed by reference counting.
        self.events = ()
