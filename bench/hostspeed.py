"""How fast the host runs Python right now, sampled while a repeat runs.

The benchmark's hosts are shared: the same repeat of the same commit
runs up to twice as long for stretches of seconds to minutes when other
tenants are busy.  A reference kernel timed before and after a repeat
does not follow those shifts.  So :class:`HostSpeed` times a small fixed
kernel, a toy discrete-event loop in the simulator's style (a heap of
timed events, slotted objects, method calls, dict writes), every few
milliseconds *during* the repeat from a ``SIGALRM`` handler.  The
kernel's mean time over the repeat, against :data:`REFERENCE_KERNEL_S`,
is the host's slowdown factor for that repeat; end-to-end times are
divided by it.

The kernel lives here, outside the simulator, so no change to the
simulator can make it faster or slower.  :meth:`HostSpeed.clock` stops
while the handler runs, so the kernel's own time is not charged to the
spans measured with it.  The handler touches no simulator state, so
reports and digests do not change.
"""

from __future__ import annotations

import heapq
import signal
import time
import typing

__all__ = ["REFERENCE_KERNEL_S", "HostSpeed", "kernel"]

#: The kernel's typical sampled time on the 2-CPU development VM
#: (Python 3.11).  Only a unit: normalized times read as seconds on a
#: host where sampling takes this long.
REFERENCE_KERNEL_S = 190e-6
#: Interval between kernel samples.
TICK_S = 0.005


class _Item:
    __slots__ = ("key", "value", "table")

    def __init__(self, key: int) -> None:
        self.key = key
        self.value = float(key)
        self.table: typing.Dict[int, float] = {}

    def touch(self, when: float) -> float:
        self.table[self.key & 15] = when
        return self.value + when


_ITEMS = [_Item(key) for key in range(256)]


def kernel() -> float:
    """One fixed unit of interpreter work: a toy event loop."""
    queue: typing.List[typing.Tuple[float, int, _Item]] = []
    push = heapq.heappush
    pop = heapq.heappop
    items = _ITEMS
    for seq in range(32):
        push(queue, ((seq * 7919) % 1000 / 7.0, seq, items[seq]))
    total = 0.0
    steps = 0
    while queue:
        when, seq, item = pop(queue)
        total += item.touch(when)
        steps += 1
        if steps < 128:
            push(queue, (when + 1.5, seq + 32, items[(seq * 31) & 255]))
    return total


class HostSpeed:
    """Samples :func:`kernel` every :data:`TICK_S` until :meth:`stop`."""

    def __init__(self) -> None:
        self.samples = 0
        self.busy_s = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def _tick(self, _signum: int, _frame: object) -> None:
        started = time.perf_counter()
        kernel()
        self.busy_s += time.perf_counter() - started
        self.samples += 1

    def clock(self) -> float:
        """``perf_counter`` minus the time spent sampling."""
        return time.perf_counter() - self.busy_s

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def slowdown(self) -> float:
        """Mean kernel time over :data:`REFERENCE_KERNEL_S` (1.0 if unsampled)."""
        if not self.samples:
            return 1.0
        return self.busy_s / self.samples / REFERENCE_KERNEL_S
