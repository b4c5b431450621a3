"""Lightweight structured tracing for simulations.

Models emit trace records through a :class:`Tracer`; sinks subscribe per
category.  Tracing is off by default and costs a single dict lookup per
emit when no sink is attached, so hot paths may trace unconditionally.

Example::

    tracer = Tracer()
    tracer.subscribe("failure", lambda rec: print(rec))
    tracer.emit("failure", time=12.5, node="s17", position=(40.0, 71.2))
"""

from __future__ import annotations

import dataclasses
import hashlib
import typing

__all__ = ["TraceRecord", "Tracer", "RecordingSink", "trace_digest"]


@dataclasses.dataclass(frozen=True, slots=True)
class TraceRecord:
    """One trace record: a category, a timestamp, and free-form fields."""

    category: str
    time: float
    fields: typing.Mapping[str, typing.Any]

    def __getitem__(self, key: str) -> typing.Any:
        return self.fields[key]

    def get(self, key: str, default: typing.Any = None) -> typing.Any:
        return self.fields.get(key, default)


TraceSink = typing.Callable[[TraceRecord], None]


class Tracer:
    """Dispatches trace records to subscribed sinks.

    Sinks subscribed to the pseudo-category ``"*"`` receive every record.

    :attr:`active` is a plain attribute maintained by ``subscribe`` /
    ``unsubscribe`` rather than a property: hot paths check it before
    building every record's keyword dict, so it must cost one attribute
    load, not a scan over the sink table.
    """

    __slots__ = ("_sinks", "active")

    def __init__(self) -> None:
        self._sinks: typing.Dict[str, typing.List[TraceSink]] = {}
        #: True if at least one sink is subscribed.  Guard `emit` calls
        #: with this so no field dicts are built when tracing is off.
        self.active = False

    def subscribe(self, category: str, sink: TraceSink) -> None:
        """Register *sink* for *category* (or ``"*"`` for all records)."""
        self._sinks.setdefault(category, []).append(sink)
        self.active = True

    def unsubscribe(self, category: str, sink: TraceSink) -> None:
        """Remove a previously registered sink (no-op if absent)."""
        sinks = self._sinks.get(category)
        if sinks and sink in sinks:
            sinks.remove(sink)
        self.active = any(self._sinks.values())

    def emit(self, category: str, time: float, **fields: typing.Any) -> None:
        """Emit a record; drops it cheaply when nobody listens."""
        sinks = self._sinks.get(category)
        wildcard = self._sinks.get("*")
        if not sinks and not wildcard:
            return
        record = TraceRecord(category=category, time=time, fields=fields)
        for sink in sinks or ():
            sink(record)
        for sink in wildcard or ():
            sink(record)


class RecordingSink:
    """A sink that accumulates records in memory, mainly for tests.

    Example::

        recorder = RecordingSink()
        tracer.subscribe("dispatch", recorder)
        ...
        assert recorder.records[0]["robot"] == "r3"
    """

    def __init__(self) -> None:
        self.records: typing.List[TraceRecord] = []

    def __call__(self, record: TraceRecord) -> None:
        self.records.append(record)

    def of_category(self, category: str) -> typing.List[TraceRecord]:
        """All recorded records of *category*, in emit order."""
        return [r for r in self.records if r.category == category]

    def clear(self) -> None:
        """Discard all recorded records."""
        self.records.clear()


def trace_digest(records: typing.Iterable[TraceRecord]) -> str:
    """sha256 hex digest of a record stream, in emit order.

    Each record hashes as the line
    ``f"{category}|{time!r}|{sorted(fields.items())!r}\\n"``, so any
    change in order, timing, or payload changes the digest.  This is
    the format of the pinned baselines in ``tests/baselines/``.
    """
    digest = hashlib.sha256()
    for record in records:
        line = (
            f"{record.category}|{record.time!r}|"
            f"{sorted(record.fields.items())!r}\n"
        )
        digest.update(line.encode("utf-8"))
    return digest.hexdigest()
