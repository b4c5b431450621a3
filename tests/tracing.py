"""One traced run: the trace-digest helper of the integration suite.

:class:`TracedRun` builds a runtime whose tracer hands every record to
a :class:`~repro.sim.trace.RecordingSink`.  ``TracedRun(config).run()``
runs it to the config's horizon; a test that steps the simulation
itself uses :attr:`TracedRun.runtime` directly.  :attr:`digest` is the
format of the pinned baselines in ``tests/baselines/``.
"""

import typing

from repro.core.runtime import ScenarioRuntime
from repro.deploy.scenario import ScenarioConfig
from repro.metrics.collector import RunReport
from repro.sim.trace import RecordingSink, TraceRecord, Tracer, trace_digest


class TracedRun:
    """A runtime for *config* with every trace record recorded."""

    def __init__(self, config: ScenarioConfig) -> None:
        tracer = Tracer()
        self.recorder = RecordingSink()
        tracer.subscribe("*", self.recorder)
        self.runtime = ScenarioRuntime(config, tracer=tracer)
        #: The run's report, once :meth:`run` has returned.
        self.report: typing.Optional[RunReport] = None

    def run(self) -> "TracedRun":
        """Run to the config's horizon; returns ``self``."""
        self.report = self.runtime.run()
        return self

    @property
    def records(self) -> typing.List[TraceRecord]:
        """Every record emitted so far, in emit order."""
        return self.recorder.records

    @property
    def digest(self) -> str:
        """sha256 of :attr:`records`, as pinned in the baselines."""
        return trace_digest(self.records)
