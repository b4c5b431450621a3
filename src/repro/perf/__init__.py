"""Profiling helpers.

``repro.perf.profiling`` wraps :mod:`cProfile` for the ``--profile``
flag on the sweep-backed CLI commands.  Throughput is measured by the
end-to-end benchmark ``python3 bench/run.py`` (see ``bench/README.md``).

See ``docs/PERFORMANCE.md`` for the hot-path inventory and the caching
invariants the optimized paths rely on.
"""

from repro.perf.profiling import profile_call

__all__ = ["profile_call"]
