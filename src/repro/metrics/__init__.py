"""Metrics: per-failure lifecycle records and cross-run aggregation."""

from repro.metrics.aggregate import mean_of
from repro.metrics.collector import FailureRecord, MetricsCollector, RunReport

__all__ = [
    "FailureRecord",
    "MetricsCollector",
    "RunReport",
    "mean_of",
]
