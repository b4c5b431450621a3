"""Metrics: per-failure lifecycle records and cross-run aggregation."""

from repro.metrics.aggregate import (
    SummaryStats,
    aggregate_reports,
    mean_of,
    summarize,
)
from repro.metrics.collector import FailureRecord, MetricsCollector, RunReport

__all__ = [
    "FailureRecord",
    "MetricsCollector",
    "RunReport",
    "SummaryStats",
    "aggregate_reports",
    "mean_of",
    "summarize",
]
