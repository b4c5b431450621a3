"""Aggregation of metrics across replicated runs.

The figures average each point over several seeds; :func:`mean_of` is
that average, skipping replicates whose metric is undefined (NaN).
"""

from __future__ import annotations

import math
import typing

__all__ = ["mean_of"]


def mean_of(values: typing.Sequence[float]) -> float:
    """Mean ignoring NaNs; NaN if nothing finite remains."""
    finite = [v for v in values if not math.isnan(v)]
    if not finite:
        return float("nan")
    return sum(finite) / len(finite)
