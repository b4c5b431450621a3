"""Experiment harness: sweeps, figures, ablations, text rendering.

The package root exports what callers outside it import; everything
else (the extension figures, :func:`~repro.experiments.runner.run_grid`,
the result types) is imported from its submodule.
"""

from repro.experiments.ablations import (
    AblationResult,
    coverage_energy_ablation,
    dispatch_policy_ablation,
    partition_ablation,
    update_threshold_ablation,
)
from repro.experiments.figures import (
    ClaimCheck,
    figure2_motion_overhead,
    figure3_hops,
    figure4_update_transmissions,
)
from repro.experiments.render import render_series_table, render_table
from repro.experiments.runner import run_config, run_config_timed, sweep

__all__ = [
    "AblationResult",
    "ClaimCheck",
    "coverage_energy_ablation",
    "dispatch_policy_ablation",
    "figure2_motion_overhead",
    "figure3_hops",
    "figure4_update_transmissions",
    "partition_ablation",
    "render_series_table",
    "render_table",
    "run_config",
    "run_config_timed",
    "sweep",
    "update_threshold_ablation",
]
