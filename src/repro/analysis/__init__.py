"""Analysis layer: coverage, energy accounting, and closed-form theory.

The closed-form theory is imported from its submodule
(:mod:`repro.analysis.theory`).
"""

from repro.analysis.coverage import CoverageTracker, coverage_fraction
from repro.analysis.energy import EnergyModel, EnergyReport, energy_report

__all__ = [
    "CoverageTracker",
    "EnergyModel",
    "EnergyReport",
    "coverage_fraction",
    "energy_report",
]
