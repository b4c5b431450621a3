"""Analysis layer: coverage, energy accounting, and closed-form theory.

Hole tracking and the closed-form theory are imported from their
submodules (:mod:`repro.analysis.holes`, :mod:`repro.analysis.theory`).
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
