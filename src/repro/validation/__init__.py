"""Independent requirement validation and shadowing robustness.

Single-fault resiliency analysis lives in :mod:`repro.failures`.
"""

from repro.validation.checker import (
    ValidationReport,
    lifetime_years,
    link_rss_dbm,
    node_charge_ma_ms,
    validate,
)
from repro.validation.robustness import RobustnessReport, shadowing_robustness

__all__ = [
    "RobustnessReport",
    "shadowing_robustness",
    "ValidationReport",
    "lifetime_years",
    "link_rss_dbm",
    "node_charge_ma_ms",
    "validate",
]
