"""Failure-aware synthesis: patterns, verification sweep, robust re-solve.

Three layers, used together or separately:

- :mod:`repro.failures.patterns` — seeded, fingerprinted failure-pattern
  generators: exhaustive/sampled k-link and k-node combinations, plus
  correlated geometric outages (every link crossing a wall, every node
  inside a floor-plan region).
- :mod:`repro.failures.sweep` — the verification sweep: each pattern is
  checked against a decoded architecture (intact disjoint replicas,
  link-quality margins) in one loop, streamed through resumable
  checkpoints.
- :mod:`repro.failures.robust` — the worst-pattern robust re-solve loop:
  violated patterns become per-pattern survivability rows over the
  candidate pools and the MILP is re-solved to a fixpoint.

:mod:`repro.failures.resiliency` hosts the single-fault (k=1)
analysis, expressed through the same pattern machinery.
"""

from repro.failures.patterns import (
    DEFAULT_MAX_PATTERNS,
    FailurePattern,
    FailuresSpec,
    generate_patterns,
    k_link_patterns,
    k_node_patterns,
    parse_failures_spec,
    patterns_fingerprint,
    quadrant_regions,
    region_outage_patterns,
    wall_outage_patterns,
)
from repro.failures.report import PatternResult, SurvivabilityReport
from repro.failures.resiliency import (
    FaultImpact,
    ResiliencyReport,
    analyze_resiliency,
)
from repro.failures.robust import robust_solve, survivability_rows
from repro.failures.sweep import (
    CHECKPOINT_KIND,
    sweep_checkpoint,
    verify_pattern,
    verify_patterns,
)

__all__ = [
    "CHECKPOINT_KIND",
    "DEFAULT_MAX_PATTERNS",
    "FailurePattern",
    "FailuresSpec",
    "FaultImpact",
    "PatternResult",
    "ResiliencyReport",
    "SurvivabilityReport",
    "analyze_resiliency",
    "generate_patterns",
    "k_link_patterns",
    "k_node_patterns",
    "parse_failures_spec",
    "patterns_fingerprint",
    "quadrant_regions",
    "region_outage_patterns",
    "robust_solve",
    "survivability_rows",
    "sweep_checkpoint",
    "verify_pattern",
    "verify_patterns",
    "wall_outage_patterns",
]
