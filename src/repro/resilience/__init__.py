"""Resilient solve runtime: budgets, watchdog, checkpoints, faults.

``repro.resilience`` makes the solve stack survive the failures MILP
practice actually hits — unpredictable solve times, solver ``ERROR``
statuses, crashing solvers and workers, killed runs:

* :mod:`~repro.resilience.policy` — the flat :class:`DeadlineBudget`
  one call's deadline becomes, read by every layer down to the solver's
  ``time_limit``;
* :mod:`~repro.resilience.watchdog` — :class:`ResilientSolver`, which
  wraps any MILP backend with per-attempt timeouts, retry-on-error with
  a fixed backoff, a fallback chain and incumbent acceptance at the
  deadline, logging every :class:`SolveAttempt`;
* :mod:`~repro.resilience.checkpoint` — schema-versioned JSONL
  :class:`Checkpoint`\\ s with atomic writes, so killed K*/Pareto sweeps
  resume and select the identical winner;
* :mod:`~repro.resilience.faults` — a deterministic :class:`FaultPlan`
  that triggers named failure sites on demand (``REPRO_FAULTS``), with
  zero overhead when inactive.

See ``docs/robustness.md`` for the full picture.
"""

from repro.resilience.checkpoint import (
    SCHEMA_VERSION,
    Checkpoint,
    CheckpointError,
    RestoredResult,
    problem_fingerprint,
    restored_result,
    result_record,
)
from repro.resilience.faults import (
    ENV_VAR,
    SITES,
    FaultError,
    FaultPlan,
    InjectedFault,
    InjectedHang,
    injected_faults,
)
from repro.resilience.policy import DeadlineBudget
from repro.resilience.watchdog import (
    ResilientSolver,
    SolveAttempt,
    attempt_counters,
    default_fallbacks,
)

__all__ = [
    "ENV_VAR",
    "SCHEMA_VERSION",
    "SITES",
    "Checkpoint",
    "CheckpointError",
    "DeadlineBudget",
    "FaultError",
    "FaultPlan",
    "InjectedFault",
    "InjectedHang",
    "ResilientSolver",
    "RestoredResult",
    "SolveAttempt",
    "attempt_counters",
    "default_fallbacks",
    "injected_faults",
    "problem_fingerprint",
    "restored_result",
    "result_record",
]
