"""MILP acceleration: the greedy warm start.

:mod:`repro.accel.warmstart` is a greedy primal heuristic that rounds a
feasible topology out of the Yen candidate pools and completes it into
a full assignment via a small restricted MILP (the (MI)LP-based primal
heuristic pattern), fed to the backends through
``Model.hints["warm_start"]``.

It is opt-in through ``SolveOptions(warm_start=True)`` and advisory by
construction: every backend re-validates the start before acting on it,
so a bug here can cost speed but never correctness.
"""

from repro.accel.warmstart import (
    WarmStart,
    attach_warm_start,
    compute_warm_start,
    greedy_selection,
)

__all__ = [
    "WarmStart",
    "attach_warm_start",
    "compute_warm_start",
    "greedy_selection",
]
