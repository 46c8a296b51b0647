"""MILP acceleration: the warm start from a previous design.

:mod:`repro.accel.warmstart` replays a previous design's routes against
the new Yen candidate pools and completes them into a full assignment
via a small restricted MILP, fed to the backends through
``Model.hints["warm_start"]``.

The explorer computes it whenever it holds a previous design (its
``warm_start_architecture``: the kstar ladder, the Pareto sweep and
``repro.explore(previous=...)`` set it).  It is advisory by
construction: every backend re-validates the start before acting on it,
so a bug here can cost speed but never correctness.
"""

from repro.accel.warmstart import (
    WarmStart,
    attach_warm_start,
    compute_warm_start,
)

__all__ = [
    "WarmStart",
    "attach_warm_start",
    "compute_warm_start",
]
