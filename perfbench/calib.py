"""Host-speed calibration: a fixed pure-Python slice timed next to every op.

The host this benchmark runs on is shared, and its speed drifts by tens
of percent between ten-second windows, while the program's own work per
op repeats exactly.  The runner therefore times this slice right before
and right after each op, and divides the op's wall time by the measured
:func:`slowdown` against the reference host.  Times then read in seconds
at the reference host speed.

The slice is made of two fixed loads that do not depend on the program:

``loop``
    Integer and dict operations.
``build``
    Small expression objects (dicts of terms, sorting, a set
    comprehension), in the style of model assembly.

Each workload weighs the loads by how well they tracked its ops
(``workloads.CALIBRATION``).  Both loads keep their data in the CPU
caches — a larger table would time the cache misses the op just
caused, not the host — and the collector is off while a slice runs, so
a slice never pays for a collection of the program's heap.

The slice runs in the benchmark's own process, so anything that slows
the process itself (a lingering busy thread, for example) slows the
slice too and shows up in ``host.calib_ms`` instead of flattering the
normalized times.
"""

from __future__ import annotations

import gc
import time
from collections.abc import Callable, Mapping

#: Seconds one unit of each load takes on the reference host: medians
#: on an idle 2-core x86-64 container under CPython 3.11.
REF_S = {"loop": 0.000360, "build": 0.000620}

_LOOP_ITERS = 2_000
_TABLE = {(i * 2654435761) & 0xFFFFFFF: i for i in range(256)}
_KEYS = tuple(_TABLE)


class _Expr:
    """A tiny linear expression: variable name -> coefficient."""

    def __init__(self) -> None:
        self.terms: dict[str, float] = {}

    def add(self, var: str, coef: float) -> None:
        self.terms[var] = self.terms.get(var, 0.0) + coef


def _loop() -> None:
    table = _TABLE
    keys = _KEYS
    acc = 0
    for i in range(_LOOP_ITERS):
        acc = (acc * 33 + table[keys[(acc ^ i) & 255]]) & 0xFFFFF


def _build() -> None:
    exprs = []
    for i in range(60):
        expr = _Expr()
        for j in range(12):
            expr.add(f"x{(i * 7 + j) % 97}", (j + 1) * 0.5)
        exprs.append(expr)
    sorted(
        (len(e.terms), sum(e.terms.values()), k) for k, e in enumerate(exprs)
    )
    {var for e in exprs for var in e.terms}


_LOADS: dict[str, Callable[[], None]] = {"loop": _loop, "build": _build}


def measure(units: int, mix: Mapping[str, float]) -> dict[str, float]:
    """Seconds per unit of each load that ``mix`` weighs."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        out = {}
        for name in mix:
            load = _LOADS[name]
            start = time.perf_counter()
            for _ in range(units):
                load()
            out[name] = (time.perf_counter() - start) / units
    finally:
        if enabled:
            gc.enable()
    return out


def mean(a: Mapping[str, float], b: Mapping[str, float]) -> dict[str, float]:
    """The per-load mean of two measurements."""
    return {name: (a[name] + b[name]) / 2 for name in a}


def slowdown(host: Mapping[str, float], mix: Mapping[str, float]) -> float:
    """Host slowdown against the reference (1.0 = reference speed)."""
    return sum(
        weight * host[name] / REF_S[name] for name, weight in mix.items()
    )


def units_for(
    seconds: float, mix: Mapping[str, float], share: float = 0.03
) -> int:
    """Units that take about ``share`` of ``seconds`` (2 to 300)."""
    unit_s = sum(REF_S[name] for name in mix)
    return max(2, min(300, int(seconds * share / unit_s)))
