"""Deterministic fault injection for the solve stack.

Production failures — a crashed worker, a hung or erroring solver, a
cache compute that blows up, a corrupted checkpoint file — are rare and
timing-dependent, which makes the recovery paths the least-tested code
in the system.  A :class:`FaultPlan` turns each of those failures into a
*deterministic, named* event: code at a fault site calls
:func:`maybe_fire` (or :func:`fires`) and the plan decides, from a fixed
per-site hit counter, whether that particular hit fails.

Activation is explicit only: either :func:`install` a plan (tests use the
:func:`injected_faults` context manager) or set the ``REPRO_FAULTS``
environment variable.  When neither is present, every site check is a
single module-global ``None`` comparison — zero overhead on the hot path.

Plan syntax (``REPRO_FAULTS`` or :meth:`FaultPlan.parse`)::

    solver.error=2,worker.crash=1     # first N hits of a site fail
    {"solver.error": [1, 3]}          # JSON: exact hit indices (0-based)

Fault-site catalog (see docs/robustness.md):

========================  ====================================================
site                      fires inside
========================  ====================================================
``worker.crash``          :func:`repro.runtime.batch._crashable` (the
                          thread wrapper of a pooled trial) — simulates a
                          crashing trial
``solver.hang``           solver ``solve()`` entry — raises
                          :class:`InjectedHang` (a ``TimeoutError``)
``solver.error``          solver ``solve()`` entry — the solver returns a
                          status-``ERROR`` solution instead of solving
``cache.compute``         :meth:`repro.runtime.cache.EncodeCache.
                          get_or_compute` — the compute callback fails
``checkpoint.corrupt``    checkpoint writes — the record line is mangled so
                          the next load sees a corrupted file
``kstar.abort``           :func:`repro.core.kstar.kstar_search` after
                          a checkpoint record lands — simulates a kill
                          mid-ladder with the checkpoint intact
``failures.drop``         :func:`repro.failures.sweep.verify_patterns` after
                          a pattern verdict's checkpoint record lands —
                          simulates a kill mid-sweep with the checkpoint
                          intact
========================  ====================================================
"""

from __future__ import annotations

import json
import os
import threading
from collections.abc import Iterator, Mapping, Sequence
from contextlib import contextmanager

#: The documented fault sites (unknown names are allowed but inert unless
#: some code calls maybe_fire/fires with them).
SITES = (
    "worker.crash",
    "solver.hang",
    "solver.error",
    "cache.compute",
    "checkpoint.corrupt",
    "kstar.abort",
    "failures.drop",
)

ENV_VAR = "REPRO_FAULTS"


class FaultError(RuntimeError):
    """Base class of every injected-fault exception (typed, catchable)."""


class InjectedFault(FaultError):
    """An injected failure at a named fault site."""

    def __init__(self, site: str, hit: int) -> None:
        super().__init__(f"injected fault at {site!r} (hit {hit})")
        self.site = site
        self.hit = hit


class InjectedHang(InjectedFault, TimeoutError):
    """An injected solver hang (also a ``TimeoutError`` so the solver
    watchdog treats it as a timeout)."""


class FaultPlan:
    """Which hits of which fault sites fail, deterministically.

    ``spec`` maps a site name to either an ``int`` N (the first N hits
    fail) or a sequence of exact 0-based hit indices.  Hit counters are
    per-plan and thread-safe, so a plan replays identically run to run.
    """

    def __init__(self, spec: Mapping[str, int | Sequence[int]]) -> None:
        self._rules: dict[str, int | frozenset[int]] = {}
        for site, rule in spec.items():
            if isinstance(rule, bool) or not isinstance(rule, (int, Sequence)):
                raise ValueError(
                    f"fault rule for {site!r} must be an int count or a "
                    f"sequence of hit indices, got {rule!r}"
                )
            if isinstance(rule, int):
                if rule < 0:
                    raise ValueError(f"fault count for {site!r} is negative")
                self._rules[site] = rule
            else:
                self._rules[site] = frozenset(int(i) for i in rule)
        self._hits: dict[str, int] = {}
        self._fired: dict[str, int] = {}
        self._lock = threading.Lock()

    @classmethod
    def parse(cls, text: str) -> FaultPlan:
        """Parse the ``REPRO_FAULTS`` syntax (JSON object or ``a=1,b=2``)."""
        text = text.strip()
        if not text:
            return cls({})
        if text.startswith("{"):
            payload = json.loads(text)
            if not isinstance(payload, dict):
                raise ValueError("JSON fault plan must be an object")
            return cls(payload)
        spec: dict[str, int] = {}
        for item in text.split(","):
            item = item.strip()
            if not item:
                continue
            site, sep, count = item.partition("=")
            if not sep:
                raise ValueError(
                    f"bad fault plan entry {item!r}; expected site=count"
                )
            spec[site.strip()] = int(count)
        return cls(spec)

    @classmethod
    def from_env(cls, environ: Mapping[str, str] | None = None) -> FaultPlan | None:
        """The plan described by ``REPRO_FAULTS``, or ``None`` when unset."""
        env = os.environ if environ is None else environ
        text = env.get(ENV_VAR, "")
        if not text.strip():
            return None
        return cls.parse(text)

    def should_fire(self, site: str) -> bool:
        """Count one hit against ``site``; whether that hit fails."""
        with self._lock:
            index = self._hits.get(site, 0)
            self._hits[site] = index + 1
            rule = self._rules.get(site)
            if rule is None:
                return False
            fire = index < rule if isinstance(rule, int) else index in rule
            if fire:
                self._fired[site] = self._fired.get(site, 0) + 1
            return fire

    def hits(self, site: str) -> int:
        """How many times ``site`` has been checked."""
        with self._lock:
            return self._hits.get(site, 0)

    def fired(self, site: str | None = None) -> int:
        """How many injected failures have actually triggered."""
        with self._lock:
            if site is not None:
                return self._fired.get(site, 0)
            return sum(self._fired.values())


# Module-global activation.  _PLAN holds the installed plan; _ENV_CHECKED
# notes that REPRO_FAULTS was already consulted (and found unset), which
# keeps the inactive fast path to one comparison after the first call.
_PLAN: FaultPlan | None = None
_ENV_CHECKED = False
_STATE_LOCK = threading.Lock()


def install(plan: FaultPlan) -> None:
    """Activate ``plan`` process-wide (until :func:`uninstall`)."""
    global _PLAN
    with _STATE_LOCK:
        _PLAN = plan


def uninstall() -> None:
    """Deactivate any installed plan and forget the env-var cache."""
    global _PLAN, _ENV_CHECKED
    with _STATE_LOCK:
        _PLAN = None
        _ENV_CHECKED = False


def active_plan() -> FaultPlan | None:
    """The installed plan, else one lazily parsed from ``REPRO_FAULTS``."""
    global _PLAN, _ENV_CHECKED
    plan = _PLAN
    if plan is not None or _ENV_CHECKED:
        return plan
    with _STATE_LOCK:
        if _PLAN is None and not _ENV_CHECKED:
            _PLAN = FaultPlan.from_env()
            _ENV_CHECKED = True
        return _PLAN


def fires(site: str) -> bool:
    """Whether this hit of ``site`` should fail (non-raising form).

    Used by sites that model the failure themselves (a solver returning
    a status-``ERROR`` solution, a checkpoint writer mangling its line)
    rather than raising.
    """
    plan = active_plan()
    if plan is None:
        return False
    return plan.should_fire(site)


def maybe_fire(site: str) -> None:
    """Raise the injected fault for this hit of ``site``, if planned.

    Raises :class:`InjectedHang` for ``solver.hang`` (a ``TimeoutError``)
    and :class:`InjectedFault` for every other site.  No-op — a single
    ``None`` check — when no plan is active.
    """
    plan = active_plan()
    if plan is None:
        return
    if plan.should_fire(site):
        if site == "solver.hang":
            raise InjectedHang(site, plan.hits(site) - 1)
        raise InjectedFault(site, plan.hits(site) - 1)


@contextmanager
def injected_faults(plan: FaultPlan | Mapping[str, int | Sequence[int]]) -> Iterator[FaultPlan]:
    """Install ``plan`` (or a spec mapping) for the duration of a block."""
    if not isinstance(plan, FaultPlan):
        plan = FaultPlan(plan)
    install(plan)
    try:
        yield plan
    finally:
        uninstall()
