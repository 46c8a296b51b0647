"""The solver watchdog: retries, fallback chain, graceful degradation.

MILP solve times are unpredictable and solvers fail in practice — they
time out, return ``ERROR``, or crash outright.  :class:`ResilientSolver`
wraps any MILP backend with the standard MILP-practice response ladder:

1. **Per-attempt time limits** clipped to the call's flat
   :class:`~repro.resilience.policy.DeadlineBudget` (never exceed the
   run's deadline, never exceed the backend's own configured limit);
2. **Retry with backoff** on ``ERROR``/crash/hang, up to
   ``max_retries`` times per backend, pausing 0.05 s and doubling up
   to 2 s, each pause clipped to the budget;
3. **A fallback chain** — when the primary backend is out of attempts,
   the next backend gets the model (default:
   :class:`~repro.milp.highs.HighsSolver` →
   :class:`~repro.milp.branch_and_bound.BranchAndBoundSolver`);
4. **Graceful degradation** — a ``FEASIBLE`` incumbent at the deadline
   is accepted (and flagged ``degraded``) instead of failing the run.

:func:`under_watchdog` is the one rule by which ``explore``,
``kstar_search`` and ``explore_pareto`` put a solver under the watchdog
for one call.

Every attempt is recorded as a :class:`SolveAttempt`; the log rides on
``Solution.extra["solve_attempts"]`` and surfaces as
``SynthesisResult.solve_attempts`` with retry/fallback counters in
``--stats-json``.  ``INFEASIBLE``/``UNBOUNDED`` are definitive answers,
never retried.  The clock and sleep are injectable so tests run
instantly and deterministically.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass
from collections.abc import Sequence
from typing import Any

from repro.milp.model import Model
from repro.milp.solution import Solution, SolveStatus
from repro.milp.validate import warm_start_incumbent
from repro.resilience.policy import Clock, DeadlineBudget, Sleep
from repro.telemetry.trace import span

#: Statuses that end the solve immediately (a definitive answer or a
#: usable design) — retrying them cannot improve the outcome.
_DEFINITIVE = (
    SolveStatus.OPTIMAL,
    SolveStatus.FEASIBLE,
    SolveStatus.INFEASIBLE,
    SolveStatus.UNBOUNDED,
)

#: Retries per backend when the caller sets no cap.
MAX_RETRIES = 2
#: The backoff before the first retry; each later one doubles it, up to
#: :data:`BACKOFF_CAP_S`.  No jitter, so fault-injection runs replay
#: exactly.
BACKOFF_BASE_S = 0.05
BACKOFF_CAP_S = 2.0


@dataclass
class SolveAttempt:
    """One solver attempt in a :class:`ResilientSolver` run."""

    solver: str
    attempt: int  # 1-based attempt count on this backend
    status: str  # a SolveStatus value, or "crash" / "hang"
    seconds: float = 0.0
    message: str = ""
    fallback: bool = False  # True when not the primary backend
    degraded: bool = False  # True when an unproven incumbent was accepted
    #: The attempt's ``solve.attempt`` trace span (empty when untraced);
    #: cross-links the stats-json attempt log to the JSONL trace.
    span_id: str = ""

    def to_dict(self) -> dict:
        """JSON-ready representation (for ``--stats-json``)."""
        return {
            "solver": self.solver,
            "attempt": self.attempt,
            "status": self.status,
            "seconds": round(self.seconds, 6),
            "message": self.message,
            "fallback": self.fallback,
            "degraded": self.degraded,
            "span_id": self.span_id,
        }


def attempt_counters(attempts: Sequence[SolveAttempt]) -> dict:
    """Aggregate retry/fallback counters over an attempt log."""
    return {
        "attempts": len(attempts),
        "retries": sum(1 for a in attempts if a.attempt > 1),
        "fallbacks": len({a.solver for a in attempts if a.fallback}),
        "degraded": any(a.degraded for a in attempts),
    }


def default_fallbacks() -> tuple[Any, ...]:
    """The standard fallback chain behind the primary backend.

    The from-scratch branch-and-bound solver shares no code with HiGHS,
    so an input that trips a HiGHS bug (or an injected fault plan aimed
    at it) still has an independent path to an answer; its node limit
    bounds the worst case.
    """
    # Imported here, not at module level: the solver modules import the
    # fault-injection hooks from this package, so a top-level import
    # would close a cycle through the two package __init__ modules.
    from repro.milp.branch_and_bound import BranchAndBoundSolver

    return (BranchAndBoundSolver(node_limit=20_000),)


class ResilientSolver:
    """Wrap a MILP backend with timeouts, retries and a fallback chain.

    Parameters
    ----------
    solver:
        Primary backend; defaults to :class:`HighsSolver`.
    fallbacks:
        Backends tried in order once the primary is out of attempts.
        ``None`` selects :func:`default_fallbacks`; pass ``()`` for no
        fallback.
    max_retries:
        Retries per backend after its first attempt (so ``2`` allows
        three attempts on each backend).
    budget:
        A shared :class:`DeadlineBudget` spanning *every* solve routed
        through this instance (a call's deadline); ``None`` never
        expires.
    clock / sleep:
        Injectable time sources (tests pass fakes; production uses
        ``time.monotonic`` / ``time.sleep``).
    """

    name = "resilient"

    def __init__(
        self,
        solver: Any = None,
        *,
        fallbacks: Sequence[Any] | None = None,
        max_retries: int = MAX_RETRIES,
        budget: DeadlineBudget | None = None,
        clock: Clock = time.monotonic,
        sleep: Sleep = time.sleep,
    ) -> None:
        if max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if solver is None:
            # Deferred import (see default_fallbacks for the cycle note).
            from repro.milp.highs import HighsSolver

            solver = HighsSolver()
        self.solver = solver
        self.fallbacks = (
            default_fallbacks() if fallbacks is None else tuple(fallbacks)
        )
        self.max_retries = max_retries
        self.budget = budget
        self._clock = clock
        self._sleep = sleep

    # -- public API ---------------------------------------------------------

    def solve(self, model: Model) -> Solution:
        """Run the chain on ``model``; always returns a :class:`Solution`
        carrying the attempt log."""
        budget = (
            self.budget if self.budget is not None
            else DeadlineBudget(clock=self._clock)
        )
        attempts: list[SolveAttempt] = []
        for index, backend in enumerate((self.solver, *self.fallbacks)):
            is_fallback = index > 0
            for attempt in range(1, self.max_retries + 2):
                if budget.expired:
                    return self._give_up(model, attempts, budget)
                solution, record = self._attempt(
                    backend, model, budget, attempt, is_fallback
                )
                attempts.append(record)
                if solution is not None and solution.status in _DEFINITIVE:
                    return self._finish(solution, attempts)
                if (
                    solution is not None
                    and solution.status is SolveStatus.TIMEOUT
                ):
                    # A deterministic timeout with no incumbent: retrying
                    # the same backend with the same limit is futile —
                    # move down the chain (or give up at the deadline).
                    break
                if attempt <= self.max_retries and not budget.expired:
                    self._backoff(attempt, budget)
        return self._give_up(model, attempts, budget)

    # -- internals ----------------------------------------------------------

    def _backoff(self, attempt: int, budget: DeadlineBudget) -> None:
        """Sleep before retrying after failed attempt ``attempt``
        (1-based), clipped to the budget's remaining time."""
        pause = min(
            BACKOFF_BASE_S * 2 ** (attempt - 1), BACKOFF_CAP_S,
            budget.remaining(),
        )
        if pause > 0:
            self._sleep(pause)

    def _attempt(
        self,
        backend: Any,
        model: Model,
        budget: DeadlineBudget,
        attempt: int,
        is_fallback: bool,
    ) -> tuple[Solution | None, SolveAttempt]:
        limit = budget.solver_time_limit(
            cap=getattr(backend, "time_limit", None)
        )
        configured = _with_time_limit(backend, limit)
        name = getattr(backend, "name", type(backend).__name__)
        record = SolveAttempt(
            solver=name, attempt=attempt, status="crash", fallback=is_fallback
        )
        if attempt > 1:
            from repro.telemetry.metrics import counter

            counter("solver.retries", solver=name).inc()
        with span(
            "solve.attempt",
            solver=name,
            attempt=attempt,
            fallback=is_fallback,
        ) as attempt_span:
            record.span_id = attempt_span.span_id
            start = self._clock()
            try:
                solution = configured.solve(model)
            except TimeoutError as exc:  # includes InjectedHang
                record.status = "hang"
                record.message = str(exc)
                record.seconds = self._clock() - start
                attempt_span.set_attribute("outcome", record.status)
                return None, record
            except Exception as exc:  # noqa: BLE001 - backend crash retries
                record.message = f"{type(exc).__name__}: {exc}"
                record.seconds = self._clock() - start
                attempt_span.set_attribute("outcome", record.status)
                return None, record
            record.seconds = self._clock() - start
            record.status = solution.status.value
            record.message = solution.message
            if solution.status is SolveStatus.FEASIBLE:
                # Graceful degradation: accept the incumbent at the limit
                # rather than failing the rung; flag it for the stats.
                record.degraded = True
            attempt_span.set_attribute("outcome", record.status)
            return solution, record

    def _finish(
        self, solution: Solution, attempts: list[SolveAttempt]
    ) -> Solution:
        solution.extra["solve_attempts"] = attempts
        return solution

    def _give_up(
        self,
        model: Model,
        attempts: list[SolveAttempt],
        budget: DeadlineBudget,
    ) -> Solution:
        deadline = budget.expired
        message = (
            f"deadline exhausted after {len(attempts)} attempt(s)"
            if deadline
            else f"every backend failed after {len(attempts)} attempt(s)"
        )
        # Last rung of the degradation ladder: a validated warm-start
        # incumbent (Model.hints["warm_start"]) is a usable design, so a
        # chain that found nothing better returns it FEASIBLE/degraded
        # instead of a status-only failure.
        degraded = warm_start_incumbent(model, message)
        if degraded is not None:
            if attempts:
                attempts[-1].degraded = True
            return self._finish(degraded, attempts)
        status = SolveStatus.TIMEOUT if deadline else SolveStatus.ERROR
        return self._finish(
            Solution(status=status, message=message), attempts
        )


def _with_time_limit(backend: Any, limit: float | None) -> Any:
    """``backend`` configured to stop after ``limit`` seconds.

    Prefers the backend's own ``with_time_limit`` hook; falls back to a
    shallow copy with ``time_limit`` set, and leaves opaque backends
    untouched.
    """
    if limit is None or getattr(backend, "time_limit", None) == limit:
        return backend
    hook = getattr(backend, "with_time_limit", None)
    if callable(hook):
        return hook(limit)
    if hasattr(backend, "time_limit"):
        clone = copy.copy(backend)
        clone.time_limit = limit
        return clone
    return backend


def under_watchdog(
    solver: Any, budget: DeadlineBudget | None, max_retries: int | None
) -> Any:
    """``solver`` put under the watchdog for one call.

    With neither ``budget`` nor ``max_retries`` set, ``solver`` comes
    back unchanged.  A :class:`ResilientSolver` keeps its own settings
    and is never mutated: a copy takes ``budget`` when it carries none
    of its own, so the call's deadline never outlives the call on the
    caller's object.  Any other backend (``None`` for the default) is
    wrapped with ``max_retries`` retries, :data:`MAX_RETRIES` when
    unset.
    """
    if budget is None and max_retries is None:
        return solver
    if isinstance(solver, ResilientSolver):
        if budget is None or solver.budget is not None:
            return solver
        watched = copy.copy(solver)
        watched.budget = budget
        return watched
    return ResilientSolver(
        solver, budget=budget,
        max_retries=MAX_RETRIES if max_retries is None else max_retries,
    )
