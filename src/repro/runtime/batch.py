"""Parallel execution of independent exploration trials.

A :class:`BatchRunner` runs a list of :class:`Trial`\\ s and returns
their outcomes in submission order, whatever the completion order was.
One worker runs them inline on the caller's thread; more run them on one
:class:`~concurrent.futures.ThreadPoolExecutor`.  Threads share one
address space, so a common :class:`~repro.runtime.cache.EncodeCache`
works across trials, and the HiGHS solves release the GIL.

Each pool task runs in a fresh copy of the caller's :mod:`contextvars`
context, taken on the caller's thread when the task is submitted, so
spans opened by a trial (:mod:`repro.telemetry.trace`) parent under the
span that was open around :meth:`BatchRunner.run`.

A trial that raises is run again, up to :data:`RETRIES` times; on the
pool it is resubmitted, queueing behind the trials already waiting.  The
``worker.crash`` fault site (see :mod:`repro.resilience.faults`) fires
in the thread wrapper, so injected crashes take the same retry path as
real ones.  With a :class:`~repro.resilience.policy.DeadlineBudget`, a
trial that would start after the budget expired fails fast with a
:class:`TimeoutError` and ``timed_out=True`` without running.  A running
trial is never abandoned: :meth:`BatchRunner.run` returns only after
every trial it started has finished.  Deadlines inside a trial are the
solver watchdog's job (:class:`~repro.resilience.watchdog.ResilientSolver`
clips every solve to the budget's remaining time).
"""

from __future__ import annotations

import contextvars
import os
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from collections.abc import Callable, Sequence
from typing import Any

from repro.resilience.faults import maybe_fire
from repro.resilience.policy import DeadlineBudget

#: How many times a trial that raised is run again.
RETRIES = 1


@dataclass
class Trial:
    """One independent unit of work."""

    fn: Callable[..., Any]
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)
    label: str = ""


@dataclass
class TrialOutcome:
    """The result slot for one trial, in submission order."""

    index: int
    label: str
    value: Any = None
    error: BaseException | None = None
    seconds: float = 0.0
    attempts: int = 0
    timed_out: bool = False

    @property
    def ok(self) -> bool:
        """Whether the trial produced a value."""
        return self.error is None

    def unwrap(self) -> Any:
        """The value, re-raising the trial's error if it failed."""
        if self.error is not None:
            raise self.error
        return self.value


def _crashable(trial: Trial) -> Any:
    """Run ``trial`` in a pool thread, behind the ``worker.crash`` site."""
    maybe_fire("worker.crash")
    return trial.fn(*trial.args, **trial.kwargs)


def _inline(trial: Trial) -> Any:
    return trial.fn(*trial.args, **trial.kwargs)


class BatchRunner:
    """Execute independent trials with bounded parallelism.

    Parameters
    ----------
    workers:
        Thread count; defaults to ``os.cpu_count()`` capped at 8.  One
        worker (or one trial) runs inline on the caller's thread.
    budget:
        Optional :class:`DeadlineBudget`; a trial that would start after
        it expired fails fast with a :class:`TimeoutError`.
    """

    def __init__(
        self,
        *,
        workers: int | None = None,
        budget: DeadlineBudget | None = None,
    ) -> None:
        if workers is not None and workers < 1:
            raise ValueError("workers must be positive")
        self.workers = workers or min(os.cpu_count() or 2, 8)
        self.budget = budget

    def run(
        self,
        trials: Sequence[Trial | Callable],
        *,
        on_outcome: Callable[[TrialOutcome], None] | None = None,
    ) -> list[TrialOutcome]:
        """Execute ``trials`` and return outcomes in submission order.

        ``on_outcome`` is invoked on the caller's thread as each outcome
        is finalized (still in submission order), so callers can persist
        completed work incrementally — e.g. checkpoint a sweep point the
        moment its solve lands instead of after the whole batch.  An
        exception raised by the callback aborts the run: trials not yet
        started are cancelled, and the call returns (raising) once the
        running ones have finished.
        """
        normalized = [t if isinstance(t, Trial) else Trial(t) for t in trials]
        outcomes = [
            TrialOutcome(index=i, label=t.label)
            for i, t in enumerate(normalized)
        ]
        if self.workers == 1 or len(normalized) <= 1:
            for trial, outcome in zip(normalized, outcomes):
                self._attempt(_inline, trial, outcome)
                while self._retry(outcome):
                    self._attempt(_inline, trial, outcome)
                if on_outcome is not None:
                    on_outcome(outcome)
            return outcomes
        pool = ThreadPoolExecutor(max_workers=self.workers)

        def submit(index: int) -> Future:
            return pool.submit(
                contextvars.copy_context().run,
                self._attempt, _crashable, normalized[index], outcomes[index],
            )

        try:
            futures = [submit(index) for index in range(len(normalized))]
            for index, outcome in enumerate(outcomes):
                futures[index].result()
                while self._retry(outcome):
                    futures[index] = submit(index)
                    futures[index].result()
                if on_outcome is not None:
                    on_outcome(outcome)
        finally:
            pool.shutdown(wait=True, cancel_futures=True)
        return outcomes

    def _retry(self, outcome: TrialOutcome) -> bool:
        """Whether ``outcome`` raised and has attempts left."""
        return (
            outcome.error is not None and not outcome.timed_out
            and outcome.attempts <= RETRIES
        )

    def _attempt(
        self,
        call: Callable[[Trial], Any],
        trial: Trial,
        outcome: TrialOutcome,
    ) -> None:
        """Run one attempt of ``trial`` into ``outcome``; a first attempt
        that would start after the budget expired fails fast instead."""
        if (
            outcome.attempts == 0 and self.budget is not None
            and self.budget.expired
        ):
            outcome.error = TimeoutError(
                f"trial {outcome.label or outcome.index} not started: "
                f"deadline budget exhausted"
            )
            outcome.timed_out = True
            return
        outcome.attempts += 1
        start = time.perf_counter()
        try:
            outcome.value = call(trial)
            outcome.error = None
        except Exception as exc:  # noqa: BLE001 - reported per trial
            outcome.error = exc
        outcome.seconds = time.perf_counter() - start
