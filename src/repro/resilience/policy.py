"""The deadline budget of the solve stack.

One ``--deadline`` (``SolveOptions.deadline_s``) becomes one flat
:class:`DeadlineBudget` for the whole call.  Every layer below reads the
same object: the sweeps stop starting rungs or points once it expires,
the batch runner declines to start trials past it, and the solver
watchdog clips each attempt's ``time_limit`` and each retry backoff to
its remaining time.  The clock is injectable, so tests drive budgets
with a fake clock and run instantly and deterministically.
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable

#: Clock signature: a monotonic ``() -> float`` in seconds.
Clock = Callable[[], float]
#: Sleep signature: ``(seconds) -> None``.
Sleep = Callable[[float], None]

#: The smallest ``time_limit`` handed to a solver: an almost-expired
#: budget still yields a valid (tiny) limit, not a zero or negative one.
_MIN_TIME_LIMIT_S = 1e-3


class DeadlineBudget:
    """A wall-clock budget: ``seconds`` from construction, or unlimited.

    ``seconds=None`` never expires.  Budgets are immutable after
    construction.

    Example (a call's budget → a solver attempt's limit)::

        run = DeadlineBudget(600.0)
        limit = run.solver_time_limit(cap=60.0)   # per-attempt time_limit
    """

    __slots__ = ("_clock", "_deadline")

    def __init__(
        self, seconds: float | None = None, *, clock: Clock = time.monotonic
    ) -> None:
        if seconds is not None and seconds < 0:
            raise ValueError("budget seconds must be non-negative")
        self._clock = clock
        self._deadline = None if seconds is None else clock() + seconds

    def remaining(self) -> float:
        """Seconds left before the deadline (``inf`` when unlimited;
        never below 0)."""
        if self._deadline is None:
            return math.inf
        return max(self._deadline - self._clock(), 0.0)

    @property
    def limited(self) -> bool:
        """Whether the budget carries a deadline."""
        return self._deadline is not None

    @property
    def expired(self) -> bool:
        """Whether the deadline has passed."""
        return self.remaining() <= 0.0

    def solver_time_limit(self, cap: float | None = None) -> float | None:
        """The ``time_limit`` to hand a solver attempt.

        The minimum of ``cap`` (the solver's own configured limit, if
        any) and the budget's remaining time; ``None`` when both are
        unlimited.  Never below 1 ms, so an almost-expired budget still
        produces a valid solver limit.
        """
        rem = self.remaining() if cap is None else min(self.remaining(), cap)
        if math.isinf(rem):
            return None
        return max(rem, _MIN_TIME_LIMIT_S)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if not self.limited:
            return "DeadlineBudget(unlimited)"
        return f"DeadlineBudget(remaining={self.remaining():.3f}s)"
