"""Tests for the deadline budget and the watchdog's retry schedule (fake
clock, no sleeps)."""

import math

import pytest

from repro.milp.model import Model
from repro.resilience import DeadlineBudget, ResilientSolver


class FakeClock:
    """A manually advanced monotonic clock."""

    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestDeadlineBudget:
    def test_unlimited_never_expires(self):
        clock = FakeClock()
        budget = DeadlineBudget(None, clock=clock)
        clock.advance(1e9)
        assert not budget.limited
        assert not budget.expired
        assert budget.remaining() == math.inf
        assert budget.solver_time_limit() is None

    def test_remaining_counts_down(self):
        clock = FakeClock()
        budget = DeadlineBudget(10.0, clock=clock)
        assert budget.remaining() == pytest.approx(10.0)
        clock.advance(4.0)
        assert budget.remaining() == pytest.approx(6.0)
        assert not budget.expired
        clock.advance(7.0)
        assert budget.remaining() == 0.0
        assert budget.expired

    def test_negative_seconds_rejected(self):
        with pytest.raises(ValueError):
            DeadlineBudget(-1.0)

    def test_solver_time_limit_caps_and_floors(self):
        clock = FakeClock()
        budget = DeadlineBudget(30.0, clock=clock)
        # Remaining below the solver's own cap wins.
        assert budget.solver_time_limit(cap=300.0) == pytest.approx(30.0)
        # The solver's cap wins when tighter.
        assert budget.solver_time_limit(cap=5.0) == pytest.approx(5.0)
        # Nearly expired budgets still yield a positive limit.
        clock.advance(30.0)
        assert budget.solver_time_limit(cap=300.0) == pytest.approx(1e-3)

    def test_solver_time_limit_unlimited_with_cap(self):
        budget = DeadlineBudget(None, clock=FakeClock())
        assert budget.solver_time_limit(cap=12.0) == pytest.approx(12.0)


class Crashing:
    """A backend whose every solve raises, advancing the fake clock by
    ``burn`` seconds first."""

    name = "crashing"

    def __init__(self, clock, burn=0.0):
        self.clock = clock
        self.burn = burn
        self.calls = 0

    def solve(self, model):
        self.calls += 1
        self.clock.advance(self.burn)
        raise RuntimeError("crash")


def run_retries(max_retries, *, budget_s=None, burn=0.0):
    """Run a retry schedule against an always-crashing backend; return
    the backend's call count and the pauses slept."""
    clock = FakeClock()
    slept = []
    backend = Crashing(clock, burn)
    solver = ResilientSolver(
        backend, fallbacks=(), max_retries=max_retries,
        budget=(
            None if budget_s is None else DeadlineBudget(budget_s, clock=clock)
        ),
        clock=clock, sleep=lambda s: (slept.append(s), clock.advance(s)),
    )
    solver.solve(Model(name="retry-schedule"))
    return backend.calls, slept


class TestRetryPolicy:
    """The watchdog's fixed backoff: 0.05 s, doubling, capped at 2 s,
    clipped to the budget, no sleep at zero."""

    def test_attempts_counts_first_try(self):
        assert run_retries(2)[0] == 3
        assert run_retries(0)[0] == 1

    def test_exponential_delays_capped(self):
        _, slept = run_retries(8)
        assert slept == [
            pytest.approx(d)
            for d in (0.05, 0.1, 0.2, 0.4, 0.8, 1.6, 2.0, 2.0)
        ]

    def test_validation(self):
        with pytest.raises(ValueError):
            ResilientSolver(Crashing(FakeClock()), max_retries=-1)

    def test_backoff_uses_injected_sleep(self):
        _, slept = run_retries(2)
        assert slept == [pytest.approx(0.05), pytest.approx(0.1)]

    def test_backoff_clipped_to_budget(self):
        # The first attempt burns 0.1 of a 0.12 s budget: the 0.05 s
        # pause is clipped to the 0.02 s left, and the budget is then
        # spent, so no second attempt starts.
        calls, slept = run_retries(2, budget_s=0.12, burn=0.1)
        assert slept == [pytest.approx(0.02)]
        assert calls == 1

    def test_zero_delay_skips_sleep(self):
        _, slept = run_retries(0)
        assert slept == []
