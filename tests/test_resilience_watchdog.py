"""Tests for the resilient solver watchdog (scripted backends, no sleeps)."""

import pytest

from repro.milp.model import Model
from repro.milp.solution import Solution, SolveStatus
from repro.resilience import DeadlineBudget, ResilientSolver, SolveAttempt
from repro.resilience.watchdog import attempt_counters, under_watchdog


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class ScriptedSolver:
    """Replays a fixed sequence of outcomes.

    Each script entry is a Solution, an Exception to raise, or a float:
    seconds to advance the fake clock before returning OPTIMAL.
    """

    name = "scripted"

    def __init__(self, script, clock=None, time_limit=None):
        self.script = list(script)
        self.calls = 0
        self.clock = clock
        self.time_limit = time_limit
        self.seen_limits = []

    def with_time_limit(self, seconds):
        clone = ScriptedSolver(self.script, self.clock, seconds)
        # Share mutable state so assertions see every call.
        clone.script = self.script
        clone.seen_limits = self.seen_limits
        return clone

    def solve(self, model):
        self.seen_limits.append(self.time_limit)
        self.calls += 1
        step = self.script.pop(0)
        if isinstance(step, tuple):  # (seconds_to_burn, outcome)
            burn, step = step
            if self.clock is not None:
                self.clock.advance(burn)
        if isinstance(step, BaseException):
            raise step
        if isinstance(step, (int, float)):
            if self.clock is not None:
                self.clock.advance(step)
            return Solution(status=SolveStatus.OPTIMAL, objective=1.0)
        return step


def model():
    m = Model(name="watchdog-test")
    m.binary("x")
    return m


def make_solver(script, clock, **kwargs):
    kwargs.setdefault("fallbacks", ())
    kwargs.setdefault("max_retries", 2)
    backend = ScriptedSolver(script, clock)
    solver = ResilientSolver(
        backend, clock=clock, sleep=lambda s: clock.advance(s), **kwargs
    )
    return solver, backend


class TestRetryAndFallback:
    def test_error_then_optimal_retries(self):
        clock = FakeClock()
        solver, backend = make_solver(
            [Solution(status=SolveStatus.ERROR, message="boom"), 0.5], clock
        )
        solution = solver.solve(model())
        assert solution.status is SolveStatus.OPTIMAL
        assert backend.calls == 2
        log = solution.extra["solve_attempts"]
        assert [a.status for a in log] == ["error", "optimal"]
        assert log[0].attempt == 1 and log[1].attempt == 2

    def test_crash_then_optimal_retries(self):
        clock = FakeClock()
        solver, backend = make_solver([RuntimeError("segv"), 0.1], clock)
        solution = solver.solve(model())
        assert solution.status is SolveStatus.OPTIMAL
        log = solution.extra["solve_attempts"]
        assert log[0].status == "crash"
        assert "segv" in log[0].message

    def test_hang_recorded_and_retried(self):
        clock = FakeClock()
        solver, _ = make_solver([TimeoutError("stuck"), 0.1], clock)
        solution = solver.solve(model())
        assert solution.status is SolveStatus.OPTIMAL
        assert solution.extra["solve_attempts"][0].status == "hang"

    def test_fallback_chain_engaged(self):
        clock = FakeClock()
        primary = ScriptedSolver([RuntimeError("a"), RuntimeError("b")], clock)
        backup = ScriptedSolver([0.2], clock)
        backup.name = "backup"
        solver = ResilientSolver(
            primary, fallbacks=(backup,), max_retries=1,
            clock=clock, sleep=lambda s: clock.advance(s),
        )
        solution = solver.solve(model())
        assert solution.status is SolveStatus.OPTIMAL
        log = solution.extra["solve_attempts"]
        assert [a.solver for a in log] == ["scripted", "scripted", "backup"]
        assert [a.fallback for a in log] == [False, False, True]
        counters = attempt_counters(log)
        assert counters["retries"] == 1
        assert counters["fallbacks"] == 1

    def test_feasible_incumbent_accepted_as_degraded(self):
        clock = FakeClock()
        solver, _ = make_solver(
            [Solution(status=SolveStatus.FEASIBLE, objective=9.0)], clock
        )
        solution = solver.solve(model())
        assert solution.status is SolveStatus.FEASIBLE
        log = solution.extra["solve_attempts"]
        assert log[0].degraded
        assert attempt_counters(log)["degraded"]

    def test_infeasible_is_definitive_no_retry(self):
        clock = FakeClock()
        solver, backend = make_solver(
            [Solution(status=SolveStatus.INFEASIBLE), 1.0], clock
        )
        solution = solver.solve(model())
        assert solution.status is SolveStatus.INFEASIBLE
        assert backend.calls == 1

    def test_timeout_without_incumbent_moves_down_chain(self):
        clock = FakeClock()
        primary = ScriptedSolver([Solution(status=SolveStatus.TIMEOUT)], clock)
        backup = ScriptedSolver([0.2], clock)
        solver = ResilientSolver(
            primary, fallbacks=(backup,), max_retries=2,
            clock=clock, sleep=lambda s: clock.advance(s),
        )
        solution = solver.solve(model())
        assert solution.status is SolveStatus.OPTIMAL
        # No second attempt on the primary: its deterministic timeout
        # would just repeat.
        assert primary.calls == 1 and backup.calls == 1


class TestFailureAndDeadline:
    def test_all_backends_fail_returns_error(self):
        clock = FakeClock()
        solver, _ = make_solver(
            [RuntimeError("1"), RuntimeError("2"), RuntimeError("3")], clock,
            max_retries=2,
        )
        solution = solver.solve(model())
        assert solution.status is SolveStatus.ERROR
        assert len(solution.extra["solve_attempts"]) == 3

    def test_deadline_expiry_returns_timeout(self):
        clock = FakeClock()
        budget = DeadlineBudget(1.0, clock=clock)
        # The first attempt burns 2 s before crashing, so the second
        # attempt starts expired and the watchdog gives up.
        solver, backend = make_solver(
            [(2.0, RuntimeError("slow")), (2.0, RuntimeError("slow")), 0.1],
            clock, budget=budget,
        )
        solution = solver.solve(model())
        assert solution.status is SolveStatus.TIMEOUT
        assert len(backend.seen_limits) == 1
        assert "deadline" in solution.message

    def test_backoff_clipped_to_remaining_budget(self):
        clock = FakeClock()
        budget = DeadlineBudget(10.0, clock=clock)
        slept = []
        backend = ScriptedSolver([RuntimeError("x"), 0.1], clock)
        solver = ResilientSolver(
            backend, fallbacks=(), budget=budget, max_retries=1,
            clock=clock, sleep=lambda s: (slept.append(s), clock.advance(s)),
        )
        solution = solver.solve(model())
        assert solution.status is SolveStatus.OPTIMAL
        assert slept == [pytest.approx(0.05)]

    def test_per_attempt_limit_clipped_to_budget(self):
        clock = FakeClock()
        budget = DeadlineBudget(5.0, clock=clock)
        backend = ScriptedSolver([0.1], clock, time_limit=300.0)
        solver = ResilientSolver(
            backend, fallbacks=(), budget=budget, max_retries=0,
            clock=clock, sleep=lambda s: clock.advance(s),
        )
        solver.solve(model())
        assert backend.seen_limits == [pytest.approx(5.0)]


class TestIntegration:
    def test_wraps_real_solver_end_to_end(self, grid_instance, library,
                                          grid_requirements):
        import repro

        result = repro.explore(
            grid_instance.template, library, grid_requirements,
            objective="cost",
            options=repro.SolveOptions(deadline_s=120.0, max_retries=1),
        )
        assert result.feasible
        assert len(result.solve_attempts) == 1
        assert isinstance(result.solve_attempts[0], SolveAttempt)
        payload = result.stats_dict()["resilience"]
        assert payload["attempts"] == 1
        assert payload["retries"] == 0
        assert payload["attempt_log"][0]["solver"] == "highs"


    def test_callers_watchdog_takes_the_call_deadline(
        self, grid_instance, library, grid_requirements
    ):
        """A ResilientSolver passed to explore() runs under the call's
        deadline: its backend is handed a time limit within it."""
        import repro
        from repro.milp.highs import HighsSolver

        class Recording:
            name = "recording"
            time_limit = None

            def __init__(self):
                self.seen = []

            def solve(self, m):
                self.seen.append(self.time_limit)
                return HighsSolver(time_limit=self.time_limit).solve(m)

        backend = Recording()
        result = repro.explore(
            grid_instance.template, library, grid_requirements,
            solver=ResilientSolver(backend, fallbacks=()),
            options=repro.SolveOptions(deadline_s=60.0),
        )
        assert result.feasible
        assert backend.seen
        assert all(
            limit is not None and limit <= 60.0 for limit in backend.seen
        )


class TestUnderWatchdog:
    def test_no_deadline_no_cap_returns_the_solver(self):
        backend = ScriptedSolver([])
        assert under_watchdog(backend, None, None) is backend
        watched = ResilientSolver(backend)
        assert under_watchdog(watched, None, None) is watched

    def test_plain_backend_is_wrapped(self):
        backend = ScriptedSolver([])
        budget = DeadlineBudget(5.0)
        watched = under_watchdog(backend, budget, None)
        assert isinstance(watched, ResilientSolver)
        assert watched.solver is backend
        assert watched.budget is budget
        assert watched.max_retries == 2
        assert under_watchdog(backend, None, 0).max_retries == 0

    def test_callers_watchdog_keeps_its_settings_and_is_not_mutated(self):
        backend = ScriptedSolver([])
        own = ResilientSolver(backend, fallbacks=(), max_retries=5)
        budget = DeadlineBudget(5.0)
        watched = under_watchdog(own, budget, 1)
        assert watched is not own
        assert watched.budget is budget and own.budget is None
        assert watched.max_retries == 5 and watched.fallbacks == ()
        assert watched.solver is backend
        # A watchdog with a budget of its own is used as it is.
        assert under_watchdog(watched, DeadlineBudget(1.0), 1) is watched


class TestWarmStartDegradation:
    def _hinted_model(self):
        m = Model(name="degrade-test")
        x = m.binary("x")
        m.add(x >= 1, "pin")
        m.minimize(2 * x)
        m.hints["warm_start"] = {
            "x": [1.0], "objective": 2.0, "source": "previous-incumbent",
        }
        return m

    def test_exhausted_chain_degrades_to_the_warm_start(self):
        clock = FakeClock()
        solver, _ = make_solver(
            [RuntimeError("1")], clock, max_retries=0,
        )
        solution = solver.solve(self._hinted_model())
        assert solution.status is SolveStatus.FEASIBLE
        assert solution.objective == pytest.approx(2.0)
        assert solution.extra["degraded_to_warm_start"] is True
        assert "previous-incumbent" in solution.message
        assert solution.extra["solve_attempts"][-1].degraded

    def test_stale_hint_never_degrades_to_a_wrong_answer(self):
        clock = FakeClock()
        solver, _ = make_solver(
            [RuntimeError("1")], clock, max_retries=0,
        )
        m = self._hinted_model()
        m.hints["warm_start"]["x"] = [0.0]  # violates the pinned row
        solution = solver.solve(m)
        assert solution.status is SolveStatus.ERROR

    def test_no_hint_keeps_the_statusonly_failure(self):
        clock = FakeClock()
        solver, _ = make_solver(
            [RuntimeError("1")], clock, max_retries=0,
        )
        solution = solver.solve(model())
        assert solution.status is SolveStatus.ERROR
