"""Tests for deterministic fault injection (plans, env, end-to-end sites)."""

import pytest

from repro.milp.solution import SolveStatus
from repro.resilience import FaultError, FaultPlan, injected_faults
from repro.resilience.faults import (
    ENV_VAR,
    InjectedFault,
    InjectedHang,
    active_plan,
    fires,
    install,
    maybe_fire,
    uninstall,
)


class TestFaultPlan:
    def test_count_rule_fires_first_n_hits(self):
        plan = FaultPlan({"solver.error": 2})
        assert plan.should_fire("solver.error")
        assert plan.should_fire("solver.error")
        assert not plan.should_fire("solver.error")
        assert plan.hits("solver.error") == 3
        assert plan.fired("solver.error") == 2

    def test_index_rule_fires_exact_hits(self):
        plan = FaultPlan({"worker.crash": [1, 3]})
        fired = [plan.should_fire("worker.crash") for _ in range(5)]
        assert fired == [False, True, False, True, False]

    def test_unlisted_site_never_fires_but_counts(self):
        plan = FaultPlan({"solver.error": 1})
        assert not plan.should_fire("cache.compute")
        assert plan.hits("cache.compute") == 1

    def test_parse_kv_syntax(self):
        plan = FaultPlan.parse("solver.error=2, worker.crash=1")
        assert plan.should_fire("solver.error")
        assert plan.should_fire("worker.crash")
        assert not plan.should_fire("worker.crash")

    def test_parse_json_syntax(self):
        plan = FaultPlan.parse('{"solver.hang": [0]}')
        assert plan.should_fire("solver.hang")
        assert not plan.should_fire("solver.hang")

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            FaultPlan.parse("solver.error")
        with pytest.raises(ValueError):
            FaultPlan({"x": True})
        with pytest.raises(ValueError):
            FaultPlan({"x": -1})

    def test_from_env(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "cache.compute=1")
        plan = FaultPlan.from_env()
        assert plan is not None and plan.should_fire("cache.compute")
        monkeypatch.delenv(ENV_VAR)
        assert FaultPlan.from_env() is None


class TestActivation:
    def test_inactive_by_default(self):
        uninstall()
        assert active_plan() is None
        assert not fires("solver.error")
        maybe_fire("solver.error")  # no-op, must not raise

    def test_install_uninstall(self):
        install(FaultPlan({"solver.error": 1}))
        assert fires("solver.error")
        uninstall()
        assert not fires("solver.error")

    def test_env_var_activates_lazily(self, monkeypatch):
        uninstall()  # forget any cached env check
        monkeypatch.setenv(ENV_VAR, "solver.error=1")
        assert fires("solver.error")
        uninstall()

    def test_context_manager_scopes_plan(self):
        with injected_faults({"cache.compute": 1}) as plan:
            with pytest.raises(InjectedFault):
                maybe_fire("cache.compute")
            assert plan.fired() == 1
        assert active_plan() is None

    def test_hang_site_raises_timeout_subclass(self):
        with injected_faults({"solver.hang": 1}):
            with pytest.raises(TimeoutError) as excinfo:
                maybe_fire("solver.hang")
            assert isinstance(excinfo.value, InjectedHang)
            assert isinstance(excinfo.value, FaultError)


class TestSitesEndToEnd:
    def test_solver_error_yields_error_status(self):
        from repro.milp.highs import HighsSolver
        from repro.milp.model import Model

        m = Model()
        x = m.binary("x")
        m.minimize(x)
        with injected_faults({"solver.error": 1}):
            bad = HighsSolver().solve(m)
            good = HighsSolver().solve(m)
        assert bad.status is SolveStatus.ERROR
        assert "injected" in bad.message
        assert good.status is SolveStatus.OPTIMAL

    def test_solver_hang_raises_from_both_backends(self):
        from repro.milp.branch_and_bound import BranchAndBoundSolver
        from repro.milp.highs import HighsSolver
        from repro.milp.model import Model

        m = Model()
        x = m.binary("x")
        m.minimize(x)
        with injected_faults({"solver.hang": 2}):
            with pytest.raises(InjectedHang):
                HighsSolver().solve(m)
            with pytest.raises(InjectedHang):
                BranchAndBoundSolver().solve(m)

    def test_watchdog_rides_out_injected_faults(self):
        """An ERROR then a hang, and the chain still lands OPTIMAL."""
        from repro.milp.highs import HighsSolver
        from repro.milp.model import Model
        from repro.resilience import ResilientSolver

        m = Model()
        x = m.binary("x")
        m.minimize(x)
        solver = ResilientSolver(
            HighsSolver(), fallbacks=(), max_retries=2, sleep=lambda s: None,
        )
        with injected_faults({"solver.error": 1, "solver.hang": [1]}):
            solution = solver.solve(m)
        assert solution.status is SolveStatus.OPTIMAL
        statuses = [a.status for a in solution.extra["solve_attempts"]]
        assert statuses == ["error", "hang", "optimal"]

    def test_worker_crash_retried_by_batch_runner(self):
        from repro.runtime import BatchRunner, Trial

        with injected_faults({"worker.crash": 1}) as plan:
            # Inline runs call fn directly (no thread wrapper), so route
            # through the pool with two trials.
            runner = BatchRunner(workers=2)
            outcomes = runner.run([
                Trial(lambda: "a"), Trial(lambda: "b"),
            ])
            assert [o.value for o in outcomes] == ["a", "b"]
            assert plan.fired("worker.crash") == 1
            assert max(o.attempts for o in outcomes) == 2

    def test_checkpoint_corrupt_detected_on_reload(self, tmp_path):
        from repro.resilience import Checkpoint

        meta = {"ladder": [1], "objective": "cost"}
        ckpt = Checkpoint(tmp_path / "c.jsonl", "kstar", meta)
        ckpt.append({"k_star": 1, "status": "optimal"})
        with injected_faults({"checkpoint.corrupt": 1}):
            ckpt.append({"k_star": 3, "status": "optimal"})
        fresh = Checkpoint(tmp_path / "c.jsonl", "kstar", meta)
        # The mangled line is the *last* one: salvage drops it and keeps
        # the intact prefix (matching the kill-mid-write contract).
        assert [r["k_star"] for r in fresh.load()] == [1]
