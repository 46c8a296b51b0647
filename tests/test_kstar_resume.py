"""Checkpoint/resume and deadline behaviour of the K* ladder search.

Uses scripted fake explorers (no MILP solves), so an interrupted ladder
can be replayed exactly and the resumed run compared rung for rung.
"""

import pytest

from repro.milp.solution import Solution, SolveStatus
from repro.resilience import DeadlineBudget, injected_faults
from repro.resilience.faults import InjectedFault
from repro.core.kstar import kstar_search
from repro.core.options import SolveOptions

#: K* -> (objective, seconds); chosen so K=5 wins and K=10 stops the scan.
OBJECTIVES = {1: 120.0, 3: 100.0, 5: 80.0, 10: 80.0, 20: 80.0}


class FakeResult:
    """Quacks like a SynthesisResult as far as the ladder scan needs."""

    def __init__(self, objective, seconds=0.5):
        self.status = SolveStatus.OPTIMAL
        self.feasible = True
        self.objective_value = objective
        self.total_seconds = seconds
        self.objective_terms = {"cost": objective}
        self.solution = Solution(
            status=SolveStatus.OPTIMAL, objective=objective
        )

    def stats_dict(self):
        return {"status": "optimal", "objective": self.objective_value}


class FakeExplorer:
    def __init__(self, k, log=None):
        self.k = k
        self.cache = None
        self.solver = None
        self.log = log if log is not None else []

    def solve(self, objective):
        self.log.append(self.k)
        return FakeResult(OBJECTIVES[self.k])


def make_factory(log):
    return lambda k: FakeExplorer(k, log)


def one_worker(monkeypatch):
    """Run the parallel ladder's batch on one inline worker, so its
    trials run in ladder order."""
    from repro.runtime import BatchRunner

    monkeypatch.setattr(
        "repro.core.kstar.BatchRunner",
        lambda workers, budget: BatchRunner(workers=1, budget=budget),
    )


class TestCheckpointResume:
    def test_uninterrupted_run_with_checkpoint(self, tmp_path):
        path = tmp_path / "ladder.jsonl"
        log = []
        search = kstar_search(
            make_factory(log), ladder=(1, 3, 5, 10),
            options=SolveOptions(checkpoint=path),
        )
        assert search.best.k_star == 5
        assert search.restored_ks == ()
        assert path.exists()

    def test_killed_ladder_resumes_and_selects_same_rung(self, tmp_path):
        path = tmp_path / "ladder.jsonl"
        baseline = kstar_search(make_factory([]), ladder=(1, 3, 5, 10))

        # Kill the run right after the second rung checkpoints.
        with injected_faults({"kstar.abort": [1]}):
            with pytest.raises(InjectedFault):
                kstar_search(
                    make_factory([]), ladder=(1, 3, 5, 10),
                    options=SolveOptions(checkpoint=path),
                )

        log = []
        resumed = kstar_search(
            make_factory(log), ladder=(1, 3, 5, 10),
            options=SolveOptions(checkpoint=path, resume=True),
        )
        # Completed rungs were replayed, not re-solved.
        assert resumed.restored_ks == (1, 3)
        assert log == [5, 10]
        # Identical selection and identical recorded numbers.
        assert resumed.best.k_star == baseline.best.k_star
        assert resumed.best.objective == baseline.best.objective
        assert resumed.stop_reason == baseline.stop_reason
        assert [t.k_star for t in resumed.trials] == [
            t.k_star for t in baseline.trials
        ]
        assert [t.objective for t in resumed.trials] == [
            t.objective for t in baseline.trials
        ]

    def test_fully_checkpointed_run_resolves_nothing(self, tmp_path):
        path = tmp_path / "ladder.jsonl"
        kstar_search(make_factory([]), ladder=(1, 3, 5, 10),
                     options=SolveOptions(checkpoint=path))
        log = []
        resumed = kstar_search(
            make_factory(log), ladder=(1, 3, 5, 10),
            options=SolveOptions(checkpoint=path, resume=True),
        )
        assert log == []
        assert resumed.best.k_star == 5
        assert set(resumed.restored_ks) == {1, 3, 5, 10}

    def test_without_resume_flag_checkpoint_is_overwritten(self, tmp_path):
        path = tmp_path / "ladder.jsonl"
        kstar_search(make_factory([]), ladder=(1, 3),
                     options=SolveOptions(checkpoint=path))
        log = []
        kstar_search(make_factory(log), ladder=(1, 3),
                     options=SolveOptions(checkpoint=path))
        assert log == [1, 3]  # solved fresh, no replay

    def test_mismatched_ladder_refused(self, tmp_path):
        from repro.resilience import CheckpointError

        path = tmp_path / "ladder.jsonl"
        kstar_search(make_factory([]), ladder=(1, 3),
                     options=SolveOptions(checkpoint=path))
        with pytest.raises(CheckpointError):
            kstar_search(
                make_factory([]), ladder=(1, 3, 5),
                options=SolveOptions(checkpoint=path, resume=True),
            )

    def test_parallel_resume_matches_sequential(self, tmp_path):
        path = tmp_path / "ladder.jsonl"
        with injected_faults({"kstar.abort": [0]}):
            with pytest.raises(InjectedFault):
                kstar_search(
                    make_factory([]), ladder=(1, 3, 5, 10),
                    options=SolveOptions(checkpoint=path),
                )
        resumed = kstar_search(
            make_factory([]), ladder=(1, 3, 5, 10),
            options=SolveOptions(checkpoint=path, resume=True, parallel=2),
        )
        assert resumed.restored_ks == (1,)
        assert resumed.best.k_star == 5


class TestDeadline:
    def test_expired_budget_stops_ladder(self):
        clock_now = [0.0]
        budget = DeadlineBudget(1.0, clock=lambda: clock_now[0])
        solved = []

        def factory(k):
            explorer = FakeExplorer(k, solved)
            original = explorer.solve

            def timed_solve(objective):
                clock_now[0] += 0.6  # each rung burns 0.6 s
                return original(objective)

            explorer.solve = timed_solve
            return explorer

        search = kstar_search(factory, ladder=(1, 3, 5, 10), budget=budget)
        # Rung 1 (0.6 s) and rung 3 (1.2 s total) run; rung 5 starts
        # after expiry and is skipped.
        assert solved == [1, 3]
        assert search.stop_reason == "deadline exhausted"
        assert search.best.k_star == 3

    def test_rung_cut_at_the_deadline_is_not_a_result(self, tmp_path):
        """A rung whose solve the deadline stops empty-handed stops the
        ladder without a trial or a checkpoint record; a resume solves
        it again."""
        clock_now = [0.0]
        budget = DeadlineBudget(1.0, clock=lambda: clock_now[0])

        def factory(k):
            explorer = FakeExplorer(k)

            def cut_solve(objective):
                clock_now[0] += 1.5  # runs past the deadline
                result = FakeResult(float("inf"))
                result.status = SolveStatus.TIMEOUT
                result.feasible = False
                return result

            explorer.solve = cut_solve
            return explorer

        path = tmp_path / "ladder.jsonl"
        search = kstar_search(
            factory, ladder=(1, 3), budget=budget,
            options=SolveOptions(checkpoint=path),
        )
        assert search.trials == []
        assert search.stop_reason == "deadline exhausted"
        assert not path.exists()  # no rung was recorded
        log = []
        kstar_search(
            make_factory(log), ladder=(1, 3),
            options=SolveOptions(checkpoint=path, resume=True),
        )
        assert log == [1, 3]

    def test_deadline_does_not_mask_improvement_stop(self):
        budget = DeadlineBudget(1e9)
        search = kstar_search(
            make_factory([]), ladder=(1, 3, 5, 10), budget=budget
        )
        assert search.stop_reason == "no further improvement"


class TestResilientWiring:
    def test_retry_wraps_rung_solver(self):
        from repro.resilience import ResilientSolver

        seen = []

        def factory(k):
            explorer = FakeExplorer(k)
            explorer.solver = object()
            original = explorer.solve

            def check_solve(objective):
                seen.append(type(explorer.solver))
                return original(objective)

            explorer.solve = check_solve
            return explorer

        kstar_search(
            factory, ladder=(1, 3), options=SolveOptions(max_retries=1)
        )
        assert all(cls is ResilientSolver for cls in seen)

    def test_shared_watchdog_keeps_no_ladder_deadline(self, library):
        """A ResilientSolver that the factory shares across rungs comes
        back from the ladder without its budget, so a later solve is
        not cut off by it."""
        from repro.core.facade import build_explorer
        from repro.milp.highs import HighsSolver
        from repro.network import (
            LinkQualityRequirement,
            RequirementSet,
            synthetic_template,
        )
        from repro.resilience import ResilientSolver

        inst = synthetic_template(12, 6, seed=11)
        reqs = RequirementSet()
        for s in inst.sensor_ids:
            reqs.require_route(s, inst.sink_id)
        reqs.link_quality = LinkQualityRequirement(min_snr_db=20.0)
        shared = ResilientSolver(HighsSolver())

        def factory(k):
            return build_explorer(
                inst.template, library, reqs, solver=shared, k_star=k
            )

        clock = [0.0]
        search = kstar_search(
            factory, ladder=(1, 2, 3),
            budget=DeadlineBudget(60.0, clock=lambda: clock[0]),
        )
        assert search.best is not None
        clock[0] = 120.0  # the ladder's deadline has passed
        assert shared.budget is None
        assert factory(3).solve("cost").status is SolveStatus.OPTIMAL


class TestParallelDeadline:
    def test_parallel_deadline_degrades_gracefully(self, monkeypatch):
        """A budget spent mid-ladder must yield 'deadline exhausted', not
        an uncaught TimeoutError from outcome.unwrap()."""
        clock_now = [0.0]
        budget = DeadlineBudget(1.0, clock=lambda: clock_now[0])
        solved = []

        def factory(k):
            explorer = FakeExplorer(k, solved)
            original = explorer.solve

            def timed_solve(objective):
                clock_now[0] += 0.6  # each rung burns 0.6 s
                return original(objective)

            explorer.solve = timed_solve
            return explorer

        # Two workers would race on the fake clock; one inline worker
        # drives the *parallel* code path deterministically.
        one_worker(monkeypatch)
        search = kstar_search(
            factory, ladder=(1, 3, 5, 10), budget=budget,
            options=SolveOptions(parallel=2),
        )
        assert solved == [1, 3]  # rung 5 started after expiry
        assert search.stop_reason == "deadline exhausted"
        assert search.best.k_star == 3

    def test_parallel_checkpoint_streams_per_rung(self, tmp_path, monkeypatch):
        """Each rung's record lands on disk as its solve completes, so a
        kill mid-batch keeps the finished rungs (not just the extremes)."""
        import json

        one_worker(monkeypatch)
        path = tmp_path / "ladder.jsonl"
        kstar_search(
            make_factory([]), ladder=(1, 3, 5, 10),
            options=SolveOptions(checkpoint=path, parallel=2),
        )
        # All consumed rungs are recorded...
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        header, records = lines[0], lines[1:]
        assert header["meta"]["ladder"] == [1, 3, 5, 10]
        assert [r["k_star"] for r in records] == [1, 3, 5, 10]
        # ...and a crash on rung 3 of a fresh run still persists rung 1.
        path2 = tmp_path / "killed.jsonl"

        def crashing_factory(k):
            explorer = FakeExplorer(k)
            if k == 5:
                def boom(objective):
                    raise RuntimeError("worker died")
                explorer.solve = boom
            return explorer

        monkeypatch.setattr("repro.runtime.batch.RETRIES", 0)
        with pytest.raises(RuntimeError):
            kstar_search(
                crashing_factory, ladder=(1, 3, 5, 10),
                options=SolveOptions(checkpoint=path2, parallel=2),
            )
        recorded = [
            json.loads(l)["k_star"]
            for l in path2.read_text().splitlines()[1:]
        ]
        # Every *completed* rung persisted — including 10, which finished
        # after the crash of rung 5; only the crashed rung is missing.
        assert recorded == [1, 3, 10]
        log = []
        resumed = kstar_search(
            make_factory(log), ladder=(1, 3, 5, 10),
            options=SolveOptions(checkpoint=path2, resume=True),
        )
        assert log == [5]  # only the crashed rung is re-solved
        assert resumed.best.k_star == 5

    def test_rungs_cut_at_the_deadline_are_not_results(self, tmp_path):
        """Rungs whose solves the deadline stops empty-handed stop the
        ladder with 'deadline exhausted', stay off the checkpoint, and
        are solved again on resume."""
        import json
        import threading
        import time

        lock = threading.Lock()
        started = []

        def factory(k):
            explorer = FakeExplorer(k)

            def cut_solve(objective):
                with lock:
                    started.append(k)
                time.sleep(0.6)  # runs past the 0.3 s deadline
                result = FakeResult(float("inf"))
                result.status = SolveStatus.TIMEOUT
                result.feasible = False
                return result

            explorer.solve = cut_solve
            return explorer

        path = tmp_path / "ladder.jsonl"
        search = kstar_search(
            factory, ladder=(1, 3),
            options=SolveOptions(
                parallel=2, deadline_s=0.3, checkpoint=path
            ),
        )
        assert sorted(started) == [1, 3]
        assert search.trials == []
        assert search.stop_reason == "deadline exhausted"
        assert not path.exists()  # no rung was recorded
        log = []
        resumed = kstar_search(
            make_factory(log), ladder=(1, 3),
            options=SolveOptions(checkpoint=path, resume=True),
        )
        assert log == [1, 3]
        assert resumed.restored_ks == ()
        assert json.loads(path.read_text().splitlines()[-1])["k_star"] == 3
