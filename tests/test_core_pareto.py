"""Tests for the epsilon-constraint Pareto sweep."""

import pytest

from repro.core import DataCollectionExplorer, SolveOptions, explore_pareto
from repro.core.pareto import ParetoFront, ParetoPoint
from repro.core.results import SynthesisResult
from repro.validation import validate


@pytest.fixture(scope="module")
def explorer(grid_instance, library):
    from repro.network import (
        LifetimeRequirement,
        LinkQualityRequirement,
        RequirementSet,
    )

    reqs = RequirementSet()
    for s in grid_instance.sensor_ids:
        reqs.require_route(s, grid_instance.sink_id, replicas=2,
                           disjoint=True)
    reqs.link_quality = LinkQualityRequirement(min_snr_db=20.0)
    reqs.lifetime = LifetimeRequirement(years=5.0)
    return DataCollectionExplorer(grid_instance.template, library, reqs)


@pytest.fixture(scope="module")
def front(explorer):
    return explore_pareto(explorer, "cost", "energy", points=5)


class TestExplorePareto:
    def test_front_nonempty_and_sorted(self, front):
        assert len(front.points) >= 2
        primaries = [p.primary for p in front.points]
        assert primaries == sorted(primaries)

    def test_tradeoff_direction(self, front):
        """Along the front, paying more dollars buys lower energy."""
        cheapest = front.points[0]
        priciest = front.points[-1]
        assert cheapest.primary <= priciest.primary
        assert cheapest.secondary >= priciest.secondary - 1e-6

    def test_budgets_respected(self, front):
        for point in front.points:
            assert point.secondary <= point.secondary_budget * (1 + 1e-6)

    def test_every_point_is_a_valid_design(self, front, explorer):
        for point in front.points:
            assert isinstance(point.result, SynthesisResult)
            report = validate(
                point.result.architecture, explorer.requirements
            )
            assert report.ok, report.violations

    def test_extremes_bracket_the_singles(self, front, explorer):
        cost_only = explorer.solve("cost")
        energy_only = explorer.solve("energy")
        assert front.points[0].primary == pytest.approx(
            cost_only.objective_terms["cost"], rel=1e-6
        )
        # The tight-budget end reaches (near) the energy optimum.
        assert front.points[-1].secondary <= (
            energy_only.objective_terms["energy"] * 1.02 + 1e-6
        )

    def test_budgets_span_the_true_charge_range(self, front, explorer):
        """The cost extreme reports its design's charge, not the slack
        of unpriced charge variables, so every budget buys a design of
        its own, reported at its validated charge (the PWL over-estimates
        ETX by at most 4e-6 at the 20 dB floor)."""
        assert len({round(p.primary, 6) for p in front.points}) == 5
        for point in front.points:
            report = validate(
                point.result.architecture, explorer.requirements
            )
            assert point.secondary == pytest.approx(
                report.total_charge_ma_ms, rel=1e-5
            )

    def test_knee_is_on_the_front(self, front):
        knee = front.knee()
        assert knee in front.points

    def test_parameter_validation(self, explorer):
        with pytest.raises(ValueError):
            explore_pareto(explorer, points=1)
        with pytest.raises(ValueError):
            explore_pareto(explorer, "cost", "cost")

    def test_parallel_sweep_matches_sequential(self, front, explorer):
        parallel = explore_pareto(
            explorer, "cost", "energy", points=5, options=SolveOptions(parallel=2)
        )
        assert [
            (p.primary, pytest.approx(p.secondary)) for p in parallel.points
        ] == [(p.primary, p.secondary) for p in front.points]

    def test_points_carry_run_stats(self, front):
        for point in front.points:
            assert point.result.run_stats is not None
            assert point.result.encode_seconds >= 0


class TestKnee:
    def test_small_fronts(self):
        empty = ParetoFront("a", "b", [])
        assert empty.knee() is None
        single = ParetoFront("a", "b", [
            ParetoPoint(1.0, 1.0, 1.0, None)
        ])
        assert single.knee() is single.points[0]

    def test_picks_the_corner(self):
        # An L-shaped front: the corner point is the knee.
        points = [
            ParetoPoint(0.0, 10.0, 0.0, None),
            ParetoPoint(1.0, 1.0, 0.0, None),
            ParetoPoint(10.0, 0.0, 0.0, None),
        ]
        front = ParetoFront("a", "b", points)
        knee = front.knee()
        assert knee.primary == 1.0 and knee.secondary == 1.0


class ScriptedResult:
    def __init__(self, energy):
        self.feasible = True
        self.objective_terms = {"cost": 0.0, "energy": energy}


class ScriptedExplorer:
    """Quacks like an explorer as far as explore_pareto's plumbing needs
    (extreme solves + a solver slot); sweep points are monkeypatched."""

    def __init__(self, fingerprint=None):
        self.solver = None
        self._fingerprint = fingerprint
        if fingerprint is not None:
            self.fingerprint = lambda: fingerprint

    def solve(self, objective):
        return ScriptedResult({"energy": 2.0, "cost": 8.0}[objective])


def scripted_point(budget):
    from repro.core.pareto import ParetoPoint

    return ParetoPoint(
        primary=10.0 - budget, secondary=budget, secondary_budget=budget,
        result=ScriptedResult(budget),
    )


class TestCheckpointStreaming:
    def test_sequential_kill_keeps_completed_points(self, tmp_path, monkeypatch):
        """A sweep killed mid-run persists every finished point, not just
        the extremes; resume re-solves only the missing ones."""
        import json

        import repro.core.pareto as pareto_mod

        path = tmp_path / "front.jsonl"
        calls = []

        def dying_solve(explorer, primary, secondary, budget):
            if len(calls) == 2:
                raise KeyboardInterrupt  # simulated kill on point 3
            calls.append(budget)
            return scripted_point(budget)

        monkeypatch.setattr(pareto_mod, "_solve_budget", dying_solve)
        with pytest.raises(KeyboardInterrupt):
            explore_pareto(
                ScriptedExplorer(), "cost", "energy", points=4,
                options=SolveOptions(checkpoint=path),
            )
        records = [json.loads(l) for l in path.read_text().splitlines()[1:]]
        stages = [r["stage"] for r in records]
        assert stages == ["extreme", "extreme", "point", "point"]
        assert [r["index"] for r in records if r["stage"] == "point"] == [0, 1]

        resumed_calls = []

        def resumed_solve(explorer, primary, secondary, budget):
            resumed_calls.append(budget)
            return scripted_point(budget)

        monkeypatch.setattr(pareto_mod, "_solve_budget", resumed_solve)
        front = explore_pareto(
            ScriptedExplorer(), "cost", "energy", points=4,
            options=SolveOptions(checkpoint=path, resume=True),
        )
        assert len(resumed_calls) == 2  # only the two missing points
        assert len(front.points) == 4

    def test_parallel_kill_keeps_completed_points(self, tmp_path, monkeypatch):
        import json

        import repro.core.pareto as pareto_mod
        from repro.runtime import BatchRunner

        # One inline worker solves the points in order, without retry.
        monkeypatch.setattr(
            pareto_mod, "BatchRunner",
            lambda workers, budget: BatchRunner(workers=1, budget=budget),
        )
        monkeypatch.setattr("repro.runtime.batch.RETRIES", 0)
        path = tmp_path / "front.jsonl"
        calls = []

        def dying_solve(explorer, primary, secondary, budget):
            if len(calls) == 2:
                raise RuntimeError("worker died")
            calls.append(budget)
            return scripted_point(budget)

        monkeypatch.setattr(pareto_mod, "_solve_budget", dying_solve)
        with pytest.raises(RuntimeError):
            explore_pareto(
                ScriptedExplorer(), "cost", "energy", points=4,
                options=SolveOptions(checkpoint=path, parallel=2),
            )
        points = [
            json.loads(l) for l in path.read_text().splitlines()[1:]
            if json.loads(l).get("stage") == "point"
        ]
        assert [p["index"] for p in points] == [0, 1]


class TestDeadlineGraceful:
    def test_sequential_deadline_omits_tail_without_checkpointing(
        self, tmp_path, monkeypatch
    ):
        """Points the deadline cuts off are skipped — not raised, and not
        recorded as infeasible (a resume must re-solve them)."""
        import json

        import repro.core.pareto as pareto_mod
        from repro.resilience import DeadlineBudget

        clock = [0.0]
        budget = DeadlineBudget(1.0, clock=lambda: clock[0])
        path = tmp_path / "front.jsonl"

        def timed_solve(explorer, primary, secondary, b):
            clock[0] += 0.6  # two points fit in the budget
            return scripted_point(b)

        monkeypatch.setattr(pareto_mod, "_solve_budget", timed_solve)
        front = explore_pareto(
            ScriptedExplorer(), "cost", "energy", points=5,
            budget=budget, options=SolveOptions(checkpoint=path),
        )
        assert len(front.points) == 2
        points = [
            json.loads(l) for l in path.read_text().splitlines()[1:]
            if json.loads(l).get("stage") == "point"
        ]
        assert len(points) == 2
        assert all(p["feasible"] for p in points)

    def test_parallel_deadline_cut_points_resolve_on_resume(
        self, tmp_path, monkeypatch
    ):
        """Parallel points whose solves run into a real deadline and land
        without a design are not checkpointed as infeasible: a resume
        solves them again."""
        import json
        import threading
        import time

        import repro.core.pareto as pareto_mod

        lock = threading.Lock()
        started = []

        def cut_solve(explorer, primary, secondary, b):
            with lock:
                started.append(b)
            time.sleep(0.6)  # runs past the 0.3 s deadline
            return None

        monkeypatch.setattr(pareto_mod, "_solve_budget", cut_solve)
        path = tmp_path / "front.jsonl"
        front = explore_pareto(
            ScriptedExplorer(), "cost", "energy", points=2,
            options=SolveOptions(parallel=2, deadline_s=0.3, checkpoint=path),
        )
        assert sorted(started) == [2.0, 8.0]
        assert front.points == []
        stages = [
            json.loads(l)["stage"] for l in path.read_text().splitlines()[1:]
        ]
        assert stages == ["extreme", "extreme"]

        resumed_calls = []

        def resumed_solve(explorer, primary, secondary, b):
            resumed_calls.append(b)
            return scripted_point(b)

        monkeypatch.setattr(pareto_mod, "_solve_budget", resumed_solve)
        front = explore_pareto(
            ScriptedExplorer(), "cost", "energy", points=2,
            options=SolveOptions(checkpoint=path, resume=True),
        )
        assert sorted(resumed_calls) == [2.0, 8.0]
        assert len(front.points) == 2

    def test_parallel_expired_budget_returns_empty_front(self, monkeypatch):
        """All trials failing fast on a spent budget must degrade to an
        empty front, not raise TimeoutError through unwrap()."""
        import repro.core.pareto as pareto_mod
        from repro.resilience import DeadlineBudget

        clock = [0.0]
        budget = DeadlineBudget(1.0, clock=lambda: clock[0])
        clock[0] = 5.0  # spent before the sweep starts

        monkeypatch.setattr(
            pareto_mod, "_solve_budget",
            lambda *a: pytest.fail("no point should be solved"),
        )
        front = explore_pareto(
            ScriptedExplorer(), "cost", "energy", points=4,
            budget=budget, options=SolveOptions(parallel=2),
        )
        assert front.points == []


class TestProblemPinning:
    def test_resume_with_other_problem_refused(self, tmp_path, monkeypatch):
        from repro.resilience import CheckpointError

        import repro.core.pareto as pareto_mod

        monkeypatch.setattr(
            pareto_mod, "_solve_budget",
            lambda e, p, s, b: scripted_point(b),
        )
        path = tmp_path / "front.jsonl"
        explore_pareto(
            ScriptedExplorer(fingerprint="aaaa"), "cost", "energy",
            points=3, options=SolveOptions(checkpoint=path),
        )
        with pytest.raises(CheckpointError, match="different problem"):
            explore_pareto(
                ScriptedExplorer(fingerprint="bbbb"), "cost", "energy",
                points=3,
                options=SolveOptions(checkpoint=path, resume=True),
            )


class TestParallelDeadline:
    def test_fan_out_waits_for_its_points_and_runs_each_once(
        self, monkeypatch
    ):
        """Under a real deadline the sweep returns only after every
        point it started has finished; no budget starts twice, and the
        points a worker picks up after the deadline never start."""
        import threading
        import time

        import repro.core.pareto as pareto_mod

        lock = threading.Lock()
        started, finished = [], []

        def slow_solve(explorer, primary, secondary, budget):
            with lock:
                started.append(budget)
            time.sleep(0.6)
            with lock:
                finished.append(budget)
            return scripted_point(budget)

        monkeypatch.setattr(pareto_mod, "_solve_budget", slow_solve)
        front = explore_pareto(
            ScriptedExplorer(), "cost", "energy", points=4,
            options=SolveOptions(parallel=2, deadline_s=0.3),
        )
        with lock:
            at_return = (list(started), list(finished))
        assert sorted(at_return[0]) == sorted(at_return[1])
        # The extremes span [2, 8]: budgets 2, 4, 6, 8.  Two workers pick
        # up 2 and 4 at once; 6 and 8 come up after the deadline.
        assert sorted(at_return[0]) == [2.0, 4.0]
        assert sorted(p.secondary_budget for p in front.points) == [2.0, 4.0]
        time.sleep(0.7)  # a trial left running would land by now
        assert sorted(started) == [2.0, 4.0]


class TestPointPipeline:
    def test_points_book_phases_and_carry_diagnostics_like_solve(
        self, explorer, monkeypatch
    ):
        """A sweep point runs the explorer's own pipeline: the model
        analyzer's time lands in the point's ``analysis`` span, and its
        findings ride the point's result as they ride
        ``explorer.solve``'s."""
        import time

        import repro.core.explorer as explorer_mod
        from repro.analysis.diagnostics import (
            AnalysisReport,
            Diagnostic,
            Severity,
        )
        from repro.telemetry.sinks import CollectorSink
        from repro.telemetry.trace import configure

        def slow_analysis(model):
            time.sleep(0.2)
            return AnalysisReport([Diagnostic(
                rule_id="test.slow-analysis", severity=Severity.WARNING,
                message="the analyzer took its time",
            )])

        monkeypatch.setattr(explorer_mod, "analyze_model", slow_analysis)
        sink = CollectorSink()
        configure([sink])
        front = explore_pareto(explorer, "cost", "energy", points=2)
        assert front.points
        spans = [r for r in sink.records if r["type"] == "span"]
        parent = {s["span"]: s["parent"] for s in spans}

        def under(span_id, ancestor):
            while span_id is not None:
                if span_id == ancestor:
                    return True
                span_id = parent[span_id]
            return False

        point_spans = [s for s in spans if s["name"] == "pareto.point"]
        assert point_spans
        for point_span in point_spans:
            (model_analysis,) = [
                s for s in spans
                if s["name"] == "analysis"
                and s["attrs"]["level"] == "model"
                and under(s["span"], point_span["span"])
            ]
            assert model_analysis["duration_s"] >= 0.2
        for point in front.points:
            assert "test.slow-analysis" in {
                d.rule_id for d in point.result.diagnostics
            }


class TestCallersWatchdog:
    def test_sweep_deadline_does_not_outlive_the_sweep(self, library):
        """A caller's ResilientSolver comes back from a sweep without the
        sweep's budget, so a later solve is not cut off by it."""
        from repro.core.facade import build_explorer
        from repro.milp.highs import HighsSolver
        from repro.milp.solution import SolveStatus
        from repro.network import (
            LifetimeRequirement,
            LinkQualityRequirement,
            RequirementSet,
            data_collection_template,
        )
        from repro.resilience import DeadlineBudget, ResilientSolver

        inst = data_collection_template(n_sensors=4, n_relay_candidates=10)
        reqs = RequirementSet()
        for s in inst.sensor_ids:
            reqs.require_route(s, inst.sink_id)
        reqs.link_quality = LinkQualityRequirement(min_snr_db=20.0)
        reqs.lifetime = LifetimeRequirement(years=5.0)
        solver = ResilientSolver(HighsSolver())
        explorer = build_explorer(
            inst.template, library, reqs, solver=solver, k_star=3
        )
        clock = [0.0]
        front = explore_pareto(
            explorer, points=3,
            budget=DeadlineBudget(60.0, clock=lambda: clock[0]),
        )
        assert front.points
        clock[0] = 120.0  # the sweep's deadline has passed
        assert explorer.solver is solver
        assert solver.budget is None
        assert explorer.solve("cost").status is SolveStatus.OPTIMAL
