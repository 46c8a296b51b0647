"""Failure-aware synthesis end to end: the worst-pattern robust re-solve.

The acceptance scenario: on a grid template whose floor plan carries a
wall, plain ``N_rep = 2`` synthesis routes both disjoint replicas
straight through the wall — a correlated wall outage kills the pair even
though every single-link failure is survivable.  The robust loop must
detect that, add the pattern's survivability rows and converge to a
design that reroutes around the wall, within the round cap.
"""

import dataclasses

import pytest

import repro
from repro.analysis.diagnostics import Severity
from repro.core.kstar import kstar_search
from repro.core.options import SolveOptions
from repro.failures import robust
from repro.geometry.floorplan import FloorPlan, Wall
from repro.geometry.primitives import Point, Rectangle, Segment
from repro.milp.solution import Solution, SolveStatus
from repro.network import (
    LinkQualityRequirement,
    RequirementSet,
    RouteRequirement,
)


@pytest.fixture(scope="module")
def walled():
    """The 4x3 grid with a brick wall between columns x=16 and x=24."""
    instance = repro.small_grid_template(nx=4, ny=3, spacing=8.0)
    plan = FloorPlan(
        bounds=Rectangle(0.0, 0.0, 40.0, 32.0),
        walls=[Wall(Segment(Point(20.0, 4.0), Point(20.0, 20.0)),
                    "brick", 10.0)],
        name="walled-grid",
    )
    reqs = RequirementSet(
        routes=[RouteRequirement(source=0, dest=7, replicas=2,
                                 disjoint=True)],
        link_quality=LinkQualityRequirement(min_snr_db=15.0),
    )
    return instance, plan, reqs


@pytest.fixture(scope="module")
def plain_result(walled):
    instance, _, reqs = walled
    return repro.explore(
        instance.template, repro.default_catalog(), reqs,
        objective="cost",
    )


@pytest.fixture(scope="module")
def robust_result(walled):
    instance, plan, reqs = walled
    return repro.explore(
        instance.template, repro.default_catalog(), reqs,
        objective="cost", plan=plan, k_star=60,
        options=SolveOptions(failures="walls,rounds:6"),
    )


class TestAcceptanceScenario:
    def test_plain_synthesis_fails_the_wall_outage(
        self, walled, plain_result
    ):
        instance, plan, reqs = walled
        assert plain_result.feasible
        patterns = repro.generate_patterns("walls", instance.template,
                                           plan)
        assert len(patterns) == 1
        report = repro.verify_patterns(
            plain_result.architecture, reqs, patterns
        )
        assert not report.survived_all
        assert report.score == 0.0

    def test_robust_loop_converges_to_full_coverage(
        self, walled, robust_result
    ):
        instance, plan, reqs = walled
        assert robust_result.feasible
        assert robust_result.survivability_score == 1.0
        diag = next(d for d in robust_result.diagnostics
                    if d.rule_id == "failures.survivability")
        payload = diag.data["report"]
        assert payload["score"] == 1.0
        assert 1 <= payload["rounds"] <= 6
        # Independent re-verification of the decoded design.
        patterns = repro.generate_patterns("walls", instance.template,
                                           plan)
        report = repro.verify_patterns(
            robust_result.architecture, reqs, patterns
        )
        assert report.survived_all

    def test_robust_design_still_validates(self, walled, robust_result):
        _, _, reqs = walled
        assert repro.validate(robust_result.architecture, reqs).ok

    def test_survivability_costs_no_less(
        self, plain_result, robust_result
    ):
        # The tightened model optimizes the same objective over a
        # subset of the original feasible set: never cheaper, exactly
        # priced.
        assert (robust_result.objective_terms["cost"]
                >= plain_result.objective_terms["cost"] - 1e-9)

    def test_score_rides_the_stats_payload(self, robust_result):
        stats = robust_result.stats_dict()
        assert stats["survivability_score"] == 1.0

    def test_uncoverable_at_small_pool_is_reported_not_infeasible(
        self, walled
    ):
        instance, plan, reqs = walled
        # k_star=10: no candidate in the Yen pool avoids the wall, so
        # the pattern is structurally uncoverable — the loop must stop
        # at a fixpoint with a WARNING, not go infeasible.
        result = repro.explore(
            instance.template, repro.default_catalog(), reqs,
            objective="cost", plan=plan, k_star=10,
            options=SolveOptions(failures="walls,rounds:3"),
        )
        assert result.feasible
        assert result.survivability_score == 0.0
        warning = next(d for d in result.diagnostics
                       if d.rule_id == "failures.uncoverable")
        assert "k_star" in (warning.hint or "")
        diag = next(d for d in result.diagnostics
                    if d.rule_id == "failures.survivability")
        assert diag.data["report"]["uncoverable"]


class TestRoundWithoutDesign:
    """A round whose new survivability rows make the MILP infeasible
    returns the last round that had a design, not no design."""

    @pytest.mark.parametrize("name, spec", [
        ("multifloor:floors=4,rooms_x=3:0", "walls,rounds:6"),
        ("multifloor:floors=4,rooms_x=3:1", "k-node:1,rounds:6"),
    ])
    def test_last_design_is_returned(self, name, spec):
        scenario = repro.default_registry().generate(name)
        result = scenario.explore(options=SolveOptions(failures=spec))
        assert result.feasible
        assert result.architecture is not None
        assert repro.validate(result.architecture, scenario.requirements,
                              scenario.channel).ok
        patterns = repro.generate_patterns(spec, scenario.template,
                                           scenario.plan)
        report = repro.verify_patterns(
            result.architecture, scenario.requirements, patterns
        )
        assert result.survivability_score == report.score
        warning = next(d for d in result.diagnostics
                       if d.rule_id == "failures.round-without-design")
        assert warning.severity is Severity.WARNING
        assert warning.data["patterns"]
        for pid in warning.data["patterns"]:
            assert pid in warning.message
        # One round count: the returned design's, not the failed round's.
        rounds = warning.data["round"] - 1
        info = next(d for d in result.diagnostics
                    if d.rule_id == "failures.survivability")
        assert info.data["report"]["rounds"] == rounds
        assert f"after {rounds} round(s)" in info.message
        # The model stats are the model that produced the design: round
        # 1's, which carries no survivability row yet.
        assert rounds == 1
        assert result.model_stats == scenario.explore().model_stats

    @pytest.mark.parametrize("status", [SolveStatus.TIMEOUT,
                                        SolveStatus.ERROR])
    def test_solver_giving_up_keeps_its_status(self, status):
        # Round 2 of this problem is infeasible; a solver that gives up
        # on it instead is no proof of that, so no earlier design is
        # returned.
        scenario = repro.default_registry().generate(
            "multifloor:floors=4,rooms_x=3:1"
        )
        explorer = _scenario_explorer(scenario, "k-node:1,rounds:6")
        explorer.solver = _GivesUpOnRound(explorer.solver, 2, status)
        result = explorer.solve("cost")
        assert explorer.solver.calls == 2
        assert result.status is status
        assert result.architecture is None
        assert not any(d.rule_id == "failures.round-without-design"
                       for d in result.diagnostics)


class _GivesUpOnRound:
    """Delegates to ``inner`` except on solve number ``round_no``, which
    returns ``status`` with no assignment."""

    def __init__(self, inner, round_no, status):
        self.inner, self.round_no, self.status = inner, round_no, status
        self.calls = 0

    def solve(self, model):
        self.calls += 1
        if self.calls == self.round_no:
            return Solution(status=self.status)
        return self.inner.solve(model)


def _scenario_explorer(scenario, failures, *, k_star=None, requirements=None):
    return repro.build_explorer(
        scenario.template, scenario.library,
        requirements or scenario.requirements, channel=scenario.channel,
        k_star=k_star or scenario.k_star, failures=failures,
        plan=scenario.plan,
    )


class TestCheckpointedRobustRun:
    def test_rounds_accumulate_stages_and_resume_replays(
        self, walled, tmp_path
    ):
        instance, plan, reqs = walled
        ckpt = tmp_path / "robust.ckpt"
        options = SolveOptions(failures="walls,rounds:6",
                               checkpoint=str(ckpt))
        result = repro.explore(
            instance.template, repro.default_catalog(), reqs,
            objective="cost", plan=plan, k_star=60, options=options,
        )
        assert result.survivability_score == 1.0
        import json
        lines = [json.loads(line)
                 for line in ckpt.read_text().splitlines()
                 if line.strip()]
        records = lines[1:]  # after the identity header
        stages = {record["stage"] for record in records}
        assert stages == set(range(1, len(stages) + 1))
        assert len(stages) >= 2  # the loop actually iterated
        # A resumed run replays every round's verdicts (same problem,
        # same architecture trajectory) instead of re-verifying.
        resumed = repro.explore(
            instance.template, repro.default_catalog(), reqs,
            objective="cost", plan=plan, k_star=60,
            options=SolveOptions(failures="walls,rounds:6",
                                 checkpoint=str(ckpt), resume=True),
        )
        assert resumed.survivability_score == 1.0
        diag = next(d for d in resumed.diagnostics
                    if d.rule_id == "failures.survivability")
        assert diag.data["report"]["restored"] >= 1


    def test_injected_drop_surfaces_and_resume_replays(
        self, walled, tmp_path
    ):
        """A kill mid-sweep reaches the caller (the CLI's exit-3 path)
        instead of being retried away, and the resumed run replays the
        verdicts on disk into the uninterrupted run's answer."""
        from repro.resilience.faults import FaultError, injected_faults

        instance, plan, reqs = walled
        ckpt = tmp_path / "drop.ckpt"

        def run(**options):
            return repro.explore(
                instance.template, repro.default_catalog(), reqs,
                objective="cost", plan=plan,
                options=SolveOptions(failures="k-link:1", **options),
            )

        uninterrupted = run()
        with injected_faults({"failures.drop": 1}):
            with pytest.raises(FaultError):
                run(checkpoint=str(ckpt))
        resumed = run(checkpoint=str(ckpt), resume=True)
        diag = next(d for d in resumed.diagnostics
                    if d.rule_id == "failures.survivability")
        assert diag.data["report"]["restored"] >= 1
        assert resumed.objective_value == pytest.approx(
            uninterrupted.objective_value
        )
        assert resumed.survivability_score == (
            uninterrupted.survivability_score
        )


class TestWiring:
    def test_options_validate_the_spec_at_construction(self):
        with pytest.raises(ValueError):
            SolveOptions(failures="bogus-term:1")

    def test_options_round_trip(self):
        options = SolveOptions(failures="k-link:1,rounds:2")
        clone = SolveOptions.from_dict(options.to_dict())
        assert clone.failures == "k-link:1,rounds:2"

    def test_explore_checkpoint_needs_failures(self, walled, tmp_path):
        instance, _, reqs = walled
        with pytest.raises(ValueError, match="failure"):
            repro.explore(
                instance.template, repro.default_catalog(), reqs,
                options=SolveOptions(
                    checkpoint=str(tmp_path / "x.ckpt")
                ),
            )

    def test_explorer_solve_delegates(self, walled):
        instance, _, reqs = walled
        explorer = repro.build_explorer(
            instance.template, repro.default_catalog(), reqs,
            failures="k-link:1",
        )
        result = explorer.solve("cost")
        # Disjoint replicas survive every single-link pattern: one
        # round, perfect score.
        assert result.survivability_score == 1.0

    def test_robust_solve_needs_routes(self, walled):
        instance, _, _ = walled
        explorer = repro.build_explorer(
            instance.template, repro.default_catalog(),
            RequirementSet(), failures="k-link:1",
        )
        with pytest.raises(ValueError, match="route requirements"):
            explorer.solve("cost")

    def test_job_api_carries_the_survivability_score(self):
        from repro.core.api import JobRequest, JobResult
        request = JobRequest(
            kind="synthesize",
            problem={"sensors": 3, "relays": 9, "k_star": 10},
            options=SolveOptions(failures="k-link:1"),
        )
        assert request.resumable
        clone = JobRequest.from_dict(request.to_dict())
        assert clone.options.failures == "k-link:1"
        result = JobResult.success("synthesize", request.run())
        assert result.result["survivability_score"] == 1.0

    def test_anchor_problems_reject_failures(self):
        instance = repro.localization_template()
        from repro.geometry.primitives import Point
        from repro.network import ReachabilityRequirement
        with pytest.raises(ValueError, match="routes to protect"):
            repro.build_explorer(
                instance.template, repro.localization_catalog(),
                ReachabilityRequirement(
                    test_points=(Point(1.0, 1.0),), min_anchors=3,
                ),
                failures="k-link:1",
            )


class TestParetoRobust:
    def test_every_front_point_is_failure_aware(self, walled):
        instance, plan, _ = walled
        from repro.network import LifetimeRequirement
        reqs = RequirementSet(
            routes=[RouteRequirement(source=0, dest=7, replicas=2,
                                     disjoint=True)],
            link_quality=LinkQualityRequirement(min_snr_db=15.0),
            # The lifetime requirement puts the energy model in the
            # encoding, so the cost/energy front is well defined.
            lifetime=LifetimeRequirement(years=1.0),
        )
        explorer = repro.build_explorer(
            instance.template, repro.default_catalog(), reqs,
            k_star=60, failures="walls,rounds:4", plan=plan,
        )
        front = repro.explore_pareto(
            explorer, "cost", "energy", points=2
        )
        assert front.points
        for point in front.points:
            assert point.result.survivability_score == 1.0

    def test_budgets_ending_without_a_design_are_skipped(
        self, monkeypatch
    ):
        # At K* = 6 every robust solve of this problem ends on an
        # earlier round's design; that design does not survive the
        # patterns, so no budget may put it on the front.
        scenario = repro.default_registry().generate(
            "multifloor:floors=4,rooms_x=3:1"
        )
        from repro.network import LifetimeRequirement
        reqs = dataclasses.replace(
            scenario.requirements,
            lifetime=LifetimeRequirement(years=1.0),
        )
        results = []
        solve = robust.robust_solve

        def recorded(*args, **kwargs):
            results.append(solve(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(robust, "robust_solve", recorded)
        explorer = _scenario_explorer(scenario, "k-node:1,rounds:6",
                                      requirements=reqs)
        front = repro.explore_pareto(explorer, "cost", "energy", points=2)
        budget_solves = results[2:]  # after the two extremes
        assert len(budget_solves) == 2
        assert all(robust.round_without_design(r) for r in budget_solves)
        assert front.points == []


class TestKStarRobust:
    def test_rung_ending_without_a_design_is_infeasible(self, tmp_path):
        scenario = repro.default_registry().generate(
            "multifloor:floors=4,rooms_x=3:1"
        )
        ckpt = tmp_path / "ladder.jsonl"

        def search(resume):
            return kstar_search(
                lambda k: _scenario_explorer(scenario, None, k_star=k),
                ladder=(6, 8),
                options=SolveOptions(failures="k-node:1,rounds:6",
                                     checkpoint=str(ckpt),
                                     resume=resume),
            )

        result = search(resume=False)
        low, high = result.trials
        # K* = 6 cannot cover the patterns together: the rung is scored
        # infeasible and the ladder climbs to K* = 8, whose design
        # survives every pattern.
        assert low.result.status is SolveStatus.INFEASIBLE
        assert low.result.architecture is None
        assert low.objective == float("inf")
        assert any(d.rule_id == "failures.round-without-design"
                   for d in low.result.diagnostics)
        assert result.best is high
        assert high.result.survivability_score == 1.0
        assert result.stop_reason == "ladder exhausted"
        # The checkpoint records the rung as infeasible, so a resume
        # selects the same K*.
        resumed = search(resume=True)
        assert resumed.restored_ks == (6, 8)
        assert resumed.trials[0].objective == float("inf")
        assert resumed.best.k_star == 8
