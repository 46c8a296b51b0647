"""The greedy primal warm start and both backends' hint contracts."""

import numpy as np
import pytest

from repro.accel import WarmStart, attach_warm_start, compute_warm_start
from repro.accel.warmstart import greedy_selection, selection_from_architecture
from repro.core.explorer import DataCollectionExplorer
from repro.encoding.approximate import ApproximatePathEncoder
from repro.encoding.base import SelectionBlock
from repro.library import default_catalog
from repro.milp import BranchAndBoundSolver, HighsSolver, Model, SolveStatus
from repro.network import (
    LinkQualityRequirement,
    RequirementSet,
    small_grid_template,
)
from repro.network.paths import CandidatePath
from repro.network.requirements import RouteRequirement
from repro.network.topology import Architecture, Route


@pytest.fixture(scope="module")
def problem():
    instance = small_grid_template(nx=4, ny=3, spacing=8.0)
    reqs = RequirementSet()
    for sensor in instance.sensor_ids:
        reqs.require_route(sensor, instance.sink_id, replicas=2,
                           disjoint=True)
    reqs.link_quality = LinkQualityRequirement(min_snr_db=20.0)
    return instance, reqs


@pytest.fixture(scope="module")
def built(problem):
    instance, reqs = problem
    explorer = DataCollectionExplorer(
        instance.template, default_catalog(), reqs,
        encoder=ApproximatePathEncoder(k_star=5),
    )
    return explorer.build("cost")


def block_of(req, *paths):
    pool = [CandidatePath(nodes=n, loss_db=loss) for n, loss in paths]
    return SelectionBlock(req=req, pool=pool, pick=[])


class TestGreedySelection:
    def test_cheapest_first(self):
        req = RouteRequirement(source=0, dest=9, replicas=1)
        block = block_of(
            req,
            ((0, 1, 2, 9), 10.0),
            ((0, 9), 50.0),        # fewest hops wins despite the loss
            ((0, 3, 9), 5.0),
        )
        assert greedy_selection(block) == [1]

    def test_disjoint_skips_conflicting_candidates(self):
        req = RouteRequirement(source=0, dest=9, replicas=2, disjoint=True)
        block = block_of(
            req,
            ((0, 9), 1.0),
            ((0, 1, 9), 2.0),
            ((0, 1, 2, 9), 3.0),   # shares (0,1) with the second path
        )
        chosen = greedy_selection(block)
        assert chosen is not None
        picked = [set(block.pool[k].edges) for k in chosen]
        assert not picked[0] & picked[1]

    def test_impossible_replicas_returns_none(self):
        req = RouteRequirement(source=0, dest=9, replicas=3)
        block = block_of(req, ((0, 9), 1.0), ((0, 1, 9), 2.0))
        assert greedy_selection(block) is None


class TestSelectionFromArchitecture:
    def _arch(self, template, routes):
        arch = Architecture(
            template=template, library=default_catalog(), sizing={}
        )
        arch.routes = routes
        return arch

    def test_replays_routes_by_node_tuple(self, problem):
        instance, _ = problem
        req = RouteRequirement(source=0, dest=9, replicas=1)
        block = block_of(req, ((0, 9), 1.0), ((0, 1, 9), 2.0))
        arch = self._arch(
            instance.template, [Route(0, 9, 0, (0, 1, 9))]
        )
        assert selection_from_architecture(block, arch) == [1]

    def test_route_not_in_pool_returns_none(self, problem):
        instance, _ = problem
        req = RouteRequirement(source=0, dest=9, replicas=1)
        block = block_of(req, ((0, 9), 1.0))
        arch = self._arch(
            instance.template, [Route(0, 9, 0, (0, 7, 9))]
        )
        assert selection_from_architecture(block, arch) is None


class TestComputeWarmStart:
    def test_produces_a_certified_feasible_start(self, built):
        warm = compute_warm_start(built)
        assert warm is not None
        assert warm.source == "greedy"
        # Certified: re-check against the standard form independently.
        from repro.milp.validate import check_assignment

        form = built.model.to_standard_form()
        check = check_assignment(form, warm.x)
        assert check.ok
        assert warm.objective == pytest.approx(
            check.objective + built.model.objective.constant
        )

    def test_start_is_no_better_than_the_optimum(self, built):
        warm = compute_warm_start(built)
        cold = HighsSolver().solve(built.model)
        assert cold.status is SolveStatus.OPTIMAL
        assert warm.objective >= cold.objective - 1e-6

    def test_attach_payload_shape(self, built):
        warm = compute_warm_start(built)
        attach_warm_start(built.model, warm)
        payload = built.model.hints["warm_start"]
        assert set(payload) == {"x", "objective", "source"}
        assert payload["objective"] == pytest.approx(warm.objective)
        built.model.hints.pop("warm_start")


class TestBranchAndBoundWarmStart:
    def test_accepted_and_objective_unchanged(self, built):
        warm = compute_warm_start(built)
        cold = BranchAndBoundSolver(time_limit=120).solve(built.model)
        attach_warm_start(built.model, warm)
        try:
            sol = BranchAndBoundSolver(time_limit=120).solve(built.model)
        finally:
            built.model.hints.pop("warm_start")
        info = sol.extra["warm_start"]
        assert info["status"] == "accepted"
        assert info["source"] == "greedy"
        assert info["objective"] == pytest.approx(warm.objective)
        assert sol.objective == pytest.approx(cold.objective)

    def test_infeasible_hint_is_rejected_not_adopted(self):
        m = Model()
        x = m.binary("x")
        y = m.binary("y")
        m.add(x + y >= 1, "cover")
        m.minimize(x + 2 * y)
        m.hints["warm_start"] = {
            "x": np.zeros(2), "objective": 0.0, "source": "bogus",
        }
        sol = BranchAndBoundSolver().solve(m)
        assert sol.extra["warm_start"]["status"] == "rejected"
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective == pytest.approx(1.0)

    def test_malformed_hint_is_rejected(self):
        m = Model()
        x = m.binary("x")
        m.add(x >= 0, "noop")
        m.minimize(x)
        m.hints["warm_start"] = {"x": np.zeros(7)}  # wrong length
        sol = BranchAndBoundSolver().solve(m)
        assert sol.extra["warm_start"]["status"] == "rejected"
        assert sol.status is SolveStatus.OPTIMAL


def _cover_model():
    m = Model()
    x = m.binary("x")
    y = m.binary("y")
    m.add(x + y >= 1, "cover")
    m.minimize(x + 2 * y)
    return m


class TestHighsWarmStart:
    def test_valid_start_surfaces_acceptance_state(self):
        # A validated start is consumed as an objective-cutoff row and
        # the verdict says so; it never silently vanishes.
        m = _cover_model()
        m.hints["warm_start"] = {
            "x": np.array([1.0, 0.0]), "objective": 1.0, "source": "greedy",
        }
        sol = HighsSolver().solve(m)
        info = sol.extra["warm_start"]
        assert info["status"] == "accepted"
        assert info["mechanism"] == "objective_cutoff"
        assert info["source"] == "greedy"
        assert sol.objective == pytest.approx(1.0)

    def test_cutoff_at_the_exact_optimum_is_not_cut_away(self):
        # The tightest possible start — the optimum itself — must not
        # make the cutoff row infeasible through floating-point slack.
        m = _cover_model()
        m.hints["warm_start"] = {
            "x": np.array([1.0, 0.0]), "objective": 1.0, "source": "exact",
        }
        sol = HighsSolver().solve(m)
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective == pytest.approx(1.0)

    def test_infeasible_start_is_rejected(self):
        m = _cover_model()
        m.hints["warm_start"] = {
            "x": np.zeros(2), "objective": 0.0, "source": "bogus",
        }
        sol = HighsSolver().solve(m)
        info = sol.extra["warm_start"]
        assert info["status"] == "rejected"
        assert info["max_violation"] > 0
        assert sol.objective == pytest.approx(1.0)

    def test_malformed_start_is_rejected(self):
        m = _cover_model()
        m.hints["warm_start"] = {"objective": 1.0}  # no assignment at all
        sol = HighsSolver().solve(m)
        assert sol.extra["warm_start"]["status"] == "rejected"


class TestStartAtTheLimit:
    @pytest.mark.parametrize(
        "backend", [HighsSolver, BranchAndBoundSolver], ids=["highs", "bnb"]
    )
    def test_limit_without_incumbent_returns_the_start(self, backend):
        # A limit that stops the search before an incumbent of its own
        # still leaves the start the backend validated: a usable design.
        m = _cover_model()
        m.hints["warm_start"] = {
            "x": np.array([0.0, 1.0]), "objective": 2.0, "source": "greedy",
        }
        sol = backend(time_limit=0.0).solve(m)
        assert sol.status is SolveStatus.FEASIBLE
        assert sol.objective == pytest.approx(2.0)
        np.testing.assert_array_equal(sol.x, [0.0, 1.0])
        assert sol.mip_gap > 0
        assert sol.extra["warm_start"]["status"] == "accepted"


class TestExplorerIntegration:
    def test_warm_start_preserves_the_objective(self, problem):
        instance, reqs = problem
        cold = DataCollectionExplorer(
            instance.template, default_catalog(), reqs,
            encoder=ApproximatePathEncoder(k_star=5),
        ).solve("cost")
        warm = DataCollectionExplorer(
            instance.template, default_catalog(), reqs,
            encoder=ApproximatePathEncoder(k_star=5), warm_start=True,
        ).solve("cost")
        assert warm.feasible
        assert warm.objective_value == pytest.approx(cold.objective_value)

    def test_warm_dataclass_is_frozen(self):
        warm = WarmStart(
            x=np.zeros(1), objective=0.0, source="greedy", seconds=0.0
        )
        with pytest.raises(AttributeError):
            warm.objective = 1.0
