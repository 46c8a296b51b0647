"""The warm start from a previous design and both backends' hint contracts."""

import dataclasses

import numpy as np
import pytest

import repro
from repro.accel import WarmStart, attach_warm_start, compute_warm_start
from repro.accel.warmstart import _structure_fixes, selection_from_architecture
from repro.core.explorer import DataCollectionExplorer
from repro.encoding.approximate import ApproximatePathEncoder
from repro.encoding.base import SelectionBlock
from repro.library import default_catalog
from repro.milp import BranchAndBoundSolver, HighsSolver, Model, SolveStatus
from repro.milp.validate import check_assignment
from repro.network import (
    LinkQualityRequirement,
    RequirementSet,
    small_grid_template,
)
from repro.network.paths import CandidatePath
from repro.network.requirements import RouteRequirement
from repro.network.topology import Architecture, Route
from repro.scenarios import apply_edits, default_registry, parse_edit

from .test_encoding_approximate import build_scenario


@pytest.fixture(scope="module")
def problem():
    instance = small_grid_template(nx=4, ny=3, spacing=8.0)
    reqs = RequirementSet()
    for sensor in instance.sensor_ids:
        reqs.require_route(sensor, instance.sink_id, replicas=2,
                           disjoint=True)
    reqs.link_quality = LinkQualityRequirement(min_snr_db=20.0)
    return instance, reqs


def explorer_for(problem, k_star):
    instance, reqs = problem
    return DataCollectionExplorer(
        instance.template, default_catalog(), reqs,
        encoder=ApproximatePathEncoder(k_star=k_star),
    )


@pytest.fixture(scope="module")
def built(problem):
    return explorer_for(problem, 5).build("cost")


def block_of(req, *paths):
    pool = [CandidatePath(nodes=n, loss_db=loss) for n, loss in paths]
    return SelectionBlock(req=req, pool=pool, pick=[])


@pytest.fixture(scope="module")
def previous(problem):
    """A design solved on smaller pools, as the kstar ladder chains it."""
    result = explorer_for(problem, 3).solve("cost")
    assert result.feasible
    return result.architecture


@pytest.fixture(scope="module")
def warm(built, previous):
    warm = compute_warm_start(built, previous)
    assert warm is not None
    return warm


def without_routes(architecture, source, dest):
    """A copy of ``architecture`` that lost its ``source -> dest`` routes."""
    return dataclasses.replace(architecture, routes=[
        r for r in architecture.routes if (r.source, r.dest) != (source, dest)
    ])


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
    def test_produces_a_certified_feasible_start(self, built, warm):
        # Certified: re-check against the standard form independently.
        form = built.model.to_standard_form()
        check = check_assignment(form, warm.x)
        assert check.ok
        assert warm.objective == pytest.approx(
            check.objective + built.model.objective.constant
        )

    def test_start_is_no_better_than_the_optimum(self, built, warm):
        cold = HighsSolver().solve(built.model)
        assert cold.status is SolveStatus.OPTIMAL
        assert warm.objective >= cold.objective - 1e-6

    def test_attach_payload_shape(self, built, warm):
        attach_warm_start(built.model, warm)
        payload = built.model.hints["warm_start"]
        assert set(payload) == {"x", "objective", "source"}
        assert payload["objective"] == pytest.approx(warm.objective)
        assert payload["source"] == "previous-incumbent"
        built.model.hints.pop("warm_start")

    def test_block_missing_from_its_pool_stays_free(self, built, previous):
        block = built.encoding.selection[0]
        partial = without_routes(
            previous, block.req.source, block.req.dest
        )
        fixes = _structure_fixes(built, partial)
        assert fixes is not None
        # The block the design cannot replay keeps its picks free ...
        assert not {var.index for var in block.pick} & set(fixes)
        # ... and so do the links only its candidates could use.
        replayed = {
            edge for route in partial.routes for edge in route.edges
        }
        free = {
            built.encoding.edge_active[edge].index
            for path in block.pool for edge in path.edges
            if edge not in replayed
        }
        assert free and not free & set(fixes)
        # The restricted solve routes that block itself: still a
        # certified start.
        warm = compute_warm_start(built, partial)
        assert warm is not None
        assert check_assignment(built.model.to_standard_form(), warm.x).ok

    def test_no_replayable_block_gives_no_start(self, built, previous):
        assert compute_warm_start(
            built, dataclasses.replace(previous, routes=[])
        ) is None


#: The two bases of the what-if benchmark workload.
WHATIF_BASES = {
    "multifloor": "multifloor:floors=6,k_star=24,relays_per_floor=16,"
                  "rooms_x=5,sensors_per_floor=6:0",
    "campus": "campus:buildings_x=3,buildings_y=3,k_star=24,"
              "sensors_per_building=4,street_relays=100:0",
}
EDIT_KINDS = (
    "add-wall", "remove-wall", "move-node", "swap-device", "set-replicas",
    "set-min-snr",
)


def edit_of_kind(base, kind):
    """One edit of ``kind`` that applies to either what-if base."""
    relay = next(
        n for n in base.template.nodes if n.role == "relay" and not n.fixed
    )
    return {
        "add-wall": "add-wall:10,10,10,18,concrete",
        "remove-wall": "remove-wall:3",
        "move-node": f"move-node:{relay.id},{relay.location.x + 1.5:.1f},"
                     f"{relay.location.y:.1f}",
        "swap-device": "swap-device:relay-std=relay-lp",
        "set-replicas": "set-replicas:0,2",
        "set-min-snr": "set-min-snr:21",
    }[kind]


@pytest.fixture(scope="module", params=sorted(WHATIF_BASES))
def whatif_base(request):
    """A what-if base and its solved design."""
    base = default_registry().generate(WHATIF_BASES[request.param])
    result = base.explore()
    assert result.feasible
    return base, result.architecture


class TestOneValuePerColumn:
    """A single-use link's binary is its path's pick: the fixes meet it
    twice and must give it one value."""

    def test_conflicting_values_raise(self, built, previous):
        fixes = _structure_fixes(built, previous)
        block = next(
            b for b in built.encoding.selection
            if selection_from_architecture(b, previous) is not None
        )
        chosen = set(selection_from_architecture(block, previous))
        unchosen = next(
            var for k, var in enumerate(block.pick) if k not in chosen
        )
        assert fixes[unchosen.index] == 0.0
        # Hand a link of a chosen path the unchosen pick's binary.
        used = block.pool[min(chosen)].edges[0]
        edge_active = dict(built.encoding.edge_active)
        edge_active[used] = unchosen
        wrong = dataclasses.replace(
            built,
            encoding=dataclasses.replace(
                built.encoding, edge_active=edge_active
            ),
        )
        with pytest.raises(RuntimeError, match="both"):
            _structure_fixes(wrong, previous)

    @pytest.mark.parametrize("kind", EDIT_KINDS)
    def test_whatif_edits_fix_each_column_once(self, whatif_base, kind):
        """Each edit kind on both what-if bases, fixed from the base's
        design: no column gets two values, and the fixes meet shared
        binaries (otherwise the case proves nothing)."""
        base, design = whatif_base
        edited, _ = apply_edits(base, (parse_edit(edit_of_kind(base, kind)),))
        built = build_scenario(edited)
        fixes = _structure_fixes(built, design)
        assert fixes is not None
        picks = {var.index for b in built.encoding.selection for var in b.pick}
        shared = {
            var.index for var in built.encoding.edge_active.values()
        } & picks
        assert shared & set(fixes)


class TestBranchAndBoundWarmStart:
    def test_accepted_and_objective_unchanged(self, built, warm):
        cold = BranchAndBoundSolver(time_limit=120).solve(built.model)
        attach_warm_start(built.model, warm)
        try:
            sol = BranchAndBoundSolver(time_limit=120).solve(built.model)
        finally:
            built.model.hints.pop("warm_start")
        info = sol.extra["warm_start"]
        assert info["status"] == "accepted"
        assert info["source"] == "previous-incumbent"
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
            "x": np.array([1.0, 0.0]), "objective": 1.0,
            "source": "previous-incumbent",
        }
        sol = HighsSolver().solve(m)
        info = sol.extra["warm_start"]
        assert info["status"] == "accepted"
        assert info["mechanism"] == "objective_cutoff"
        assert info["source"] == "previous-incumbent"
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
            "x": np.array([0.0, 1.0]), "objective": 2.0,
            "source": "previous-incumbent",
        }
        sol = backend(time_limit=0.0).solve(m)
        assert sol.status is SolveStatus.FEASIBLE
        assert sol.objective == pytest.approx(2.0)
        np.testing.assert_array_equal(sol.x, [0.0, 1.0])
        assert sol.mip_gap > 0
        assert sol.extra["warm_start"]["status"] == "accepted"


class TestExplorerIntegration:
    def test_warm_start_preserves_the_objective(self, problem, previous):
        cold = explorer_for(problem, 5).solve("cost")
        explorer = explorer_for(problem, 5)
        explorer.warm_start_architecture = previous
        warm = explorer.solve("cost")
        assert warm.solution.extra["warm_start"]["status"] == "accepted"
        assert warm.feasible
        assert warm.objective_value == pytest.approx(cold.objective_value)

    def test_explore_previous_warm_starts_by_default(self, problem, previous):
        instance, reqs = problem
        result = repro.explore(
            instance.template, default_catalog(), reqs, k_star=5,
            previous=previous,
        )
        assert result.solution.extra["warm_start"]["status"] == "accepted"

    def test_warm_dataclass_is_frozen(self):
        warm = WarmStart(x=np.zeros(1), objective=0.0)
        with pytest.raises(AttributeError):
            warm.objective = 1.0
