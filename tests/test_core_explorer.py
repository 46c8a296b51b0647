"""Tests for the explorers (end-to-end build/solve/decode)."""

import pytest

from repro.core import DataCollectionExplorer, AnchorPlacementExplorer
from repro.encoding import ApproximatePathEncoder, FullPathEncoder
from repro.milp import BranchAndBoundSolver, SolveStatus
from repro.network import RequirementSet
from repro.validation import validate


class TestDataCollectionExplorer:
    def test_solve_returns_validated_architecture(
        self, grid_instance, library, grid_requirements
    ):
        result = DataCollectionExplorer(
            grid_instance.template, library, grid_requirements
        ).solve("cost")
        assert result.status == SolveStatus.OPTIMAL
        assert result.feasible
        report = validate(result.architecture, grid_requirements)
        assert report.ok, report.violations

    def test_objective_terms_recorded(
        self, grid_instance, library, grid_requirements
    ):
        result = DataCollectionExplorer(
            grid_instance.template, library, grid_requirements
        ).solve("cost")
        assert result.objective_terms["cost"] == pytest.approx(
            result.architecture.dollar_cost
        )
        assert "energy" in result.objective_terms  # lifetime active

    def test_energy_model_skipped_when_unneeded(
        self, grid_instance, library
    ):
        reqs = RequirementSet()
        for s in grid_instance.sensor_ids:
            reqs.require_route(s, grid_instance.sink_id)
        built = DataCollectionExplorer(
            grid_instance.template, library, reqs
        ).build("cost")
        assert built.energy is None
        assert "energy" not in built.objective_exprs

    def test_energy_objective_requires_energy_model(
        self, grid_instance, library
    ):
        reqs = RequirementSet()
        for s in grid_instance.sensor_ids:
            reqs.require_route(s, grid_instance.sink_id)
        built = DataCollectionExplorer(
            grid_instance.template, library, reqs
        ).build("energy")
        assert built.energy is not None

    def test_custom_solver_used(self, grid_instance, library):
        reqs = RequirementSet()
        reqs.require_route(grid_instance.sensor_ids[0], grid_instance.sink_id)
        result = DataCollectionExplorer(
            grid_instance.template, library, reqs,
            encoder=ApproximatePathEncoder(k_star=3),
            solver=BranchAndBoundSolver(node_limit=50_000),
        ).solve("cost")
        assert result.feasible

    def test_full_and_approx_agree_on_small_problem(
        self, grid_instance, library
    ):
        reqs = RequirementSet()
        for s in grid_instance.sensor_ids[:2]:
            reqs.require_route(s, grid_instance.sink_id, replicas=2,
                               disjoint=True)
        full = DataCollectionExplorer(
            grid_instance.template, library, reqs, encoder=FullPathEncoder()
        ).solve("cost")
        approx = DataCollectionExplorer(
            grid_instance.template, library, reqs,
            encoder=ApproximatePathEncoder(k_star=30),
        ).solve("cost")
        assert full.objective_value == pytest.approx(approx.objective_value)

    def test_model_stats_reported(self, grid_instance, library,
                                  grid_requirements):
        result = DataCollectionExplorer(
            grid_instance.template, library, grid_requirements
        ).solve("cost")
        assert result.model_stats.num_vars > 0
        assert result.model_stats.num_constraints > 0
        assert result.encode_seconds >= 0
        assert result.solve_seconds > 0

    def test_infeasible_reported_without_architecture(
        self, grid_instance, library
    ):
        reqs = RequirementSet()
        reqs.require_route(grid_instance.sensor_ids[0], grid_instance.sink_id,
                           replicas=1, disjoint=False, exact_hops=1)
        from repro.network import LinkQualityRequirement

        reqs.link_quality = LinkQualityRequirement(min_snr_db=90.0)
        result = DataCollectionExplorer(
            grid_instance.template, library, reqs
        ).solve("cost")
        assert not result.feasible
        assert result.architecture is None
        assert "infeasible" in result.summary()

    def test_combined_objective_between_extremes(
        self, grid_instance, library, grid_requirements
    ):
        explorer = DataCollectionExplorer(
            grid_instance.template, library, grid_requirements
        )
        cost_r = explorer.solve("cost")
        energy_r = explorer.solve("energy")
        from repro.core import ObjectiveSpec

        combined = explorer.solve(
            ObjectiveSpec.combine(
                {"cost": 0.5, "energy": 0.5},
                scales={
                    "cost": max(cost_r.objective_terms["cost"], 1e-9),
                    "energy": max(energy_r.objective_terms["energy"], 1e-9),
                },
            )
        )
        assert combined.feasible
        assert (cost_r.objective_terms["cost"] - 1e-6
                <= combined.objective_terms["cost"])
        assert (energy_r.objective_terms["energy"] - 1e-3
                <= combined.objective_terms["energy"])


class TestLinkCosts:
    def test_per_link_costs_enter_objective_and_total(self):
        """"We associate every node and every edge in T with a cost
        value" — nonzero link costs must be paid and minimized."""
        from dataclasses import replace

        from repro.library import ZIGBEE_2_4GHZ, default_catalog
        from repro.network import RequirementSet, small_grid_template
        from repro.network.template import Template

        instance = small_grid_template(nx=4, ny=3)
        priced_link = replace(ZIGBEE_2_4GHZ, cost=5.0)
        template = Template(
            [n for n in instance.template.nodes], priced_link, name="priced"
        )
        for u, v, pl in instance.template.edges():
            template.set_link(u, v, pl)
        reqs = RequirementSet()
        for s in instance.sensor_ids:
            reqs.require_route(s, instance.sink_id)
        library = default_catalog()
        result = DataCollectionExplorer(template, library, reqs).solve("cost")
        assert result.feasible
        arch = result.architecture
        node_cost = sum(
            library.by_name(name).cost for name in arch.sizing.values()
        )
        assert arch.dollar_cost == pytest.approx(
            node_cost + 5.0 * len(arch.active_edges)
        )
        assert result.objective_terms["cost"] == pytest.approx(
            arch.dollar_cost
        )
        # With per-link pricing, shared links beat per-sensor direct ones
        # whenever geometry permits; at minimum no redundant links exist.
        assert len(arch.active_edges) <= sum(r.hops for r in arch.routes)


class TestAnchorPlacementExplorerEnd2End:
    def test_solve_and_summary(self, loc_instance, loc_requirement,
                               loc_library):
        result = AnchorPlacementExplorer(
            loc_instance.template, loc_library, loc_requirement,
            loc_instance.channel, k_star=10,
        ).solve("cost")
        assert result.feasible
        assert result.architecture.routes == []
        assert result.architecture.active_edges == set()
        assert "nodes" in result.summary()
