"""Tests for Algorithm 1 — the approximate path encoding."""

from unittest import mock

import numpy as np
import pytest
from scipy.optimize import Bounds, LinearConstraint, milp

from repro.core.facade import build_explorer
from repro.core.options import SolveOptions
from repro.encoding import (
    ApproximatePathEncoder,
    EncodingError,
    budget_div,
    generate_candidate_pool,
)
from repro.graph import are_link_disjoint, max_disjoint_subset
from repro.milp import HighsSolver, Model
from repro.network import RouteRequirement, small_grid_template
from repro.constraints.mapping import build_mapping
from repro.library import default_catalog
from repro.scenarios import default_registry


class TestBudgetDiv:
    def test_paper_example(self):
        k, n_rep = budget_div(10, 2)
        assert n_rep == 2 and k == 5 and k * n_rep >= 10

    def test_rounding_up(self):
        k, n_rep = budget_div(10, 3)
        assert k * n_rep >= 10

    def test_single_replica(self):
        assert budget_div(7, 1) == (7, 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            budget_div(0, 1)
        with pytest.raises(ValueError):
            budget_div(5, 0)


@pytest.fixture()
def grid():
    return small_grid_template(nx=4, ny=3)


class TestCandidatePool:
    def test_pool_paths_are_valid(self, grid):
        req = RouteRequirement(grid.sensor_ids[0], grid.sink_id,
                               replicas=2, disjoint=True)
        pool = generate_candidate_pool(grid.template.graph, req, k_star=10)
        for path in pool:
            assert path.source == req.source
            assert path.dest == req.dest
            for u, v in path.edges:
                assert grid.template.graph.has_edge(u, v)

    def test_pool_has_disjoint_replicas(self, grid):
        req = RouteRequirement(grid.sensor_ids[0], grid.sink_id,
                               replicas=3, disjoint=True)
        pool = generate_candidate_pool(grid.template.graph, req, k_star=9)
        nodes = [p.nodes for p in pool]
        assert len(max_disjoint_subset(nodes)) >= 3

    def test_pool_deduplicated(self, grid):
        req = RouteRequirement(grid.sensor_ids[0], grid.sink_id, replicas=2)
        pool = generate_candidate_pool(grid.template.graph, req, k_star=10)
        keys = [p.nodes for p in pool]
        assert len(keys) == len(set(keys))

    def test_masks_cleared_after_generation(self, grid):
        req = RouteRequirement(grid.sensor_ids[0], grid.sink_id,
                               replicas=2, disjoint=True)
        generate_candidate_pool(grid.template.graph, req, k_star=10)
        assert grid.template.graph.masked_edges == frozenset()

    def test_first_candidate_is_min_loss(self, grid):
        req = RouteRequirement(grid.sensor_ids[0], grid.sink_id, replicas=1,
                               disjoint=False)
        pool = generate_candidate_pool(grid.template.graph, req, k_star=5)
        from repro.graph import shortest_path

        _, best = shortest_path(grid.template.graph, req.source, req.dest)
        assert pool[0].loss_db == pytest.approx(best)

    def test_hop_bound_filters_pool(self, grid):
        req = RouteRequirement(grid.sensor_ids[0], grid.sink_id,
                               replicas=1, disjoint=False, max_hops=1)
        pool = generate_candidate_pool(grid.template.graph, req, k_star=10)
        assert all(p.hops == 1 for p in pool)

    def test_impossible_requirement_raises(self, grid):
        # More disjoint replicas than the source's out-degree.
        out_degree = grid.template.graph.out_degree(grid.sensor_ids[0])
        req = RouteRequirement(grid.sensor_ids[0], grid.sink_id,
                               replicas=out_degree + 1, disjoint=True)
        with pytest.raises(EncodingError, match="increase k_star"):
            generate_candidate_pool(
                grid.template.graph, req, k_star=out_degree + 1
            )


class TestEncoder:
    def _encode(self, grid, routes, k_star=5):
        model = Model()
        mapping = build_mapping(model, grid.template, default_catalog())
        encoder = ApproximatePathEncoder(k_star=k_star)
        encoding = encoder.encode(
            model, grid.template, routes, mapping.node_used
        )
        return model, mapping, encoding

    def test_only_pool_edges_encoded(self, grid):
        routes = [RouteRequirement(grid.sensor_ids[0], grid.sink_id,
                                   replicas=2, disjoint=True)]
        _, _, encoding = self._encode(grid, routes)
        assert 0 < len(encoding.edge_active) < grid.template.edge_count

    def test_path_var_count_below_full(self, grid):
        routes = [
            RouteRequirement(s, grid.sink_id, replicas=2, disjoint=True)
            for s in grid.sensor_ids
        ]
        _, _, encoding = self._encode(grid, routes, k_star=5)
        full_vars = len(routes) * 2 * grid.template.edge_count
        assert encoding.path_var_count < full_vars / 5

    def test_solution_decodes_to_disjoint_routes(self, grid):
        routes = [RouteRequirement(grid.sensor_ids[0], grid.sink_id,
                                   replicas=2, disjoint=True)]
        model, mapping, encoding = self._encode(grid, routes)
        model.minimize(mapping.cost_expr())
        solution = HighsSolver().solve(model)
        assert solution.status.has_solution
        decoded = encoding.decode(solution)
        assert len(decoded) == 2
        assert are_link_disjoint(decoded[0].nodes, decoded[1].nodes)

    def test_active_edges_match_decoded_routes(self, grid):
        routes = [RouteRequirement(s, grid.sink_id, replicas=1,
                                   disjoint=False)
                  for s in grid.sensor_ids]
        model, mapping, encoding = self._encode(grid, routes)
        model.minimize(mapping.cost_expr())
        solution = HighsSolver().solve(model)
        decoded = encoding.decode(solution)
        used_edges = {e for r in decoded for e in r.edges}
        active = {
            e for e, var in encoding.edge_active.items()
            if solution.value_bool(var)
        }
        assert active == used_edges

    def test_used_nodes_cover_route_nodes(self, grid):
        routes = [RouteRequirement(grid.sensor_ids[0], grid.sink_id,
                                   replicas=2, disjoint=True)]
        model, mapping, encoding = self._encode(grid, routes)
        model.minimize(mapping.cost_expr())
        solution = HighsSolver().solve(model)
        for route in encoding.decode(solution):
            for node in route.nodes:
                assert solution.value_bool(mapping.node_used[node])

    def test_invalid_k_star(self):
        with pytest.raises(ValueError):
            ApproximatePathEncoder(k_star=0)


def is_hull_row(constraint) -> bool:
    """A disjunctive-hull row of a single-path selection block."""
    return ":hull" in constraint.name


def without_hull_rows():
    """Leave the hull rows out of every encode."""
    return mock.patch.object(
        ApproximatePathEncoder, "_add_hull_rows",
        staticmethod(lambda *args: None),
    )


def build_scenario(scenario):
    return build_explorer(
        scenario.template, scenario.library, scenario.requirements,
        channel=scenario.channel, k_star=scenario.k_star, plan=scenario.plan,
    ).build(scenario.objective)


def lp_bound(model: Model) -> float:
    """Optimum of the LP relaxation (every integrality dropped)."""
    sf = model.to_standard_form()
    res = milp(
        sf.c,
        constraints=LinearConstraint(sf.a_matrix, sf.b_lower, sf.b_upper),
        bounds=Bounds(sf.x_lower, sf.x_upper),
        integrality=np.zeros_like(sf.integrality),
    )
    assert res.status == 0, res.message
    return res.fun + model.objective.constant


class TestHullRows:
    def _encode(self, grid, replicas):
        # K* = 10 is the smallest budget at which the grid's pools route
        # two candidates through one relay.
        model = Model()
        mapping = build_mapping(model, grid.template, default_catalog())
        routes = [RouteRequirement(s, grid.sink_id, replicas=replicas,
                                   disjoint=replicas > 1)
                  for s in grid.sensor_ids]
        encoding = ApproximatePathEncoder(k_star=10).encode(
            model, grid.template, routes, mapping.node_used
        )
        return model, mapping, encoding

    def test_rows_cover_exactly_the_shared_optional_nodes(self, grid):
        model, mapping, encoding = self._encode(grid, replicas=1)
        rows = {c.name: c for c in model.constraints}
        fixed = {n.id for n in grid.template.nodes if n.fixed}
        blocks_with_rows = 0
        for r, block in enumerate(encoding.selection):
            on_node = {}
            for k, path in enumerate(block.pool):
                for node in path.nodes:
                    if node not in fixed:
                        on_node.setdefault(node, set()).add(k)
            shared = {v: ks for v, ks in on_node.items() if len(ks) > 1}
            names = {n for n in rows if n.startswith(f"p{r}:hull")}
            if not shared:
                assert not names
                continue
            blocks_with_rows += 1
            assert names == (
                {f"p{r}:hull"}
                | {f"p{r}:hull[{k}]" for k in range(len(block.pool))}
                | {f"p{r}:hull_alpha[{v}]" for v in shared}
            )
            hull = [model.var_by_name(f"z[p{r}][{k}]")
                    for k in range(len(block.pool))]
            assert all(not z.is_integer and (z.lower, z.upper) == (0.0, 1.0)
                       for z in hull)
            for v, ks in shared.items():
                row = rows[f"p{r}:hull_alpha[{v}]"]
                assert row.expr.coeffs == {
                    mapping.node_used[v].index: 1.0,
                    **{hull[k].index: -1.0 for k in ks},
                }
                assert row.lower == 0.0
        assert blocks_with_rows > 0
        # ``z`` is no path variable: the count is still the selectors'.
        assert encoding.path_var_count == sum(
            len(block.pool) for block in encoding.selection
        )

    def test_no_rows_for_replicated_selections(self, grid):
        model, _, _ = self._encode(grid, replicas=2)
        assert not any(is_hull_row(c) for c in model.constraints)
        assert not any(v.name.startswith("z[p") for v in model.variables)

    def test_extra_selected_candidates_stay_feasible(self, grid):
        """Forcing every candidate of a block on keeps the model
        feasible: the rows place ``z`` on any one of them."""
        model, mapping, encoding = self._encode(grid, replicas=1)
        block = next(
            b for r, b in enumerate(encoding.selection)
            if any(c.name == f"p{r}:hull" for c in model.constraints)
        )
        for k, y in enumerate(block.pick):
            model.add(y >= 1, f"force[{k}]")
        model.minimize(mapping.cost_expr())
        solution = HighsSolver().solve(model)
        assert solution.status.has_solution
        assert len(encoding.decode(solution)) >= len(block.pool)


#: Corpus problems whose single-path pools share optional relays.
RELAY_SHARING = [f"multifloor:floors=4,rooms_x=3:{seed}"
                 for seed in (0, 1, 3, 4)]


class TestHullRowsKeepTheOptimum:
    """The rows cut off no design: the optimum with them is the optimum
    without them, on plain and on failure-aware solves."""

    @pytest.mark.parametrize("name", RELAY_SHARING)
    def test_plain_solve(self, name):
        scenario = default_registry().generate(name)
        assert any(is_hull_row(c) for c in build_scenario(scenario)
                   .model.constraints)
        with_rows = scenario.explore()
        with without_hull_rows():
            assert not any(is_hull_row(c) for c in build_scenario(scenario)
                           .model.constraints)
            without = scenario.explore()
        assert with_rows.status.has_solution and without.status.has_solution
        assert with_rows.objective_value == pytest.approx(
            without.objective_value, rel=1e-9
        )

    @pytest.mark.parametrize("spec", ["k-link:1,rounds:6",
                                      "k-node:1,rounds:6"])
    @pytest.mark.parametrize("name", [RELAY_SHARING[0], RELAY_SHARING[3]])
    def test_robust_solve(self, name, spec):
        scenario = default_registry().generate(name)
        assert any(is_hull_row(c) for c in build_scenario(scenario)
                   .model.constraints)
        options = SolveOptions(failures=spec)
        with_rows = scenario.explore(options=options)
        with without_hull_rows():
            without = scenario.explore(options=options)
        assert with_rows.architecture is not None
        assert without.architecture is not None
        # Surviving a single fault takes a second candidate on some
        # single-path route: the rows must leave extra candidates
        # selectable.
        required = sum(r.replicas for r in scenario.requirements.routes)
        assert len(with_rows.architecture.routes) > required
        # Survivability is not compared: ties between optima may pick
        # designs that survive different pattern sets.
        assert with_rows.objective_value == pytest.approx(
            without.objective_value, rel=1e-9
        )


def test_rows_lift_the_whatif_root_bound():
    """The multifloor what-if base's root LP bound rises from 130.24
    without the rows; the campus base's stays at its optimum."""
    multifloor = default_registry().generate(
        "multifloor:floors=6,k_star=24,relays_per_floor=16,rooms_x=5,"
        "sensors_per_floor=6:0"
    )
    campus = default_registry().generate(
        "campus:buildings_x=3,buildings_y=3,k_star=24,"
        "sensors_per_building=4,street_relays=100:0"
    )
    assert lp_bound(build_scenario(multifloor).model) == pytest.approx(
        162.5907, abs=1e-3
    )
    assert lp_bound(build_scenario(campus).model) == pytest.approx(
        80.0, abs=1e-3
    )
