"""Tests for the energy/lifetime constraints (3a)-(3b)."""

import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from scipy.optimize import Bounds, LinearConstraint, milp

from repro.constraints import energy as energy_module
from repro.constraints import lifetime_budget_ma_ms
from repro.core import DataCollectionExplorer
from repro.encoding import ApproximatePathEncoder
from repro.geometry.primitives import Point
from repro.library import Library, default_catalog, device
from repro.milp import BranchAndBoundSolver, HighsSolver, Model
from repro.milp.solution import SolveStatus
from repro.network import (
    LifetimeRequirement,
    LinkQualityRequirement,
    NetworkNode,
    PowerConfig,
    RequirementSet,
    TdmaConfig,
    Template,
    small_grid_template,
    synthetic_template,
)
from repro.validation import node_charge_ma_ms, validate

TOOL = Path(__file__).parent.parent / "tools" / "check_energy_differential.py"
spec = importlib.util.spec_from_file_location("check_energy_differential", TOOL)
check_energy_differential = importlib.util.module_from_spec(spec)
sys.modules["check_energy_differential"] = check_energy_differential
spec.loader.exec_module(check_energy_differential)


@pytest.fixture()
def grid():
    return small_grid_template(nx=4, ny=3, spacing=10.0)


def make_requirements(grid, years=5.0):
    reqs = RequirementSet()
    for s in grid.sensor_ids:
        reqs.require_route(s, grid.sink_id, replicas=2, disjoint=True)
    reqs.link_quality = LinkQualityRequirement(min_snr_db=20.0)
    reqs.lifetime = LifetimeRequirement(years=years)
    return reqs


class TestBudget:
    def test_budget_formula(self):
        tdma = TdmaConfig(report_interval_s=30.0)
        power = PowerConfig(battery_mah=3000.0)
        budget = lifetime_budget_ma_ms(LifetimeRequirement(5.0), tdma, power)
        # battery mA*ms divided by reports in 5 years.
        reports = 5 * 365.25 * 24 * 3600 / 30.0
        assert budget == pytest.approx(power.battery_ma_ms / reports)

    def test_longer_lifetime_smaller_budget(self):
        tdma, power = TdmaConfig(), PowerConfig()
        b5 = lifetime_budget_ma_ms(LifetimeRequirement(5.0), tdma, power)
        b10 = lifetime_budget_ma_ms(LifetimeRequirement(10.0), tdma, power)
        assert b10 == pytest.approx(b5 / 2.0)


class TestEnergyModel:
    def test_milp_charge_upper_bounds_exact_charge(self, grid):
        """The MILP's (PWL, big-M) charge must dominate the validator's
        exact nonlinear recomputation on the decoded design."""
        reqs = make_requirements(grid)
        explorer = DataCollectionExplorer(
            grid.template, default_catalog(), reqs,
            encoder=ApproximatePathEncoder(k_star=6),
        )
        built = explorer.build("energy")
        solution = HighsSolver().solve(built.model)
        assert solution.status.has_solution
        from repro.core.explorer import decode_architecture

        arch = decode_architecture(
            solution, built, grid.template, default_catalog()
        )
        for node_id, charge_expr in built.energy.node_charge.items():
            if node_id not in arch.sizing:
                continue
            milp_charge = solution.value(charge_expr)
            exact = node_charge_ma_ms(arch, reqs, node_id)
            assert milp_charge >= exact * (1 - 1e-5) - 1e-3

    def test_lifetime_requirement_validated(self, grid):
        reqs = make_requirements(grid, years=5.0)
        result = DataCollectionExplorer(
            grid.template, default_catalog(), reqs
        ).solve("cost")
        assert result.feasible
        report = validate(result.architecture, reqs)
        assert report.ok, report.violations
        assert report.min_lifetime_years >= 5.0

    def test_stricter_lifetime_costs_more(self, grid):
        cheap = DataCollectionExplorer(
            grid.template, default_catalog(), make_requirements(grid, 2.0)
        ).solve("cost")
        strict = DataCollectionExplorer(
            grid.template, default_catalog(), make_requirements(grid, 10.0)
        ).solve("cost")
        assert cheap.feasible and strict.feasible
        assert (
            strict.architecture.dollar_cost
            >= cheap.architecture.dollar_cost - 1e-9
        )

    def test_impossible_lifetime_infeasible(self, grid):
        # Even an idle low-power node cannot last 200 years on 2xAA.
        reqs = make_requirements(grid, years=200.0)
        result = DataCollectionExplorer(
            grid.template, default_catalog(), reqs
        ).solve("cost")
        assert not result.feasible

    def test_energy_objective_prefers_low_power_parts(self, grid):
        reqs = make_requirements(grid)
        explorer = DataCollectionExplorer(
            grid.template, default_catalog(), reqs
        )
        cost_opt = explorer.solve("cost")
        energy_opt = explorer.solve("energy")
        assert cost_opt.feasible and energy_opt.feasible
        report_cost = validate(cost_opt.architecture, reqs)
        report_energy = validate(energy_opt.architecture, reqs)
        assert (report_energy.total_charge_ma_ms
                <= report_cost.total_charge_ma_ms + 1e-6)
        assert (energy_opt.architecture.dollar_cost
                >= cost_opt.architecture.dollar_cost - 1e-9)

    def test_sink_exempt_from_lifetime(self, grid):
        reqs = make_requirements(grid)
        result = DataCollectionExplorer(
            grid.template, default_catalog(), reqs
        ).solve("cost")
        report = validate(result.architecture, reqs)
        assert grid.sink_id not in report.lifetimes_years

    def test_slot_demand_counted_per_route_use(self, grid):
        """Node slot counts in the MILP equal the decoded route uses."""
        reqs = make_requirements(grid)
        explorer = DataCollectionExplorer(
            grid.template, default_catalog(), reqs,
        )
        built = explorer.build("cost")
        solution = HighsSolver().solve(built.model)
        from repro.core.explorer import decode_architecture

        arch = decode_architecture(
            solution, built, grid.template, default_catalog()
        )
        for node_id, k_expr in built.energy.slot_count.items():
            if node_id not in arch.sizing:
                continue
            expected = len(arch.tx_uses(node_id)) + len(arch.rx_uses(node_id))
            assert solution.value(k_expr) == pytest.approx(expected)


def is_capacity_row(constraint) -> bool:
    """The lifted rows ``lifetime[i]:<dev>``, not the exact class rows."""
    return (constraint.name.startswith("lifetime[")
            and not constraint.name.endswith(":exact"))


def is_exact_row(constraint) -> bool:
    """The exact class rows ``lifetime[i]:<dev>:exact``."""
    return (constraint.name.startswith("lifetime[")
            and constraint.name.endswith(":exact"))


def data_collection_requirements(instance, years, replicas=2):
    reqs = RequirementSet()
    for s in instance.sensor_ids:
        reqs.require_route(s, instance.sink_id, replicas=replicas,
                           disjoint=replicas > 1)
    reqs.link_quality = LinkQualityRequirement(min_snr_db=20.0)
    reqs.lifetime = LifetimeRequirement(years=years)
    return reqs


def build_cost(explorer, lifted=True):
    """``explorer``'s cost build; ``lifted=False`` leaves out the lifted
    rows."""
    if lifted:
        return explorer.build("cost")
    with mock.patch.object(energy_module, "_add_capacity_rows",
                           lambda *args: None):
        return explorer.build("cost")


def build_cost_model(instance, reqs, k_star, lifted=True):
    return build_cost(DataCollectionExplorer(
        instance.template, default_catalog(), reqs,
        encoder=ApproximatePathEncoder(k_star=k_star), analyze=False,
    ), lifted).model


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


LIFETIME_BOUND = [
    pytest.param(
        lambda: small_grid_template(nx=4, ny=3, spacing=10.0), years, 6,
        id=f"grid-{years}y",
    )
    for years in (10.0, 12.5, 15.0)
] + [
    pytest.param(
        lambda n=n, e=e, seed=seed: synthetic_template(n, e, seed=seed),
        5.0, 10, id=f"synthetic-{n}x{e}-s{seed}",
    )
    for n, e, seed in ((30, 12, 2), (40, 15, 4), (50, 15, 5))
]


def relay_line(library, relay_loss_db):
    """Two sensors route through one relay candidate to the sink, so each
    path binary is both an RX and a TX use of the relay."""
    nodes = [
        NetworkNode(0, Point(0.0, 0.0), "sensor", True),
        NetworkNode(1, Point(0.0, 5.0), "sensor", True),
        NetworkNode(2, Point(5.0, 2.0), "relay", False),
        NetworkNode(3, Point(10.0, 2.0), "sink", True),
    ]
    template = Template(nodes, name="relay-line")
    for u, v, loss in ((0, 2, 60.0), (1, 2, 60.0), (2, 3, relay_loss_db)):
        template.set_link(u, v, loss)
    reqs = RequirementSet()
    for sensor in (0, 1):
        reqs.require_route(sensor, 3)
    reqs.lifetime = LifetimeRequirement(years=10.0)
    return DataCollectionExplorer(
        template, library, reqs, encoder=ApproximatePathEncoder(k_star=2),
        analyze=False,
    )


def relay_library():
    """Of the relay devices, ``std`` carries one path, ``lp`` carries
    both and ``dead`` cannot even sleep through the budget (C < 0)."""
    library = Library()
    library.add(device("sensor", ("sensor",), cost=0.0, sleep_ma=0.01))
    library.add(device("sink", ("sink",), cost=0.0))
    library.add(device("std", ("relay",), cost=20.0, sleep_ma=0.03))
    library.add(device("lp", ("relay",), cost=45.0, radio_tx_ma=9.1,
                       radio_rx_ma=6.1, active_ma=2.5, sleep_ma=0.01))
    library.add(device("dead", ("relay",), cost=1.0, sleep_ma=0.05))
    return library


class TestCapacityRows:
    """The lifted rows ``sum_k w_r(k) y_k <= sum_d cap[r,d] m_d``."""

    @pytest.mark.parametrize("make, years, k_star", LIFETIME_BOUND)
    def test_rows_keep_the_optimum(self, make, years, k_star):
        instance = make()
        reqs = data_collection_requirements(instance, years)
        model = build_cost_model(instance, reqs, k_star)
        exact_only = build_cost_model(instance, reqs, k_star, lifted=False)
        lifted = [c for c in model.constraints if is_capacity_row(c)]
        assert lifted, "instance must be lifetime-bound"
        assert not any(is_capacity_row(c) for c in exact_only.constraints)
        with_rows = HighsSolver().solve(model)
        without = HighsSolver().solve(exact_only)
        assert with_rows.status.has_solution and without.status.has_solution
        assert with_rows.objective == pytest.approx(without.objective,
                                                    rel=1e-9)
        # Valid inequalities: the exact rows' own optimum satisfies every
        # lifted row (the two models share one variable table).
        for row in lifted:
            assert without.value(row.expr) <= row.upper + 1e-6, row.name

    def test_highs_and_branch_and_bound_agree(self):
        instance = small_grid_template(nx=3, ny=2, spacing=10.0)
        model = build_cost_model(
            instance, data_collection_requirements(instance, 15.0), 3
        )
        assert any(is_capacity_row(c) for c in model.constraints)
        highs = HighsSolver().solve(model)
        bnb = BranchAndBoundSolver(time_limit=120).solve(model)
        assert highs.status.has_solution and bnb.status.has_solution
        assert bnb.objective == pytest.approx(highs.objective, rel=1e-6)

    def test_hand_computed_caps(self):
        """Of the relay's devices, ``std`` carries one path, ``lp``
        carries both (no row of its own) and ``dead`` cannot even sleep
        through the budget (C < 0, never a coefficient)."""
        explorer = relay_line(relay_library(), 60.0)
        built = explorer.build("cost")
        model = built.model
        template = explorer.template

        tdma, power = TdmaConfig(), PowerConfig()
        budget = lifetime_budget_ma_ms(LifetimeRequirement(10.0), tdma, power)
        airtime = template.link_type.packet_airtime_ms(power.packet_bytes)
        # One path = one RX and one TX use: both radio currents over the
        # airtime at ETX 1, plus two awake slots replacing sleeping ones.
        w_std = (29.0 + 24.0) * airtime + 2 * (8.0 - 0.03) * tdma.slot_ms
        w_lp = (9.1 + 6.1) * airtime + 2 * (2.5 - 0.01) * tdma.slot_ms
        w_dead = (29.0 + 24.0) * airtime + 2 * (8.0 - 0.05) * tdma.slot_ms
        c_std = budget - 0.03 * tdma.report_interval_ms
        c_lp = budget - 0.01 * tdma.report_interval_ms
        c_dead = budget - 0.05 * tdma.report_interval_ms
        assert w_std < c_std < 2 * w_std
        assert 2 * w_lp <= c_lp
        assert c_dead < 0

        rows = {c.name: c for c in model.constraints if is_capacity_row(c)}
        assert sorted(rows) == ["lifetime[2]:dead", "lifetime[2]:std"]
        paths = built.encoding.edge_uses[(2, 3)]
        m = built.mapping.assign[2]

        def coefficients(name):
            row = rows[name]
            assert row.lower == -np.inf and row.upper == 0.0
            return {
                idx: pytest.approx(c, rel=1e-8)
                for idx, c in row.expr.coeffs.items()
            }

        # std: it fits one path and a fraction of the other, lp fits both.
        assert coefficients("lifetime[2]:std") == {
            paths[0].index: w_std, paths[1].index: w_std,
            m["std"].index: -c_std, m["lp"].index: -2 * w_std,
        }
        # dead: std's knapsack admits c_std / w_std paths.
        assert coefficients("lifetime[2]:dead") == {
            paths[0].index: w_dead, paths[1].index: w_dead,
            m["std"].index: -w_dead * c_std / w_std,
            m["lp"].index: -2 * w_dead,
        }
        # Only lp can carry both paths, and the solver finds it.
        solution = HighsSolver().solve(model)
        assert built.mapping.decode_sizing(solution)[2] == "lp"

    def test_root_lp_bound_rises_on_the_ladder(self):
        """On the (50,20) Table 3 rung the LP relaxation of the exact
        rows alone is ~103.4; the lifted rows lift it to ~116.876."""
        instance = synthetic_template(50, 20, seed=11)
        reqs = data_collection_requirements(instance, 5.0)
        model = build_cost_model(instance, reqs, 10)
        assert any(is_capacity_row(c) for c in model.constraints)
        exact_only = build_cost_model(instance, reqs, 10, lifted=False)
        assert lp_bound(exact_only) < 104.0
        assert lp_bound(model) == pytest.approx(116.876, abs=1e-3)


class TestExactRows:
    """The class rows ``sum w_c y + A sum r_c eta <= C_c + M_c (1 - m_c)``."""

    def test_hand_computed_rows(self):
        """The relay's uplink (2,3) loses 91 dB, so its SNR is 9 dB and
        its PWL ETX above 1: its two uses carry surcharges, and the
        relay's class rows price them at each class's TX current."""
        explorer = relay_line(relay_library(), 91.0)
        template = explorer.template
        built = explorer.build("cost")
        model = built.model
        energy = built.energy

        tdma, power = TdmaConfig(), PowerConfig()
        budget = lifetime_budget_ma_ms(LifetimeRequirement(10.0), tdma, power)
        airtime = template.link_type.packet_airtime_ms(power.packet_bytes)
        curve = energy.etx_curve
        # Every relay device sends at 0 dBm into the sink's 0 dBi.
        top = curve.pwl_at(100.0 - 91.0)
        assert 1.01 < top < 1.1
        # Only the lossy uplink is a surcharge edge.
        assert set(energy.etx) == {(2, 3)}
        assert energy.etx[(2, 3)].upper == pytest.approx(top, rel=1e-12)
        etas = energy.surcharge[(2, 3)]
        assert [eta.upper for eta in etas] == [pytest.approx(top - 1.0)] * 2
        paths = built.encoding.edge_uses[(2, 3)]
        m = built.mapping.assign[2]

        w_std = (29.0 + 24.0) * airtime + 2 * (8.0 - 0.03) * tdma.slot_ms
        w_lp = (9.1 + 6.1) * airtime + 2 * (2.5 - 0.01) * tdma.slot_ms
        w_dead = (29.0 + 24.0) * airtime + 2 * (8.0 - 0.05) * tdma.slot_ms
        c_std = budget - 0.03 * tdma.report_interval_ms
        c_lp = budget - 0.01 * tdma.report_interval_ms
        c_dead = budget - 0.05 * tdma.report_interval_ms
        # lp carries both paths even at the top ETX: no row of its own.
        assert 2 * w_lp + 2 * 9.1 * airtime * (top - 1.0) <= c_lp

        rows = {c.name: c for c in model.constraints if is_exact_row(c)}
        assert sorted(rows) == [
            "lifetime[2]:dead:exact", "lifetime[2]:std:exact",
        ]

        def expected(w, c, r_tx):
            big_m = 2 * w + 2 * r_tx * (top - 1.0) - c
            return {
                paths[0].index: w, paths[1].index: w,
                etas[0].index: r_tx, etas[1].index: r_tx,
                m_dev.index: big_m,
            }, c + big_m

        for name, w, c in (("std", w_std, c_std), ("dead", w_dead, c_dead)):
            m_dev = m[name]
            coeffs, upper = expected(w, c, 29.0 * airtime)
            row_coeffs, lower, row_upper = rows[
                f"lifetime[2]:{name}:exact"
            ].normalized()
            assert lower == -np.inf
            assert row_upper == pytest.approx(upper, rel=1e-12)
            assert row_coeffs == {
                idx: pytest.approx(v, rel=1e-12) for idx, v in coeffs.items()
            }

        # dead's row alone rules it out: C < 0 while the left side is not.
        assert c_dead < 0
        exact_only = build_cost(explorer, lifted=False)
        solution = HighsSolver().solve(exact_only.model)
        assert solution.status.has_solution
        assert exact_only.mapping.decode_sizing(solution)[2] == "lp"

    def test_link_quality_floor_bounds_the_surcharge(self):
        """Only device pairs that meet the link-quality floor count.  On
        the 91 dB uplink a 0 dBm relay reaches 9 dB and a 15 dBm one
        24 dB; with a 20 dB floor the edge's ETX is capped at the PWL
        value at 24 dB, without it at 9 dB."""
        library = relay_library()
        library.add(device("pa", ("relay",), cost=60.0, tx_power_dbm=15.0))
        explorer = relay_line(library, 91.0)
        curve = explorer.build("cost").energy.etx_curve
        assert curve.pwl_at(24.0) < 1.00001 < 1.01 < curve.pwl_at(9.0)
        for floor_db, snr in ((None, 9.0), (20.0, 24.0)):
            explorer.requirements.link_quality = (
                None if floor_db is None
                else LinkQualityRequirement(min_snr_db=floor_db)
            )
            etx = explorer.build("cost").energy.etx[(2, 3)]
            assert etx.upper == pytest.approx(curve.pwl_at(snr), rel=1e-12)

    def test_surcharge_prices_the_validated_charge(self):
        """Far apart and without an SNR floor, grid links run well above
        ETX 1; the energy optimum's reported charge is the PWL price of
        its design, which over-estimates the exact ETX only slightly."""
        instance = small_grid_template(nx=3, ny=2, spacing=25.0)
        reqs = data_collection_requirements(instance, 10.0)
        reqs.link_quality = None
        explorer = DataCollectionExplorer(
            instance.template, default_catalog(), reqs,
            encoder=ApproximatePathEncoder(k_star=4),
        )
        result = explorer.solve("energy")
        assert result.feasible
        surcharged = set(explorer.build("energy").energy.etx)
        assert surcharged & result.architecture.active_edges
        report = validate(result.architecture, reqs)
        assert report.ok, report.violations
        charge = result.objective_terms["energy"]
        assert charge == pytest.approx(result.objective_value, rel=1e-6)
        assert report.total_charge_ma_ms <= charge
        assert charge == pytest.approx(report.total_charge_ma_ms, rel=1e-3)

    def test_cost_solve_reports_the_exact_charge(self, grid):
        """A cost solve builds no node charges, yet reports the charge of
        its design: at the 20 dB floor the PWL is within 4e-6 of the
        exact ETX."""
        reqs = make_requirements(grid)
        built = DataCollectionExplorer(
            grid.template, default_catalog(), reqs
        ).build("cost")
        assert "energy" not in built.objective_exprs
        assert not any(v.name.startswith("z[") for v in built.model.variables)
        result = DataCollectionExplorer(
            grid.template, default_catalog(), reqs
        ).solve("cost")
        report = validate(result.architecture, reqs)
        assert result.objective_terms["energy"] == pytest.approx(
            report.total_charge_ma_ms, rel=1e-5
        )


class TestEnergyDifferential:
    """The exact rows against the big-M chain of
    ``tests/energy_chain_reference.py``; CI runs the full set."""

    def test_slice_matches_the_chain(self):
        tool = check_energy_differential
        count, proven, failures = tool.differential(
            tool.quick_set(), log=lambda line: None
        )
        assert failures == []
        assert proven == count >= 8

    def test_a_changed_charge_is_caught(self):
        """The harness itself: pricing every ETX surcharge at zero on a
        lossy grid must show up as an objective mismatch (the $+energy
        optimum there runs links at ETX ~1.03)."""
        tool = check_energy_differential
        far = small_grid_template(nx=3, ny=2, spacing=35.0)
        case = tool.Case("grid 3x2 35 m 10 y", far,
                         tool.requirements(far, 10.0, min_snr_db=None),
                         {"cost": 0.5, "energy": 0.5}, 4)
        with mock.patch.object(energy_module, "surcharge_chords",
                               lambda curve, snrs: ([], 1.0)):
            failures, _, _ = tool.compare(case)
        assert len(failures) == 1 and "objective" in failures[0]

    @pytest.mark.parametrize("chain_value, caught", [(99.0, True),
                                                     (100.0, False)])
    def test_an_incumbent_below_the_optimum_is_caught(self, chain_value,
                                                      caught):
        """A chain stopped FEASIBLE below the exact optimum holds a
        design the exact rows cut off; at the optimum it holds none."""
        tool = check_energy_differential

        def result(status, value):
            return SimpleNamespace(architecture=None, status=status,
                                   objective_value=value, feasible=True)

        results = iter([(result(SolveStatus.OPTIMAL, 100.0), 0.0),
                        (result(SolveStatus.FEASIBLE, chain_value), 0.0)])
        case = tool.Case("stub", None, RequirementSet(), "cost")
        with mock.patch.object(tool, "solve", lambda case: next(results)):
            failures, _, proven = tool.compare(case)
        assert not proven
        assert len(failures) == caught
