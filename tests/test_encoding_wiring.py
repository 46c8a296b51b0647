"""The wiring rule: a link that only one candidate path uses takes that
path's binary; a link with two or more uses keeps its own ``e[u,v]``."""

import importlib.util
import sys
from pathlib import Path

import pytest

from repro.analysis import analyze_model
from repro.constraints.mapping import build_mapping
from repro.core.explorer import DataCollectionExplorer
from repro.encoding import ApproximatePathEncoder, FullPathEncoder
from repro.library import default_catalog
from repro.milp import Model
from repro.network import (
    LifetimeRequirement,
    LinkQualityRequirement,
    RequirementSet,
    RouteRequirement,
    small_grid_template,
)

from .edge_wiring_reference import reference_wiring
from .test_encoding_approximate import build_scenario, lp_bound

TOOL = Path(__file__).parent.parent / "tools" / "check_wiring_differential.py"
spec = importlib.util.spec_from_file_location("check_wiring_differential", TOOL)
check_wiring_differential = importlib.util.module_from_spec(spec)
sys.modules["check_wiring_differential"] = check_wiring_differential
spec.loader.exec_module(check_wiring_differential)


@pytest.fixture(scope="module")
def encoded():
    """Two disjoint routes per sensor on the 4x3 grid at K* = 10: some
    links carry one candidate, others several."""
    grid = small_grid_template(nx=4, ny=3)
    model = Model()
    mapping = build_mapping(model, grid.template, default_catalog())
    routes = [RouteRequirement(s, grid.sink_id, replicas=2, disjoint=True)
              for s in grid.sensor_ids]
    encoding = ApproximatePathEncoder(k_star=10).encode(
        model, grid.template, routes, mapping.node_used
    )
    return model, mapping, encoding


def rows_by_name(model):
    return {c.name: c for c in model.constraints}


class TestLinkVariables:
    def test_single_use_link_takes_its_use(self, encoded):
        model, _, encoding = encoded
        rows = rows_by_name(model)
        columns = {var.name for var in model.variables}
        single = [e for e, uses in encoding.edge_uses.items() if len(uses) == 1]
        assert single
        for u, v in single:
            assert encoding.edge_active[(u, v)] is encoding.edge_uses[(u, v)][0]
            assert f"e[{u},{v}]" not in columns
            assert f"e[{u},{v}]:ge_use0" not in rows
            assert f"e[{u},{v}]:le_uses" not in rows

    def test_shared_link_keeps_its_binary_and_rows(self, encoded):
        model, _, encoding = encoded
        rows = rows_by_name(model)
        shared = {e: uses for e, uses in encoding.edge_uses.items()
                  if len(uses) > 1}
        assert shared
        for (u, v), uses in shared.items():
            e_var = encoding.edge_active[(u, v)]
            assert e_var.name == f"e[{u},{v}]"
            assert not any(e_var is use for use in uses)
            for k, use in enumerate(uses):
                row = rows[f"e[{u},{v}]:ge_use{k}"]
                assert row.expr.coeffs == {e_var.index: 1.0, use.index: -1.0}
            assert rows[f"e[{u},{v}]:le_uses"].expr.coeffs == {
                e_var.index: 1.0, **{use.index: -1.0 for use in uses}
            }

    def test_endpoint_rows_once_per_binary_and_node(self, encoded):
        model, mapping, encoding = encoded
        pairs = [
            tuple(c.expr.coeffs) for c in model.constraints
            if c.name.endswith((":tx_used", ":rx_used"))
        ]
        assert len(pairs) == len(set(pairs))
        expected = {
            (e_var.index, mapping.node_used[node].index)
            for (u, v), e_var in encoding.edge_active.items()
            for node in (u, v)
        }
        assert set(pairs) == expected
        # A path binary stands for all of its single-use links.
        assert len(pairs) < 2 * len(encoding.edge_active)


def grid_explorer(encoder, years=10.0, replicas=2, sensors=None):
    grid = small_grid_template(3, 2, 10.0)
    reqs = RequirementSet()
    for sensor in grid.sensor_ids[:sensors]:
        reqs.require_route(sensor, grid.sink_id, replicas=replicas,
                           disjoint=replicas > 1)
    reqs.link_quality = LinkQualityRequirement(min_snr_db=20.0)
    reqs.lifetime = LifetimeRequirement(years=years)
    return DataCollectionExplorer(
        grid.template, default_catalog(), reqs, encoder=encoder
    )


def registry_models(stride=5):
    """Every ``stride``-th registry problem of seed block 0, built."""
    for scenario in check_wiring_differential.registry_scenarios([0], stride):
        yield scenario.name, build_scenario(scenario).model


class TestModels:
    def test_no_duplicate_rows_on_the_registry(self):
        duplicated = {
            name for name, model in registry_models()
            if any(d.rule_id == "model.duplicate-row"
                   for d in analyze_model(model).diagnostics)
        }
        assert not duplicated
        # The per-link wiring duplicates rows on these same models.
        with reference_wiring():
            assert any(
                d.rule_id == "model.duplicate-row"
                for _, model in registry_models()
                for d in analyze_model(model).diagnostics
            )

    @pytest.mark.parametrize("objective, replicas, sensors", [
        ("cost", 2, None), ("energy", 2, None), ("cost", 1, 1),
    ])
    def test_full_encoder_rows_are_unchanged(self, objective, replicas,
                                             sensors):
        """The full encoding's link binaries appear in its own ``act``
        rows, so it keeps them and all of their rows, also where one
        route replica is a link's only use."""
        def image(model):
            flat = model.row_arrays()
            return (
                [a.tobytes() for a in (flat.counts, flat.cols, flat.coefs,
                                       flat.lower, flat.upper)],
                [c.name for c in model.constraints],
            )

        def build():
            return grid_explorer(
                FullPathEncoder(), replicas=replicas, sensors=sensors
            ).build(objective).model

        library = image(build())
        with reference_wiring():
            reference = image(build())
        assert library == reference

    def test_lp_relaxation_is_unchanged(self):
        """``e >= y`` and ``e <= y`` force ``e = y`` in the LP already:
        substituting it moves no root bound."""
        explorers = [
            grid_explorer(ApproximatePathEncoder(k_star=4)),
            grid_explorer(ApproximatePathEncoder(k_star=8), years=15.0),
        ]
        models = [e.build("cost").model for e in explorers]
        with reference_wiring():
            wired = [e.build("cost").model for e in explorers]
        for model, reference in zip(models, wired):
            assert len(model.constraints) < len(reference.constraints)
            assert lp_bound(model) == pytest.approx(
                lp_bound(reference), rel=1e-9
            )


def test_wiring_differential_on_the_registry():
    """The tier-1 slice of ``tools/check_wiring_differential.py``."""
    tool = check_wiring_differential
    failures, problems, rows, reference_rows = tool.differential(
        tool.registry_cases([0], stride=5)
    )
    assert problems == 21
    assert not failures
    assert rows < reference_rows
