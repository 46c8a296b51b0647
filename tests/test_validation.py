"""Tests for the independent solution checker."""

import pytest

from repro.core import DataCollectionExplorer
from repro.network import Route
from repro.network.requirements import (
    LifetimeRequirement,
    LinkQualityRequirement,
    RequirementSet,
)
from repro.validation import lifetime_years, link_rss_dbm, validate


@pytest.fixture()
def solved(grid_instance, library, grid_requirements):
    result = DataCollectionExplorer(
        grid_instance.template, library, grid_requirements
    ).solve("cost")
    assert result.feasible
    return result.architecture


class TestCleanDesignValidates:
    def test_no_violations(self, solved, grid_requirements):
        report = validate(solved, grid_requirements)
        assert report.ok
        assert report.violations == []

    def test_metrics_populated(self, solved, grid_requirements):
        report = validate(solved, grid_requirements)
        assert report.average_lifetime_years > 5.0
        assert report.min_lifetime_years >= 5.0
        assert report.total_charge_ma_ms > 0


class TestViolationDetection:
    def test_missing_fixed_node(self, solved, grid_requirements):
        del solved.sizing[solved.template.sensors[0].id]
        report = validate(solved, grid_requirements)
        assert any("fixed node" in v for v in report.violations)

    def test_missing_replica(self, solved, grid_requirements):
        removed = solved.routes.pop()
        report = validate(solved, grid_requirements)
        assert any(
            f"{removed.source}->{removed.dest}" in v
            for v in report.violations
        )

    def test_non_disjoint_replicas_detected(
        self, solved, grid_requirements
    ):
        first = next(
            r for r in solved.routes
            if len(solved.routes_for(r.source, r.dest)) == 2
        )
        # Overwrite the second replica with a copy of the first.
        for i, route in enumerate(solved.routes):
            if (route.source, route.dest) == (first.source, first.dest) \
                    and route.replica != first.replica:
                solved.routes[i] = Route(
                    first.source, first.dest, route.replica, first.nodes
                )
        report = validate(solved, grid_requirements)
        assert any("share" in v for v in report.violations)

    def test_inactive_link_in_route_detected(self, solved, grid_requirements):
        route = solved.routes[0]
        solved.active_edges.discard(route.edges[0])
        report = validate(solved, grid_requirements)
        assert any("inactive link" in v for v in report.violations)

    def test_weak_link_detected(self, solved, grid_requirements):
        # Downgrade a node with an antenna part to the weakest device, or
        # tighten the bound until some link fails.
        strict = RequirementSet(
            routes=grid_requirements.routes,
            link_quality=LinkQualityRequirement(min_snr_db=80.0),
            lifetime=None,
        )
        report = validate(solved, strict)
        assert any("SNR" in v for v in report.violations)

    def test_short_lifetime_detected(self, solved, grid_requirements):
        strict = RequirementSet(
            routes=grid_requirements.routes,
            link_quality=None,
            lifetime=LifetimeRequirement(years=100.0),
        )
        report = validate(solved, strict)
        assert any("lifetime" in v for v in report.violations)

    def test_incompatible_device_detected(self, solved, grid_requirements):
        sensor_id = solved.template.sensors[0].id
        solved.sizing[sensor_id] = "relay-std"
        report = validate(solved, grid_requirements)
        assert any("incompatible" in v for v in report.violations)

    def test_hop_bound_violations_detected(self, solved, grid_requirements):
        grid_requirements.routes[0] = type(grid_requirements.routes[0])(
            source=grid_requirements.routes[0].source,
            dest=grid_requirements.routes[0].dest,
            replicas=2, disjoint=True, max_hops=0,
        )
        report = validate(solved, grid_requirements)
        assert any("hops" in v for v in report.violations)


class TestHelpers:
    def test_link_rss_uses_datasheet(self, solved):
        u, v = next(iter(solved.active_edges))
        tx = solved.device_of(u)
        rx = solved.device_of(v)
        expected = (
            tx.tx_power_dbm + tx.antenna_gain_dbi + rx.antenna_gain_dbi
            - solved.template.path_loss(u, v)
        )
        assert link_rss_dbm(solved, u, v) == pytest.approx(expected)

    def test_lifetime_years_positive(self, solved, grid_requirements):
        for node_id in solved.used_nodes:
            assert lifetime_years(solved, grid_requirements, node_id) > 0

    def test_reachability_needs_channel(
        self, solved, grid_requirements, loc_requirement
    ):
        grid_requirements.reachability = loc_requirement
        with pytest.raises(ValueError, match="channel"):
            validate(solved, grid_requirements)
