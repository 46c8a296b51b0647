"""Tests for the fault-resiliency analysis."""


from repro.core import DataCollectionExplorer
from repro.failures import analyze_resiliency
from repro.library import default_catalog
from repro.network import Architecture, Route


def hand_built(instance):
    """A design where both replicas of one pair share a relay."""
    arch = Architecture(template=instance.template,
                        library=default_catalog())
    s = instance.sensor_ids[0]
    d = instance.sink_id
    # Link-disjoint, but both routes pass through relay 5:
    # node-fault-critical by design.
    arch.routes = [
        Route(s, d, 0, (s, 5, d)),
        Route(s, d, 1, (s, 4, 5, 6, d)),
    ]
    arch.active_edges = {e for r in arch.routes for e in r.edges}
    arch.sizing = {
        node: "relay-std" if instance.template.node(node).role == "relay"
        else ("sensor-std" if instance.template.node(node).role == "sensor"
              else "sink-std")
        for route in arch.routes for node in route.nodes
    }
    return arch, s, d


class TestHandBuiltDesign:
    def test_shared_relay_is_critical_node(self, grid_instance):
        arch, s, d = hand_built(grid_instance)
        report = analyze_resiliency(arch)
        assert report.critical_nodes == [5]
        assert not report.survives_any_single_node_failure
        assert report.node_faults[5].disconnected_pairs == [(s, d)]

    def test_link_disjoint_routes_survive_link_faults(self, grid_instance):
        arch, _, _ = hand_built(grid_instance)
        report = analyze_resiliency(arch)
        assert report.survives_any_single_link_failure
        assert report.critical_links == []

    def test_terminals_not_injected(self, grid_instance):
        arch, s, d = hand_built(grid_instance)
        report = analyze_resiliency(arch)
        assert s not in report.node_faults
        assert d not in report.node_faults

    def test_single_route_pair_is_fragile(self, grid_instance):
        arch, s, d = hand_built(grid_instance)
        arch.routes = arch.routes[:1]
        arch.active_edges = set(arch.routes[0].edges)
        report = analyze_resiliency(arch)
        assert not report.survives_any_single_link_failure
        assert (s, 5) in report.critical_links


class TestSynthesizedDesign:
    def test_disjoint_synthesis_survives_link_faults(
        self, grid_instance, library, grid_requirements
    ):
        result = DataCollectionExplorer(
            grid_instance.template, library, grid_requirements
        ).solve("cost")
        assert result.feasible
        report = analyze_resiliency(result.architecture, grid_requirements)
        # Link-disjoint replicas guarantee single-link-failure survival.
        assert report.survives_any_single_link_failure
