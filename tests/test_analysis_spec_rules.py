"""Unit tests for the spec-level analyzer rules.

Each rule gets a positive case (the finding fires) and a negative case
(a healthy spec stays silent), on tiny hand-built templates.
"""

import importlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_flow

from repro.analysis import Severity, analyze_problem
from repro.analysis.rules import SpecContext, spec_rules
from repro.analysis.spec_rules import (
    HopBoundsRule,
    LibraryCoverageRule,
    QualityPrunedConnectivityRule,
    RouteConnectivityRule,
    RouteMinCutRule,
    UnitConsistencyRule,
    UnreachableNodesRule,
)
from repro.geometry.primitives import Point
from repro.graph.digraph import DiGraph
from repro.library.catalog import Library, default_catalog
from repro.library.components import device
from repro.library.links import LinkType
from repro.network.requirements import (
    LinkQualityRequirement,
    ReachabilityRequirement,
    RequirementSet,
)
from repro.network.template import NetworkNode, Template


def chain_template(*roles: str, link_type: LinkType | None = None) -> Template:
    """A directed line ``0 -> 1 -> ... -> n-1`` with 40 dB per link."""
    nodes = [
        NetworkNode(i, Point(8.0 * i, 0.0), role, fixed=(role != "relay"))
        for i, role in enumerate(roles)
    ]
    kwargs = {} if link_type is None else {"link_type": link_type}
    template = Template(nodes, name="chain", **kwargs)
    for i in range(len(roles) - 1):
        template.set_link(i, i + 1, 40.0)
    return template


def ctx_for(
    template: Template,
    requirements: RequirementSet | ReachabilityRequirement | None = None,
    library: Library | None = None,
) -> SpecContext:
    return SpecContext.build(template, requirements, library)


#: The spec-rules module (the package attribute is the ``spec_rules``
#: registry function).
SPEC_RULES = importlib.import_module("repro.analysis.spec_rules")


def capped_disjoint_paths(graph: DiGraph, source, dest, limit) -> int:
    successors = SPEC_RULES._unmasked_successors(graph)
    return SPEC_RULES._edge_disjoint_paths(successors, source, dest, limit)


class TestRouteConnectivity:
    def test_fires_on_reversed_route(self):
        template = chain_template("sensor", "relay", "sink")
        reqs = RequirementSet()
        reqs.require_route(2, 0)  # nothing leaves the sink
        finds = list(RouteConnectivityRule().check(ctx_for(template, reqs)))
        assert len(finds) == 1
        assert finds[0].severity is Severity.ERROR
        assert finds[0].data["route"] == 0

    def test_fires_on_out_of_range_endpoint(self):
        template = chain_template("sensor", "sink")
        reqs = RequirementSet()
        reqs.require_route(0, 99)
        finds = list(RouteConnectivityRule().check(ctx_for(template, reqs)))
        assert len(finds) == 1
        assert "out of range" in finds[0].message

    def test_silent_on_connected_route(self):
        template = chain_template("sensor", "relay", "sink")
        reqs = RequirementSet()
        reqs.require_route(0, 2)
        assert not list(RouteConnectivityRule().check(ctx_for(template, reqs)))


class TestRouteMinCut:
    def test_fires_when_replicas_exceed_cut(self):
        template = chain_template("sensor", "relay", "sink")
        reqs = RequirementSet()
        reqs.require_route(0, 2, replicas=2, disjoint=True)
        finds = list(RouteMinCutRule().check(ctx_for(template, reqs)))
        assert len(finds) == 1
        assert finds[0].data["min_cut"] == 1

    def test_silent_with_enough_disjoint_paths(self):
        template = chain_template("sensor", "relay", "sink")
        template.set_link(0, 2, 40.0)  # direct sensor->sink shortcut
        reqs = RequirementSet()
        reqs.require_route(0, 2, replicas=2, disjoint=True)
        assert not list(RouteMinCutRule().check(ctx_for(template, reqs)))

    def test_silent_without_disjointness(self):
        template = chain_template("sensor", "relay", "sink")
        reqs = RequirementSet()
        reqs.require_route(0, 2, replicas=2, disjoint=False)
        assert not list(RouteMinCutRule().check(ctx_for(template, reqs)))

    def test_cancelled_flow_frees_an_antiparallel_arc(self):
        """The first shortest path uses u->v, but the only 3-path flow
        sends a unit along v->u: after cancelling the u->v unit, v->u
        keeps its own capacity."""
        s, u, v, t, x, w, y, z = range(8)
        graph = DiGraph()
        for a, b in ((s, u), (u, v), (v, t), (s, x), (x, v), (v, u),
                     (u, y), (y, t), (s, w), (w, v), (u, z), (z, t)):
            graph.add_edge(a, b, 1.0)
        assert capped_disjoint_paths(graph, s, t, 10) == 3
        assert capped_disjoint_paths(graph, s, t, 2) == 2

    def test_masked_edges_carry_no_flow(self):
        graph = DiGraph()
        for a, b in ((0, 1), (1, 3), (0, 2), (2, 3)):
            graph.add_edge(a, b, 1.0)
        graph.mask_edge(0, 2)
        assert capped_disjoint_paths(graph, 0, 3, 5) == 1


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(2, 8),
    arcs=st.sets(st.tuples(st.integers(0, 7), st.integers(0, 7))),
    limit=st.integers(1, 6),
)
def test_capped_disjoint_paths_match_max_flow(n, arcs, limit):
    """The capped count is min(unit-capacity max-flow, limit)."""
    arcs = sorted((a, b) for a, b in arcs if a < n and b < n and a != b)
    graph = DiGraph()
    for node in range(n):
        graph.add_node(node)
    for a, b in arcs:
        graph.add_edge(a, b, 1.0)
    rows = [a for a, _ in arcs]
    cols = [b for _, b in arcs]
    capacity = csr_matrix(
        (np.ones(len(arcs), dtype=np.int32), (rows, cols)), shape=(n, n)
    )
    flow = maximum_flow(capacity, 0, n - 1).flow_value
    assert capped_disjoint_paths(graph, 0, n - 1, limit) == min(flow, limit)


class TestHopBounds:
    def test_min_hops_beyond_longest_simple_path(self):
        template = chain_template("sensor", "relay", "sink")
        reqs = RequirementSet()
        reqs.require_route(0, 2, min_hops=10)
        finds = list(HopBoundsRule().check(ctx_for(template, reqs)))
        assert len(finds) == 1
        assert "min_hops=10" in finds[0].message

    def test_max_hops_below_shortest_route(self):
        template = chain_template("sensor", "relay", "sink")
        reqs = RequirementSet()
        reqs.require_route(0, 2, max_hops=1)
        finds = list(HopBoundsRule().check(ctx_for(template, reqs)))
        assert len(finds) == 1
        assert finds[0].data["shortest"] == 2

    def test_silent_on_achievable_bounds(self):
        template = chain_template("sensor", "relay", "sink")
        reqs = RequirementSet()
        reqs.require_route(0, 2, min_hops=1, max_hops=2)
        assert not list(HopBoundsRule().check(ctx_for(template, reqs)))


class TestUnreachableNodes:
    def test_fires_on_stranded_candidate(self):
        template = chain_template("sensor", "relay", "sink", "relay")
        # node 3 is a relay candidate with no link onto the 0->2 corridor
        reqs = RequirementSet()
        reqs.require_route(0, 2)
        finds = list(UnreachableNodesRule().check(ctx_for(template, reqs)))
        assert len(finds) == 1
        assert finds[0].severity is Severity.WARNING
        assert finds[0].data["nodes"] == [3]

    def test_silent_when_all_candidates_serve_a_route(self):
        template = chain_template("sensor", "relay", "sink")
        reqs = RequirementSet()
        reqs.require_route(0, 2)
        assert not list(UnreachableNodesRule().check(ctx_for(template, reqs)))


class TestLibraryCoverage:
    def test_fixed_role_without_device_is_error(self):
        template = chain_template("sensor", "sink")
        lib = Library(devices=[device("s", ("sensor",), cost=10.0)])
        finds = list(LibraryCoverageRule().check(ctx_for(template, None, lib)))
        assert len(finds) == 1
        assert finds[0].severity is Severity.ERROR
        assert finds[0].data["role"] == "sink"

    def test_optional_role_without_device_is_warning(self):
        template = chain_template("sensor", "relay", "sink")
        lib = Library(devices=[
            device("s", ("sensor",), cost=10.0),
            device("b", ("sink",), cost=50.0),
        ])
        finds = list(LibraryCoverageRule().check(ctx_for(template, None, lib)))
        assert len(finds) == 1
        assert finds[0].severity is Severity.WARNING
        assert finds[0].data["role"] == "relay"

    def test_missing_anchor_role_for_reachability(self):
        template = chain_template("sensor", "sink")
        reach = ReachabilityRequirement(
            test_points=(Point(0.0, 0.0),), min_anchors=1, min_rss_dbm=-80.0
        )
        lib = Library(devices=[
            device("s", ("sensor",), cost=10.0),
            device("b", ("sink",), cost=50.0),
        ])
        finds = list(
            LibraryCoverageRule().check(ctx_for(template, reach, lib))
        )
        assert len(finds) == 1
        assert "anchor" in finds[0].message

    def test_silent_on_full_coverage(self):
        template = chain_template("sensor", "relay", "sink")
        finds = list(LibraryCoverageRule().check(
            ctx_for(template, None, default_catalog())
        ))
        assert not finds


class TestUnitConsistency:
    def test_positive_rss_floor_fires(self):
        template = chain_template("sensor", "sink")
        reqs = RequirementSet()
        reqs.link_quality = LinkQualityRequirement(min_rss_dbm=10.0)
        finds = list(UnitConsistencyRule().check(ctx_for(template, reqs)))
        assert len(finds) == 1
        assert "positive" in finds[0].message

    def test_sub_decibel_snr_fires(self):
        template = chain_template("sensor", "sink")
        reqs = RequirementSet()
        reqs.link_quality = LinkQualityRequirement(min_snr_db=0.5)
        finds = list(UnitConsistencyRule().check(ctx_for(template, reqs)))
        assert len(finds) == 1
        assert "linear ratio" in finds[0].message

    def test_non_negative_noise_floor_fires(self):
        lt = LinkType(name="weird", noise_dbm=3.0)
        template = chain_template("sensor", "sink", link_type=lt)
        finds = list(UnitConsistencyRule().check(ctx_for(template)))
        assert len(finds) == 1
        assert "noise floor" in finds[0].message

    def test_silent_on_plausible_numbers(self):
        template = chain_template("sensor", "sink")
        reqs = RequirementSet()
        reqs.link_quality = LinkQualityRequirement(
            min_rss_dbm=-80.0, min_snr_db=20.0
        )
        assert not list(UnitConsistencyRule().check(ctx_for(template, reqs)))


class TestQualityPrunedConnectivity:
    @staticmethod
    def _library() -> Library:
        # effective TX 0 dBm, RX gain 0 dBi: max tolerable path loss is
        # exactly -threshold.
        return Library(devices=[device("d", ("sensor", "relay", "sink"),
                                       cost=1.0)])

    def test_fires_when_bound_prunes_the_route(self):
        template = chain_template("sensor", "relay", "sink")  # 40 dB links
        reqs = RequirementSet()
        reqs.require_route(0, 2)
        reqs.link_quality = LinkQualityRequirement(min_rss_dbm=-30.0)
        finds = list(QualityPrunedConnectivityRule().check(
            ctx_for(template, reqs, self._library())
        ))
        assert len(finds) == 1
        assert finds[0].severity is Severity.WARNING
        assert finds[0].data["max_path_loss_db"] == 30.0

    def test_silent_when_links_survive(self):
        template = chain_template("sensor", "relay", "sink")
        reqs = RequirementSet()
        reqs.require_route(0, 2)
        reqs.link_quality = LinkQualityRequirement(min_rss_dbm=-50.0)
        assert not list(QualityPrunedConnectivityRule().check(
            ctx_for(template, reqs, self._library())
        ))


class TestAnalyzeProblem:
    def test_registry_has_every_rule(self):
        ids = {rule.rule_id for rule in spec_rules()}
        assert {
            "spec.route-connectivity", "spec.route-min-cut",
            "spec.hop-bounds", "spec.unreachable-nodes",
            "spec.library-coverage", "spec.unit-consistency",
            "spec.quality-pruned-connectivity",
        } <= ids

    def test_healthy_grid_spec_is_clean(self, grid_instance,
                                        grid_requirements, library):
        report = analyze_problem(
            grid_instance.template, grid_requirements, library
        )
        assert report.ok
        assert not report.warnings

    def test_doomed_spec_aggregates_multiple_rules(self):
        template = chain_template("sensor", "relay", "sink")
        reqs = RequirementSet()
        reqs.require_route(2, 0)                      # disconnected
        reqs.require_route(0, 2, replicas=9, disjoint=True)  # over min-cut
        reqs.link_quality = LinkQualityRequirement(min_rss_dbm=5.0)
        report = analyze_problem(template, reqs, default_catalog())
        assert not report.ok
        assert {"spec.route-connectivity", "spec.route-min-cut",
                "spec.unit-consistency"} <= set(report.rule_ids)
        assert report.seconds > 0.0
