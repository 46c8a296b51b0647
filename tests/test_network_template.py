"""Tests for templates and link rules."""

import pytest

from repro.channel import LogDistanceModel
from repro.geometry import Point
from repro.network import (
    NetworkNode,
    Template,
    data_collection_link_rule,
    mesh_link_rule,
)


def make_nodes():
    return [
        NetworkNode(0, Point(0, 0), "sensor", fixed=True),
        NetworkNode(1, Point(10, 0), "relay", fixed=False),
        NetworkNode(2, Point(20, 0), "sink", fixed=True),
    ]


class TestLinkRules:
    def test_data_collection_semantics(self):
        sensor, relay, sink = make_nodes()
        assert data_collection_link_rule(sensor, relay)
        assert data_collection_link_rule(sensor, sink)
        assert data_collection_link_rule(relay, relay)
        assert data_collection_link_rule(relay, sink)
        # Sinks never transmit; sensors never receive.
        assert not data_collection_link_rule(sink, relay)
        assert not data_collection_link_rule(relay, sensor)
        assert not data_collection_link_rule(sensor, sensor)

    def test_mesh_rule(self):
        sensor, relay, _ = make_nodes()
        assert mesh_link_rule(sensor, relay)
        assert mesh_link_rule(relay, sensor)
        assert not mesh_link_rule(sensor, sensor)


class TestTemplate:
    def test_ids_must_be_consecutive(self):
        nodes = make_nodes()
        nodes[1] = NetworkNode(7, Point(10, 0), "relay", False)
        with pytest.raises(ValueError, match="consecutive"):
            Template(nodes)

    def test_candidate_links_respect_cutoff(self):
        template = Template(make_nodes())
        channel = LogDistanceModel(exponent=3.0)
        # 20 m at n=3 is ~79 dB; cut at 75 dB keeps only 10-m links.
        template.add_candidate_links(channel, max_path_loss_db=75.0)
        assert template.graph.has_edge(0, 1)
        assert template.graph.has_edge(1, 2)
        assert not template.graph.has_edge(0, 2)

    def test_link_rule_respected(self):
        template = Template(make_nodes())
        template.add_candidate_links(LogDistanceModel(), 120.0)
        assert not template.graph.has_edge(2, 1)  # sink never transmits
        assert not template.graph.has_edge(1, 0)  # sensors never receive

    def test_path_loss_lookup(self):
        template = Template(make_nodes())
        channel = LogDistanceModel(exponent=3.0)
        template.add_candidate_links(channel, 120.0)
        expected = channel.path_loss_db(Point(0, 0), Point(10, 0))
        assert template.path_loss(0, 1) == pytest.approx(expected)
        with pytest.raises(KeyError):
            template.path_loss(2, 0)

    def test_set_link_manual(self):
        template = Template(make_nodes())
        template.set_link(0, 1, 60.0)
        assert template.path_loss(0, 1) == 60.0
        with pytest.raises(ValueError):
            template.set_link(0, 0, 10.0)
        with pytest.raises(KeyError):
            template.set_link(0, 9, 10.0)

    def test_add_links_in_bulk(self):
        template = Template(make_nodes())
        assert template.add_links([(1, 2, 70.0), (0, 1, 60.0)]) == 2
        assert template.add_links([(1, 2, 75.0)]) == 1
        assert list(template.edges()) == [(1, 2, 75.0), (0, 1, 60.0)]
        assert list(template.graph.edges()) == [(0, 1, 60.0), (1, 2, 75.0)]
        assert dict(template.links) == {(1, 2): 75.0, (0, 1): 60.0}
        with pytest.raises(KeyError):
            template.add_links([(0, 2, 80.0), (0, 9, 10.0)])
        assert not template.graph.has_edge(0, 2)
        assert template.edge_count == 2
        with pytest.raises(TypeError):
            template.links[(0, 2)] = 80.0  # type: ignore[index]

    def test_role_accessors(self):
        template = Template(make_nodes())
        assert [n.id for n in template.sensors] == [0]
        assert [n.id for n in template.relays] == [1]
        assert [n.id for n in template.sinks] == [2]
        assert template.anchors == []
        assert template.node(1).role == "relay"

    def test_edges_iteration_matches_counts(self):
        template = Template(make_nodes())
        template.add_candidate_links(LogDistanceModel(), 120.0)
        assert len(list(template.edges())) == template.edge_count

    def test_negative_node_id_rejected(self):
        with pytest.raises(ValueError):
            NetworkNode(-1, Point(0, 0), "relay", False)

    def test_measured_channel_without_distance_law(self):
        """Measured channels have no distance law: every pair is probed
        and missing measurements surface as KeyError."""
        from repro.channel import MeasuredChannel

        nodes = make_nodes()
        table = {
            (nodes[0].location, nodes[1].location): 60.0,
            (nodes[1].location, nodes[2].location): 65.0,
            (nodes[0].location, nodes[2].location): 120.0,
        }
        template = Template(nodes)
        template.add_candidate_links(MeasuredChannel(table), 90.0)
        assert template.graph.has_edge(0, 1)
        assert template.graph.has_edge(1, 2)
        assert not template.graph.has_edge(0, 2)  # above the cutoff
        assert template.path_loss(0, 1) == 60.0

    def test_distance_prefilter_matches_bruteforce(self):
        """The distance shortcut must not drop any admissible link."""
        nodes = [
            NetworkNode(i, Point(x * 7.0, 0), "relay", False)
            for i, x in enumerate(range(8))
        ]
        channel = LogDistanceModel(exponent=2.5)
        fast = Template(nodes)
        fast.add_candidate_links(channel, 70.0, link_rule=mesh_link_rule)
        expected = {
            (a.id, b.id)
            for a in nodes
            for b in nodes
            if a.id != b.id
            and channel.path_loss_db(a.location, b.location) <= 70.0
        }
        assert {(u, v) for u, v, _ in fast.edges()} == expected


class TestBackendEquality:
    """Vectorized and scalar link generation must build the same template."""

    @staticmethod
    def _clone_and_link(nodes, channel, cutoff, rule, path):
        template = Template(nodes)
        if path == "scalar":
            # The loop hookless channels run, distance prefilter included.
            added = template._add_candidate_links_scalar(
                channel, cutoff, rule or data_collection_link_rule
            )
        else:
            added = template.add_candidate_links(channel, cutoff, link_rule=rule)
        return template, added

    @staticmethod
    def _assert_same(ref, vec):
        ref_t, ref_added = ref
        vec_t, vec_added = vec
        assert vec_added == ref_added
        ref_edges = list(ref_t.edges())
        vec_edges = list(vec_t.edges())
        # Same edges, in the same insertion order.
        assert [(u, v) for u, v, _ in vec_edges] == [
            (u, v) for u, v, _ in ref_edges
        ]
        for (_, _, wv), (_, _, wr) in zip(vec_edges, ref_edges):
            assert wv == pytest.approx(wr, abs=1e-9)

    def _grid_nodes(self, nx=5, ny=4, spacing=9.0):
        import itertools

        nodes = []
        for i, (gx, gy) in enumerate(
            itertools.product(range(nx), range(ny))
        ):
            role = "sink" if i == 0 else ("sensor" if i % 3 == 0 else "relay")
            nodes.append(
                NetworkNode(i, Point(gx * spacing, gy * spacing), role, i == 0)
            )
        return nodes

    def test_log_distance_mesh(self):
        nodes = self._grid_nodes()
        channel = LogDistanceModel(exponent=3.0)
        self._assert_same(
            self._clone_and_link(nodes, channel, 85.0, mesh_link_rule, "scalar"),
            self._clone_and_link(nodes, channel, 85.0, mesh_link_rule, "hook"),
        )

    def test_multiwall_office_data_collection(self):
        from repro.channel import MultiWallModel
        from repro.geometry import office_floorplan

        nodes = self._grid_nodes(6, 4, 11.0)
        channel = MultiWallModel(office_floorplan())
        self._assert_same(
            self._clone_and_link(nodes, channel, 92.0, None, "scalar"),
            self._clone_and_link(nodes, channel, 92.0, None, "hook"),
        )

    def test_auto_uses_the_hook_and_matches(self, monkeypatch):
        nodes = self._grid_nodes(4, 3)
        channel = LogDistanceModel(exponent=2.5)
        scalar = self._clone_and_link(
            nodes, channel, 80.0, mesh_link_rule, "scalar"
        )

        def no_scalar_loop(*args, **kwargs):
            raise AssertionError("a hooked channel ran the scalar loop")

        monkeypatch.setattr(
            Template, "_add_candidate_links_scalar", no_scalar_loop
        )
        self._assert_same(
            scalar,
            self._clone_and_link(nodes, channel, 80.0, mesh_link_rule, "hook"),
        )
