"""Tests for the directed-graph substrate."""

import math

import pytest

from repro.graph import INFINITY, DiGraph


@pytest.fixture()
def triangle():
    g = DiGraph()
    g.add_edge("a", "b", 1.0)
    g.add_edge("b", "c", 2.0)
    g.add_edge("a", "c", 5.0)
    return g


class TestConstruction:
    def test_counts(self, triangle):
        assert triangle.node_count == 3
        assert triangle.edge_count == 3

    def test_add_node_idempotent(self, triangle):
        triangle.add_node("a")
        assert triangle.node_count == 3

    def test_readd_edge_overwrites_weight(self, triangle):
        triangle.add_edge("a", "b", 9.0)
        assert triangle.weight("a", "b") == 9.0
        assert triangle.edge_count == 3

    def test_negative_weight_rejected(self):
        g = DiGraph()
        with pytest.raises(ValueError):
            g.add_edge("a", "b", -1.0)

    def test_self_loop_rejected(self):
        g = DiGraph()
        with pytest.raises(ValueError):
            g.add_edge("a", "a")

    def test_remove_edge(self, triangle):
        triangle.remove_edge("a", "c")
        assert not triangle.has_edge("a", "c")
        with pytest.raises(KeyError):
            triangle.remove_edge("a", "c")


class TestQueries:
    def test_successors_and_predecessors(self, triangle):
        assert dict(triangle.successors("a")) == {"b": 1.0, "c": 5.0}
        assert dict(triangle.predecessors("c")) == {"b": 2.0, "a": 5.0}

    def test_out_degree(self, triangle):
        assert triangle.out_degree("a") == 2
        assert triangle.out_degree("c") == 0

    def test_weight_of_missing_edge_raises(self, triangle):
        with pytest.raises(KeyError):
            triangle.weight("c", "a")

    def test_set_weight(self, triangle):
        triangle.set_weight("a", "b", 3.5)
        assert triangle.weight("a", "b") == 3.5
        with pytest.raises(KeyError):
            triangle.set_weight("c", "a", 1.0)

    def test_subgraph_weight(self, triangle):
        assert triangle.subgraph_weight(["a", "b", "c"]) == 3.0
        assert math.isinf(triangle.subgraph_weight(["a", "c", "b"]))


class TestMasking:
    def test_masked_edge_hidden_from_traversal(self, triangle):
        triangle.mask_edge("a", "b")
        assert dict(triangle.successors("a")) == {"c": 5.0}
        assert dict(triangle.predecessors("b")) == {}
        assert triangle.weight("a", "b") == INFINITY

    def test_masked_edge_still_exists(self, triangle):
        triangle.mask_edge("a", "b")
        assert triangle.has_edge("a", "b")
        assert triangle.edge_count == 3

    def test_unmask_restores(self, triangle):
        triangle.mask_edge("a", "b")
        triangle.unmask_edge("a", "b")
        assert dict(triangle.successors("a")) == {"b": 1.0, "c": 5.0}

    def test_clear_masks(self, triangle):
        triangle.mask_edge("a", "b")
        triangle.mask_edge("b", "c")
        triangle.clear_masks()
        assert triangle.masked_edges == frozenset()

    def test_mask_missing_edge_raises(self, triangle):
        with pytest.raises(KeyError):
            triangle.mask_edge("c", "a")

    def test_subgraph_weight_respects_masks(self, triangle):
        triangle.mask_edge("b", "c")
        assert math.isinf(triangle.subgraph_weight(["a", "b", "c"]))


class TestCopy:
    def test_copy_is_independent(self, triangle):
        clone = triangle.copy()
        clone.add_edge("c", "a", 1.0)
        assert not triangle.has_edge("c", "a")

    def test_copy_preserves_masks(self, triangle):
        triangle.mask_edge("a", "b")
        clone = triangle.copy()
        assert clone.is_masked("a", "b")

    def test_weight_changes_stay_on_their_side(self, triangle):
        clone = triangle.copy()
        clone.set_weight("a", "b", 7.0)
        assert triangle.weight("a", "b") == 1.0
        assert dict(triangle.predecessors("b")) == {"a": 1.0}
        triangle.set_weight("b", "c", 8.0)
        assert clone.weight("b", "c") == 2.0
        assert dict(clone.predecessors("c")) == {"b": 2.0, "a": 5.0}

    def test_edge_removals_stay_on_their_side(self, triangle):
        clone = triangle.copy()
        clone.remove_edge("a", "c")
        assert triangle.has_edge("a", "c")
        assert dict(triangle.predecessors("c")) == {"b": 2.0, "a": 5.0}
        triangle.remove_edge("a", "b")
        assert clone.has_edge("a", "b")
        assert dict(clone.predecessors("b")) == {"a": 1.0}

    def test_copy_keeps_node_and_edge_order(self):
        g = DiGraph()
        g.add_node("z")
        g.add_edge("m", "a", 1.0)
        g.add_edge("z", "m", 2.0)
        g.add_edge("m", "z", 3.0)
        g.add_edge("a", "z", 4.0)
        clone = g.copy()
        assert list(clone.nodes()) == list(g.nodes()) == ["z", "m", "a"]
        assert list(clone.edges()) == list(g.edges())
        for node in g.nodes():
            assert list(clone.predecessors(node)) == list(g.predecessors(node))
