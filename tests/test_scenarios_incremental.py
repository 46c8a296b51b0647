"""Tests for the incremental what-if re-solve: exactness and reuse."""

import math

import pytest

from repro.graph import DiGraph
from repro.graph.dijkstra import shortest_path_tree
from repro.runtime import EncodeCache
from repro.runtime.cache import build_weighted_graph
from repro.scenarios import (
    apply_edits,
    cold_resolve,
    default_registry,
    incremental_resolve,
    parse_edit,
    prepare_cache,
)
from repro.scenarios.edits import _edge_diff
from repro.scenarios.incremental import _changed_edges, _YenReplayer

#: Two edits whose changed links overlap: the wall and the moved relay
#: re-weight some of the same links.
WALL_THEN_MOVE = ("add-wall:30,5,30,25,brick", "move-node:10,34.0,14.0")


def solve_then_edit(name: str, *edit_texts: str):
    """Cold-solve ``name``, apply the edits, return all the pieces."""
    scenario = default_registry().generate(name)
    cache = EncodeCache()
    base = scenario.explore(cache=cache)
    assert base.feasible
    edits = tuple(parse_edit(t) for t in edit_texts)
    edited, deltas = apply_edits(scenario, edits)
    return scenario, cache, base, edited, deltas


class TestExactness:
    """Incremental and cold re-solves must agree on the objective."""

    @pytest.mark.parametrize("name,edit_text", [
        ("campus:buildings_x=2,buildings_y=2:0", "add-wall:30,5,30,25,brick"),
        ("multifloor:floors=2,rooms_x=3:1", "remove-wall:2"),
        ("materials::0", "move-node:5,30.0,14.0"),
        ("reqmix::0", "set-min-snr:21"),
    ])
    def test_objective_matches_cold_resolve(self, name, edit_text):
        scenario, cache, base, edited, deltas = solve_then_edit(
            name, edit_text
        )
        incremental = incremental_resolve(
            scenario, edited, deltas,
            previous=base.architecture, cache=cache,
        )
        cold = cold_resolve(edited)
        assert incremental.feasible and cold.feasible
        assert incremental.objective_value == cold.objective_value

    def test_reach_transplant_matches_cold_resolve(self):
        scenario, cache, base, edited, deltas = solve_then_edit(
            "moving_target::0", "add-wall:20,2,20,20,concrete"
        )
        incremental = incremental_resolve(
            scenario, edited, deltas,
            previous=base.architecture, cache=cache,
        )
        cold = cold_resolve(edited)
        assert incremental.objective_value == cold.objective_value
        assert cache.counters.partial_count("pathloss") >= 1

    def test_disruptive_edit_still_exact(self):
        """A wall crossing everything aborts most replays, never wrongly."""
        scenario, cache, base, edited, deltas = solve_then_edit(
            "multifloor:floors=2,rooms_x=3:0", "add-wall:0,14,48,14,concrete"
        )
        incremental = incremental_resolve(
            scenario, edited, deltas,
            previous=base.architecture, cache=cache,
        )
        cold = cold_resolve(edited)
        assert incremental.feasible == cold.feasible
        if cold.feasible:
            assert incremental.objective_value == cold.objective_value


class TestPrepareCache:
    def test_transplants_and_counts(self):
        scenario, cache, base, edited, deltas = solve_then_edit(
            "campus:buildings_x=2,buildings_y=2:0",
            "add-wall:30,5,30,25,brick",
        )
        info = prepare_cache(scenario, edited, deltas, cache)
        assert info["graph_seeded"] == 1
        assert info["yen_routes_reused"] + info["yen_routes_aborted"] > 0
        assert cache.counters.partial_count() > 0

    def test_requirement_only_edit_seeds_nothing(self):
        scenario, cache, base, edited, deltas = solve_then_edit(
            "campus::0", "set-min-snr:22"
        )
        info = prepare_cache(scenario, edited, deltas, cache)
        assert info == {
            "graph_seeded": 0,
            "yen_routes_reused": 0,
            "yen_routes_aborted": 0,
            "yen_rounds_seeded": 0,
            "reach_seeded": 0,
        }
        # The keys did not change, so the re-solve hits the entries as-is.
        result = edited.explore(cache=cache)
        assert result.feasible
        assert cache.counters.hit_count("yen") > 0

    def test_seeded_rounds_are_hit_not_recomputed(self):
        scenario, cache, base, edited, deltas = solve_then_edit(
            "campus:buildings_x=2,buildings_y=2:0",
            "add-wall:30,5,30,25,brick",
        )
        info = prepare_cache(scenario, edited, deltas, cache)
        hits_before = cache.counters.hit_count("yen")
        result = edited.explore(
            cache=cache, previous=base.architecture,
        )
        assert result.feasible
        gained = cache.counters.hit_count("yen") - hits_before
        assert gained >= info["yen_rounds_seeded"]

    def test_cold_cache_seeds_nothing(self):
        scenario = default_registry().generate("campus::0")
        edits = (parse_edit("add-wall:30,5,30,25,brick"),)
        edited, deltas = apply_edits(scenario, edits)
        info = prepare_cache(scenario, edited, deltas, EncodeCache())
        assert info["graph_seeded"] == 0
        assert info["yen_rounds_seeded"] == 0


class TestTransplantedEntries:
    """Every entry the transplant seeds is what a cold solve stores."""

    @pytest.mark.parametrize("name,edit_text,count", [
        ("campus:buildings_x=2,buildings_y=2:0",
         "add-wall:30,5,30,25,brick", "yen_rounds_seeded"),
        ("moving_target::0", "add-wall:20,2,20,20,concrete", "reach_seeded"),
        pytest.param(
            "campus:buildings_x=2,buildings_y=2:0", WALL_THEN_MOVE,
            "yen_rounds_seeded", id="campus-add-wall-then-move-node",
        ),
    ])
    def test_seeded_entries_equal_cold_entries(
        self, monkeypatch, name, edit_text, count
    ):
        texts = edit_text if isinstance(edit_text, tuple) else (edit_text,)
        scenario, cache, base, edited, deltas = solve_then_edit(name, *texts)
        seeded: dict = {}
        seed = cache.seed

        def recording_seed(region, key, value, stats=None):
            inserted = seed(region, key, value, stats)
            if inserted:
                seeded[key] = value
            return inserted

        monkeypatch.setattr(cache, "seed", recording_seed)
        info = prepare_cache(scenario, edited, deltas, cache)
        assert info[count] > 0

        cold = EncodeCache()
        assert edited.rebuilt().explore(cache=cold).feasible
        for key, value in seeded.items():
            stored = cold.peek(key)
            assert stored is not None, f"a cold solve never stores {key}"
            if isinstance(value, DiGraph):
                assert list(value.edges()) == list(stored.edges())
            else:
                assert value == stored


class TestCertificate:
    """The certificate's inputs equal their dict-based references."""

    @pytest.mark.parametrize("name,edit_text", [
        ("campus:buildings_x=2,buildings_y=2:0", "add-wall:30,5,30,25,brick"),
        ("multifloor:floors=2,rooms_x=3:1", "remove-wall:2"),
    ])
    def test_distances_equal_the_reference_bit_for_bit(
        self, name, edit_text
    ):
        scenario = default_registry().generate(name)
        edited, _ = apply_edits(scenario, (parse_edit(edit_text),))
        graph = build_weighted_graph(edited.template)
        reverse = DiGraph()
        for node in graph.nodes():
            reverse.add_node(node)
        for u, v, w in graph.edges():
            reverse.add_edge(v, u, w)
        replayer = _YenReplayer(graph, "old", "new", {})
        index = replayer.csr.index
        routes = edited.requirements.routes
        for source in {req.source for req in routes}:
            forward = replayer.distances(source)
            reference = shortest_path_tree(graph, source)
            for node in graph.nodes():
                assert forward[index[node]] == reference.get(node, math.inf)
        for sink in {req.dest for req in routes}:
            backward = replayer.distances(sink, reverse=True)
            reference = shortest_path_tree(reverse, sink)
            for node in graph.nodes():
                assert backward[index[node]] == reference.get(node, math.inf)

    @pytest.mark.parametrize("edit_texts", [
        WALL_THEN_MOVE,
        # The second edit takes the first one's wall out again.
        ("add-wall:30,5,30,25,brick", "remove-wall:20"),
    ], ids=["wall-then-move", "wall-then-its-removal"])
    def test_folded_deltas_equal_the_direct_diff(self, edit_texts):
        scenario = default_registry().generate(
            "campus:buildings_x=2,buildings_y=2:0"
        )
        edits = tuple(parse_edit(t) for t in edit_texts)
        edited, deltas = apply_edits(scenario, edits)
        direct = {
            (u, v): (w_old, w_new)
            for u, v, w_old, w_new in _edge_diff(
                scenario.template, edited.template
            )
        }
        assert _changed_edges(deltas) == direct


class TestWarmStart:
    def test_incremental_resolve_defaults_to_fresh_cache(self):
        scenario = default_registry().generate("campus::0")
        edited, deltas = apply_edits(
            scenario, (parse_edit("add-wall:30,5,30,25,brick"),)
        )
        result = incremental_resolve(scenario, edited, deltas)
        cold = cold_resolve(edited)
        assert result.objective_value == cold.objective_value
