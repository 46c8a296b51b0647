"""Failure-pattern generators: determinism, stable ids, containment.

The properties a checkpoint/telemetry consumer relies on: generation is
a pure function of (template, spec) — same seed, same patterns; pattern
ids are content-addressed and order-independent; and no generator ever
invents an element the template does not contain.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import small_grid_template, synthetic_template
from repro.failures import (
    DEFAULT_MAX_PATTERNS,
    FailurePattern,
    FailuresSpec,
    generate_patterns,
    k_link_patterns,
    k_node_patterns,
    parse_failures_spec,
    patterns_fingerprint,
    quadrant_regions,
    region_outage_patterns,
    wall_outage_patterns,
)
from repro.geometry.floorplan import FloorPlan, Wall
from repro.geometry.primitives import Point, Rectangle, Segment

GRID = small_grid_template(nx=4, ny=3, spacing=8.0)

FAST = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def walled_plan():
    """A vertical brick wall between grid columns x=16 and x=24."""
    return FloorPlan(
        bounds=Rectangle(0.0, 0.0, 40.0, 32.0),
        walls=[Wall(Segment(Point(20.0, 4.0), Point(20.0, 20.0)),
                    "brick", 10.0)],
        name="walled-grid",
    )


class TestPatternIds:
    def test_id_is_content_addressed(self):
        a = FailurePattern("node1", "a-label", nodes=frozenset({5}))
        b = FailurePattern("node1", "another-label", nodes=frozenset({5}))
        assert a.pattern_id == b.pattern_id
        assert a.pattern_id.startswith("node1-")

    def test_id_distinguishes_families_and_elements(self):
        node = FailurePattern("node1", "5", nodes=frozenset({5}))
        link = FailurePattern("link1", "4-5",
                              links=frozenset({(4, 5), (5, 4)}))
        other = FailurePattern("node1", "6", nodes=frozenset({6}))
        assert len({node.pattern_id, link.pattern_id,
                    other.pattern_id}) == 3

    def test_empty_pattern_rejected(self):
        with pytest.raises(ValueError):
            FailurePattern("node1", "nothing")

    def test_kills_route(self):
        pattern = FailurePattern(
            "mixed", "m", nodes=frozenset({9}),
            links=frozenset({(0, 3)}),
        )
        assert pattern.kills_route((5, 9, 7))        # node loss
        assert pattern.kills_route((0, 3, 7))        # directed link loss
        assert not pattern.kills_route((3, 0, 7))    # other direction
        assert not pattern.kills_route((0, 4, 7))

    def test_fingerprint_is_order_independent(self):
        patterns = k_link_patterns(GRID.template, 1)
        shuffled = list(patterns)
        random.Random(3).shuffle(shuffled)
        assert patterns_fingerprint(shuffled) == \
            patterns_fingerprint(patterns)
        assert patterns_fingerprint(patterns) != \
            patterns_fingerprint(patterns[1:])


class TestGeneratorProperties:
    @FAST
    @given(seed=st.integers(0, 500), k=st.integers(1, 2),
           cap=st.integers(1, 40))
    def test_seed_determinism(self, seed, k, cap):
        first = k_link_patterns(GRID.template, k, seed=seed,
                                max_patterns=cap)
        again = k_link_patterns(GRID.template, k, seed=seed,
                                max_patterns=cap)
        assert [p.pattern_id for p in first] == \
            [p.pattern_id for p in again]
        assert len(first) <= cap

    @FAST
    @given(seed=st.integers(0, 10), k=st.integers(1, 2))
    def test_elements_come_from_the_template(self, seed, k):
        instance = synthetic_template(18, 5, seed=seed)
        template = instance.template
        optional = {n.id for n in template.nodes if not n.fixed}
        edges = {(u, v) for u, v, _ in template.edges()}
        for pattern in k_node_patterns(template, k, seed=seed):
            assert pattern.nodes <= optional
        for pattern in k_link_patterns(template, k, seed=seed,
                                       max_patterns=64):
            assert pattern.links <= edges

    def test_sampling_is_a_subset_of_full_enumeration(self):
        full = {p.pattern_id
                for p in k_link_patterns(GRID.template, 2,
                                         max_patterns=None)}
        sampled = k_link_patterns(GRID.template, 2, seed=7,
                                  max_patterns=9)
        assert len(sampled) == 9
        assert {p.pattern_id for p in sampled} <= full

    def test_node_patterns_skip_fixed_and_excluded(self):
        fixed = {n.id for n in GRID.template.nodes if n.fixed}
        for pattern in k_node_patterns(GRID.template, 1, exclude=(5,)):
            assert not pattern.nodes & fixed
            assert 5 not in pattern.nodes

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            k_link_patterns(GRID.template, 0)
        with pytest.raises(ValueError):
            k_node_patterns(GRID.template, 0)


class TestGeometricFamilies:
    def test_wall_outage_kills_every_crossing_link(self):
        plan = walled_plan()
        patterns = wall_outage_patterns(GRID.template, plan)
        assert len(patterns) == 1
        (pattern,) = patterns
        assert pattern.family == "wall"
        wall = plan.walls[0].segment
        for u, v in pattern.links:
            link = Segment(GRID.template.node(u).location,
                           GRID.template.node(v).location)
            assert wall.intersects(link)
        # The straight-through route 0 -> 7 crosses the wall.
        assert pattern.kills_route((0, 7))

    def test_quadrants_tile_the_bounds(self):
        plan = walled_plan()
        quads = quadrant_regions(plan)
        assert len(quads) == 4
        for node in GRID.template.nodes:
            assert any(q.contains(node.location) for q in quads)

    def test_region_outages_only_fail_optional_nodes(self):
        patterns = region_outage_patterns(
            GRID.template, plan=walled_plan()
        )
        assert patterns
        fixed = {n.id for n in GRID.template.nodes if n.fixed}
        for pattern in patterns:
            assert pattern.family == "region"
            assert not pattern.nodes & fixed

    def test_regions_need_a_plan_or_rectangles(self):
        with pytest.raises(ValueError, match="floor plan"):
            region_outage_patterns(GRID.template)


class TestSpecGrammar:
    @FAST
    @given(
        k_link=st.none() | st.integers(1, 3),
        k_node=st.none() | st.integers(1, 3),
        walls=st.booleans(),
        regions=st.booleans(),
        seed=st.integers(0, 9),
        max_patterns=st.integers(1, 600),
        rounds=st.integers(1, 9),
        worst=st.integers(1, 9),
    )
    def test_describe_round_trips(self, k_link, k_node, walls, regions,
                                  seed, max_patterns, rounds, worst):
        spec = FailuresSpec(
            k_link=k_link, k_node=k_node, walls=walls, regions=regions,
            seed=seed, max_patterns=max_patterns, rounds=rounds,
            worst=worst,
        )
        if (k_link is None and k_node is None
                and not walls and not regions):
            return  # no family: describe() has nothing to round-trip
        assert parse_failures_spec(spec.describe()) == spec

    def test_parse_defaults(self):
        spec = parse_failures_spec("k-link:1")
        assert spec.k_link == 1 and spec.k_node is None
        assert spec.max_patterns == DEFAULT_MAX_PATTERNS
        assert spec.rounds == 4 and spec.worst == 3

    @pytest.mark.parametrize("bad", [
        "jitter:1",          # unknown term
        "k-link:zero",       # non-integer count
        "k-link:0",          # non-positive count
        "walls:2",           # flag with an argument
        "seed:4",            # no family at all
        "",                  # empty spec
    ])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_failures_spec(bad)

    @pytest.mark.parametrize("count", [
        {"rounds": 0}, {"worst": 0}, {"max_patterns": 0},
        {"k_node": 0}, {"seed": -1},
    ], ids=["rounds", "worst", "max", "k-node", "seed"])
    def test_spec_built_in_python_checks_its_counts(self, count):
        """The parser's count rules hold for a spec built directly, as
        ``SolveOptions(failures=FailuresSpec(...))`` takes one."""
        with pytest.raises(ValueError, match="must be at least"):
            FailuresSpec(k_link=1, **count)

    def test_generate_patterns_deduplicates(self):
        patterns = generate_patterns("k-link:1,k-node:1", GRID.template)
        ids = [p.pattern_id for p in patterns]
        assert len(ids) == len(set(ids))
        families = {p.family for p in patterns}
        assert families == {"link1", "node1"}

    def test_generate_requires_plan_for_geometry(self):
        with pytest.raises(ValueError, match="floor plan"):
            generate_patterns("walls", GRID.template)
        assert generate_patterns("walls", GRID.template, walled_plan())
