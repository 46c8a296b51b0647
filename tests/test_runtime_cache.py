"""Tests for the content-keyed encode cache."""

import math
import threading
import time
from collections import Counter

import pytest

from repro.geometry.primitives import Point
from repro.graph import k_shortest_paths
from repro.network import localization_template, small_grid_template
from repro.network.template import NetworkNode, Template
from repro.runtime import (
    BatchRunner,
    EncodeCache,
    RunStats,
    Trial,
)
from repro.runtime.cache import build_weighted_graph
from repro.telemetry import metrics


class TestGetOrCompute:
    def test_miss_then_hit(self):
        cache = EncodeCache()
        stats = RunStats()
        calls = []
        value = cache.get_or_compute(
            "yen", "k1", lambda: calls.append(1) or 42, stats
        )
        again = cache.get_or_compute("yen", "k1", lambda: 99, stats)
        assert value == again == 42
        assert len(calls) == 1
        assert cache.counters.miss_count("yen") == 1
        assert cache.counters.hit_count("yen") == 1
        assert stats.cache.hit_count() == 1 and stats.cache.miss_count() == 1

    def test_stampede_computes_once_and_waiters_hit(self):
        cache = EncodeCache()
        calls = []
        barrier = threading.Barrier(6)

        def compute():
            calls.append(1)
            time.sleep(0.05)
            return "value"

        results = []

        def worker():
            barrier.wait()
            results.append(cache.get_or_compute("pathloss", "k", compute))

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert results == ["value"] * 6
        assert len(calls) == 1
        assert cache.counters.miss_count("pathloss") == 1
        assert cache.counters.hit_count("pathloss") == 5

    def test_failed_compute_evicts_and_retries(self):
        cache = EncodeCache()
        attempts = []

        def failing():
            attempts.append(1)
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            cache.get_or_compute("yen", "k", failing)
        assert len(cache) == 0
        assert cache.get_or_compute("yen", "k", lambda: "ok") == "ok"
        assert cache.counters.miss_count("yen") == 2

    def test_clear_and_len(self):
        cache = EncodeCache()
        cache.get_or_compute("yen", "a", lambda: 1)
        cache.get_or_compute("yen", "b", lambda: 2)
        assert len(cache) == 2
        cache.clear()
        assert len(cache) == 0


class TestWeightedGraph:
    def test_same_template_shares_one_entry(self):
        instance = small_grid_template(nx=4, ny=3)
        cache = EncodeCache()
        g1, key1 = cache.weighted_graph(instance.template)
        g2, key2 = cache.weighted_graph(instance.template)
        assert g1 is g2 and key1 == key2
        assert cache.counters.hit_count("pathloss") == 1

    def test_content_key_tracks_link_changes(self):
        instance = small_grid_template(nx=4, ny=3)
        cache = EncodeCache()
        _, key_before = cache.weighted_graph(instance.template)
        u, v, pl = next(iter(instance.template.edges()))
        instance.template.set_link(u, v, pl + 7.5)
        graph_after, key_after = cache.weighted_graph(instance.template)
        assert key_after != key_before
        assert graph_after.weight(u, v) == pytest.approx(pl + 7.5)

    def test_key_ignores_link_insertion_order(self):
        template = small_grid_template(nx=4, ny=3).template
        links = list(template.edges())
        shuffled = Template(template.nodes, template.link_type)
        shuffled.add_links(links[::2][::-1] + links[1::2])
        assert list(shuffled.edges()) != links
        assert EncodeCache.template_graph_key(
            shuffled
        ) == EncodeCache.template_graph_key(template)

    def test_key_changes_with_one_ulp_of_weight(self):
        template = small_grid_template(nx=4, ny=3).template
        before = EncodeCache.template_graph_key(template)
        u, v, pl = list(template.edges())[5]
        template.set_link(u, v, math.nextafter(pl, math.inf))
        assert EncodeCache.template_graph_key(template) != before

    def test_key_changes_when_a_link_goes(self):
        template = small_grid_template(nx=4, ny=3).template
        links = list(template.edges())
        fewer = Template(template.nodes, template.link_type)
        fewer.add_links(links[:7] + links[8:])
        assert EncodeCache.template_graph_key(
            fewer
        ) != EncodeCache.template_graph_key(template)

    def test_key_changes_when_a_weight_moves_to_another_link(self):
        nodes = small_grid_template(nx=4, ny=3).template.nodes
        first, second = Template(nodes), Template(nodes)
        first.set_link(0, 1, 60.0)
        second.set_link(0, 2, 60.0)
        assert EncodeCache.template_graph_key(
            first
        ) != EncodeCache.template_graph_key(second)

    def test_key_changes_with_one_more_node(self):
        template = small_grid_template(nx=4, ny=3).template
        extra = NetworkNode(
            template.node_count, Point(0.5, 0.5), "relay", fixed=False
        )
        larger = Template([*template.nodes, extra], template.link_type)
        larger.add_links(list(template.edges()))
        assert larger.edge_count == template.edge_count
        assert EncodeCache.template_graph_key(
            larger
        ) != EncodeCache.template_graph_key(template)

    def test_matches_uncached_builder(self):
        instance = small_grid_template(nx=3, ny=3)
        cached, _ = EncodeCache().weighted_graph(instance.template)
        direct = build_weighted_graph(instance.template)
        assert sorted(cached.edges()) == sorted(direct.edges())


class TestYenPaths:
    def test_equivalent_to_direct_call_and_cached(self):
        instance = small_grid_template(nx=4, ny=3)
        cache = EncodeCache()
        graph, key = cache.weighted_graph(instance.template)
        source = instance.sensor_ids[0]
        paths = cache.yen_paths(key, graph, source, instance.sink_id, 3)
        direct = k_shortest_paths(graph, source, instance.sink_id, 3)
        assert paths == direct
        again = cache.yen_paths(key, graph, source, instance.sink_id, 3)
        assert again is paths
        assert cache.counters.hit_count("yen") == 1

    def test_masked_edges_get_their_own_entry(self):
        instance = small_grid_template(nx=4, ny=3)
        cache = EncodeCache()
        graph, key = cache.weighted_graph(instance.template)
        source = instance.sensor_ids[0]
        baseline = cache.yen_paths(key, graph, source, instance.sink_id, 2)
        masked = graph.copy()
        first_hop = baseline[0][0]
        masked.mask_edge(first_hop[0], first_hop[1])
        rerouted = cache.yen_paths(key, masked, source, instance.sink_id, 2)
        assert rerouted != baseline
        assert cache.counters.miss_count("yen") == 2


class TestReachRankings:
    def test_rankings_match_inline_computation(self):
        instance = localization_template(
            n_anchor_candidates=12, n_test_points=5
        )
        anchors = instance.template.anchors
        cache = EncodeCache()
        rankings = cache.reach_rankings(
            instance.channel, anchors, instance.test_points
        )
        inline = [
            sorted(
                (instance.channel.path_loss_db(a.location, p), a.id)
                for a in anchors
            )
            for p in instance.test_points
        ]
        assert rankings == inline
        cache.reach_rankings(instance.channel, anchors, instance.test_points)
        assert cache.counters.hit_count("pathloss") == 1


class TestPerTrialAttribution:
    """Concurrent trials sharing one cache: per-trial stats must add up
    exactly to the shared counters — no lookup lost, none double-counted."""

    def test_threaded_trials_attribute_every_lookup(self, monkeypatch):
        n_trials, keys = 4, [f"k{i}" for i in range(8)]
        cache = EncodeCache()
        barrier = threading.Barrier(n_trials)

        def trial(stats):
            # All trials release together so the shared keys contend.
            barrier.wait(timeout=10.0)
            for key in keys:
                cache.get_or_compute(
                    "yen", key, lambda key=key: key.upper(), stats
                )
            return stats

        per_trial = [RunStats() for _ in range(n_trials)]
        # A retried trial would count its lookups twice.
        monkeypatch.setattr("repro.runtime.batch.RETRIES", 0)
        runner = BatchRunner(workers=n_trials)
        outcomes = runner.run([Trial(trial, (s,)) for s in per_trial])
        assert all(o.ok for o in outcomes)

        # Stampede protection makes the split deterministic: each key is
        # computed exactly once, every other lookup scores a hit.
        total = n_trials * len(keys)
        assert cache.counters.miss_count("yen") == len(keys)
        assert cache.counters.hit_count("yen") == total - len(keys)

        summed: dict[str, Counter] = {}
        for stats in per_trial:
            for table, counts in stats.cache.to_dict().items():
                summed.setdefault(table, Counter()).update(counts)
        assert {
            table: dict(counts) for table, counts in summed.items()
        } == cache.counters.to_dict()
        assert sum(
            s.cache.hit_count("yen") + s.cache.miss_count("yen")
            for s in per_trial
        ) == total


class TestFailedComputeRecovery:
    """A failed compute must leave the key retryable as a fresh miss."""

    def test_concurrent_waiters_recover_after_failure(self):
        cache = EncodeCache()
        release = threading.Event()
        outcomes = []

        def failing():
            release.wait(5.0)
            raise RuntimeError("first computer dies")

        def first():
            try:
                cache.get_or_compute("yen", "shared", failing)
            except RuntimeError as exc:
                outcomes.append(("error", str(exc)))

        def waiter():
            # Blocks on the in-flight marker; once the first computer
            # fails, retries the compute itself and succeeds.
            outcomes.append(("ok", cache.get_or_compute(
                "yen", "shared", lambda: "recovered"
            )))

        t1 = threading.Thread(target=first)
        t1.start()
        time.sleep(0.05)  # let the first computer claim the marker
        t2 = threading.Thread(target=waiter)
        t2.start()
        time.sleep(0.05)  # let the waiter block on the marker
        release.set()
        t1.join()
        t2.join()
        assert ("ok", "recovered") in outcomes
        assert ("error", "first computer dies") in outcomes
        assert cache.get_or_compute("yen", "shared", lambda: "x") == "recovered"

    def test_injected_compute_fault_keeps_key_retryable(self):
        from repro.resilience import injected_faults
        from repro.resilience.faults import InjectedFault

        cache = EncodeCache()
        with injected_faults({"cache.compute": 1}):
            with pytest.raises(InjectedFault):
                cache.get_or_compute("yen", "k", lambda: "never")
            assert len(cache) == 0
            # Same key, next request: fresh miss, computes normally.
            assert cache.get_or_compute("yen", "k", lambda: "ok") == "ok"
        assert cache.counters.miss_count("yen") == 2

    def test_failure_does_not_poison_other_keys(self):
        cache = EncodeCache()
        with pytest.raises(ValueError):
            cache.get_or_compute("yen", "bad", lambda: (_ for _ in ()).throw(
                ValueError("boom")
            ))
        assert cache.get_or_compute("yen", "good", lambda: 7) == 7
        assert len(cache) == 1


class TestSeedAndPeek:
    """The incremental-transplant surface: non-clobbering, non-counting."""

    def test_seed_inserts_and_counts_partial_reuse(self):
        cache = EncodeCache()
        stats = RunStats()
        assert cache.seed("yen", "k1", [1, 2, 3], stats)
        assert cache.counters.partial_count("yen") == 1
        assert stats.cache.partial_count("yen") == 1
        # The later consuming lookup scores the hit, not the seed.
        assert cache.counters.hit_count("yen") == 0
        assert cache.get_or_compute("yen", "k1", lambda: "never") == [1, 2, 3]
        assert cache.counters.hit_count("yen") == 1

    def test_seed_never_clobbers_existing_entries(self):
        cache = EncodeCache()
        cache.get_or_compute("yen", "k1", lambda: "fresh")
        assert not cache.seed("yen", "k1", "stale")
        assert cache.counters.partial_count("yen") == 0
        assert cache.peek("k1") == "fresh"

    def test_peek_reads_without_counting(self):
        cache = EncodeCache()
        assert cache.peek("absent") is None
        cache.get_or_compute("pathloss", "k", lambda: 42)
        before = cache.counters.to_dict()
        assert cache.peek("k") == 42
        assert cache.counters.to_dict() == before

    def test_registry_counts_each_lookup_and_seed_once(self):
        """A lookup or seed attributed to a trial's stats still counts
        once in the metrics registry, not once per counter set."""
        cache = EncodeCache()
        stats = RunStats()
        cache.get_or_compute("yen", "k1", lambda: 42, stats)
        cache.get_or_compute("yen", "k1", lambda: 99, stats)
        assert cache.seed("yen", "k2", [1], stats)
        lookups = {
            result: metrics.counter(
                "cache.lookups", region="yen", result=result
            ).value
            for result in ("miss", "hit")
        }
        assert lookups == {"miss": 1, "hit": 1}
        assert metrics.counter("cache.partial_reuse", region="yen").value == 1
