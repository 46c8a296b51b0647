"""Tests for the process-wide metrics registry."""

import threading

import pytest

from repro.telemetry.metrics import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    counter,
    gauge,
    get_registry,
    histogram,
)


@pytest.fixture()
def registry():
    return MetricsRegistry()


class TestCounter:
    def test_inc_and_value(self, registry):
        c = registry.counter("hits", region="yen")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_rejects_negative(self, registry):
        with pytest.raises(ValueError, match="gauge"):
            registry.counter("hits").inc(-1)

    def test_identity_is_name_plus_labels(self, registry):
        a = registry.counter("lookups", region="yen", result="hit")
        b = registry.counter("lookups", result="hit", region="yen")
        c = registry.counter("lookups", region="yen", result="miss")
        assert a is b  # label order does not matter
        assert a is not c

    def test_kind_mismatch_raises(self, registry):
        registry.counter("seconds")
        with pytest.raises(TypeError, match="already registered"):
            registry.gauge("seconds")


class TestGauge:
    def test_set_inc_dec(self, registry):
        g = registry.gauge("pool.size")
        g.set(10)
        g.inc(5)
        g.dec(2)
        assert g.value == 13.0


class TestHistogram:
    def test_observations_land_in_le_buckets(self, registry):
        h = registry.histogram("lat", buckets=(0.1, 1.0, 10.0))
        for v in (0.05, 0.1, 0.5, 5.0, 50.0):
            h.observe(v)
        snap = h.snapshot()
        # le is inclusive: 0.1 counts into the 0.1 bucket.
        assert snap["buckets"]["0.1"] == 2
        assert snap["buckets"]["1.0"] == 3
        assert snap["buckets"]["10.0"] == 4
        assert snap["buckets"]["+Inf"] == 5
        assert snap["count"] == 5
        assert snap["sum"] == pytest.approx(55.65)

    def test_default_buckets(self, registry):
        h = registry.histogram("kstar.rung_seconds")
        assert h.buckets == tuple(sorted(DEFAULT_BUCKETS))

    def test_buckets_fixed_after_creation(self, registry):
        a = registry.histogram("d", buckets=(1.0, 2.0))
        b = registry.histogram("d", buckets=(5.0,))
        assert b is a
        assert b.buckets == (1.0, 2.0)

    def test_empty_buckets_rejected(self, registry):
        with pytest.raises(ValueError):
            registry.histogram("bad", buckets=())


class TestRegistry:
    def test_snapshot_groups_series_by_name(self, registry):
        registry.counter("cache.lookups", result="hit").inc(3)
        registry.counter("cache.lookups", result="miss").inc()
        registry.gauge("rung").set(4)
        snap = registry.snapshot()
        assert snap["cache.lookups"]["kind"] == "counter"
        assert len(snap["cache.lookups"]["series"]) == 2
        assert snap["rung"]["series"][0]["value"] == 4.0

    def test_instruments_sorted(self, registry):
        registry.counter("b")
        registry.counter("a", x="2")
        registry.counter("a", x="1")
        names = [(i.name, i.labels) for i in registry.instruments()]
        assert names == [("a", {"x": "1"}), ("a", {"x": "2"}), ("b", {})]

    def test_reset_drops_everything(self, registry):
        registry.counter("gone").inc()
        registry.reset()
        assert registry.instruments() == []
        assert registry.counter("gone").value == 0.0

    def test_concurrent_increments_lose_nothing(self, registry):
        c = registry.counter("contended")
        h = registry.histogram("contended.hist", buckets=(1.0,))

        def hammer():
            for _ in range(1000):
                c.inc()
                h.observe(0.5)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 8000.0
        assert h.count == 8000

    def test_concurrent_creation_yields_one_instrument(self, registry):
        seen = []
        barrier = threading.Barrier(8)

        def create():
            barrier.wait()
            seen.append(registry.counter("raced", k="v"))

        threads = [threading.Thread(target=create) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len({id(c) for c in seen}) == 1


class TestModuleShorthands:
    def test_shorthands_hit_default_registry(self):
        counter("mod.counter").inc()
        gauge("mod.gauge").set(2)
        histogram("mod.hist").observe(0.01)
        snap = get_registry().snapshot()
        assert {"mod.counter", "mod.gauge", "mod.hist"} <= set(snap)
