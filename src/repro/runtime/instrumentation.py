"""Per-run instrumentation: cache counters.

Every exploration trial carries a :class:`RunStats` — per-region
:class:`EncodeCache <repro.runtime.cache.EncodeCache>` hit/miss counts —
threaded from the encoders up into
:attr:`repro.core.results.SynthesisResult.run_stats` and emitted as
structured JSON by the CLI (``--stats-json``).

The counters are cheap plain dicts; a trial owns its ``RunStats`` while
the cache itself is shared, so per-trial attribution works even when many
trials run concurrently on one cache.  Cache lookups and seeds are
counted into the :mod:`repro.telemetry` metrics registry once, by the
:class:`~repro.runtime.cache.EncodeCache` that serves them, not by each
:class:`CacheCounters` that attributes them.

Time is not kept here: the :mod:`repro.telemetry` spans time every layer
(``explorer.build``, ``analysis``, ``solver.solve``, ...), and a result's
``encode_seconds``/``solve_seconds`` carry the paper's split.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Version of the ``--stats-json`` payload (bumped when keys change).
#: v1: implicit, unversioned.  v2: adds ``schema_version``.  v3: drops
#: the per-phase timings.
STATS_SCHEMA_VERSION = 3


@dataclass
class CacheCounters:
    """Hit/miss counts per cache region (``pathloss``, ``yen``, ...).

    ``partial_reuse`` counts entries *seeded* into the cache by the
    incremental re-solve layer (:mod:`repro.scenarios.incremental`):
    values derived from a prior problem's cached artifacts instead of
    being recomputed from scratch.  A seeded entry is neither a hit nor
    a miss — the later lookup that consumes it scores the hit — but the
    counter makes region-by-region incremental reuse observable and
    assertable in tests.
    """

    hits: dict[str, int] = field(default_factory=dict)
    misses: dict[str, int] = field(default_factory=dict)
    partial_reuse: dict[str, int] = field(default_factory=dict)

    def record(self, region: str, hit: bool) -> None:
        """Count one lookup against ``region``."""
        table = self.hits if hit else self.misses
        table[region] = table.get(region, 0) + 1

    def record_partial(self, region: str) -> None:
        """Count one incrementally reused (seeded) entry for ``region``."""
        self.partial_reuse[region] = self.partial_reuse.get(region, 0) + 1

    def hit_count(self, region: str | None = None) -> int:
        """Total hits, optionally restricted to one region."""
        if region is not None:
            return self.hits.get(region, 0)
        return sum(self.hits.values())

    def miss_count(self, region: str | None = None) -> int:
        """Total misses, optionally restricted to one region."""
        if region is not None:
            return self.misses.get(region, 0)
        return sum(self.misses.values())

    def partial_count(self, region: str | None = None) -> int:
        """Total seeded reuses, optionally restricted to one region."""
        if region is not None:
            return self.partial_reuse.get(region, 0)
        return sum(self.partial_reuse.values())

    def to_dict(self) -> dict:
        """JSON-ready representation."""
        return {
            "hits": dict(self.hits),
            "misses": dict(self.misses),
            "partial_reuse": dict(self.partial_reuse),
        }


@dataclass
class RunStats:
    """One trial's instrumentation: its cache counters.

    Mutated from one trial's thread only; the shared object guarded by a
    lock is the cache, not this.
    """

    cache: CacheCounters = field(default_factory=CacheCounters)

    def to_dict(self) -> dict:
        """JSON-ready representation."""
        return {"cache": self.cache.to_dict()}
