"""Per-run instrumentation: phase timings and cache counters.

Every exploration trial carries a :class:`RunStats` — wall-clock seconds
per pipeline phase (``analyze``, ``pathloss``, ``yen``, ``encode``,
``solve``) plus
per-region :class:`EncodeCache <repro.runtime.cache.EncodeCache>` hit/miss
counts — threaded from the encoders up into
:attr:`repro.core.results.SynthesisResult.run_stats` and emitted as
structured JSON by the CLI (``--stats-json``).

The counters are cheap plain dicts; a trial owns its ``RunStats`` while
the cache itself is shared, so per-trial attribution works even when many
trials run concurrently on one cache.

Since the :mod:`repro.telemetry` subsystem landed, ``RunStats`` is a thin
compatibility shim over the process-wide metrics registry: every phase
timing recorded here is mirrored into :mod:`repro.telemetry.metrics`
(``phase.seconds`` histograms), so ``--metrics`` exports aggregate across
all trials while the per-trial dicts — and the ``--stats-json`` payload
built from them — stay exactly as before.  Cache lookups and seeds are
counted into the registry once, by the
:class:`~repro.runtime.cache.EncodeCache` that serves them, not by each
:class:`CacheCounters` that attributes them.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from collections.abc import Iterator

from repro.telemetry import metrics as _metrics

#: Canonical phase names, in pipeline order (other names are allowed).
PHASES = ("analyze", "pathloss", "yen", "encode", "solve")

#: Version of the ``--stats-json`` payload (bumped when keys change).
#: v1: implicit/unversioned (PR 1-4).  v2: adds ``schema_version``.
STATS_SCHEMA_VERSION = 2


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

    def merge(self, other: CacheCounters) -> None:
        """Fold another counter set into this one."""
        for region, n in other.hits.items():
            self.hits[region] = self.hits.get(region, 0) + n
        for region, n in other.misses.items():
            self.misses[region] = self.misses.get(region, 0) + n
        for region, n in other.partial_reuse.items():
            self.partial_reuse[region] = self.partial_reuse.get(region, 0) + n

    def to_dict(self) -> dict:
        """JSON-ready representation."""
        return {
            "hits": dict(self.hits),
            "misses": dict(self.misses),
            "partial_reuse": dict(self.partial_reuse),
        }


@dataclass
class PhaseTimings:
    """Accumulated wall-clock seconds per pipeline phase."""

    seconds: dict[str, float] = field(default_factory=dict)

    def add(self, phase: str, elapsed: float) -> None:
        """Accumulate ``elapsed`` seconds against ``phase`` (mirrored)."""
        self.seconds[phase] = self.seconds.get(phase, 0.0) + elapsed
        _metrics.histogram("phase.seconds", phase=phase).observe(elapsed)

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Time a ``with`` block against ``name``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, time.perf_counter() - start)

    def get(self, phase: str) -> float:
        """Seconds recorded against ``phase`` (0.0 when never timed)."""
        return self.seconds.get(phase, 0.0)

    def merge(self, other: PhaseTimings) -> None:
        """Fold another timing set into this one.

        Bypasses :meth:`add` so already-mirrored observations are not
        double-counted in the metrics registry.
        """
        for phase, elapsed in other.seconds.items():
            self.seconds[phase] = self.seconds.get(phase, 0.0) + elapsed

    def to_dict(self) -> dict:
        """JSON-ready representation."""
        return {phase: round(s, 6) for phase, s in self.seconds.items()}


@dataclass
class RunStats:
    """One trial's instrumentation: timings plus cache counters.

    Mutated from one trial's thread only; the shared object guarded by a
    lock is the cache, not this.
    """

    timings: PhaseTimings = field(default_factory=PhaseTimings)
    cache: CacheCounters = field(default_factory=CacheCounters)

    def merge(self, other: RunStats) -> None:
        """Fold another trial's stats into this one (for aggregates)."""
        self.timings.merge(other.timings)
        self.cache.merge(other.cache)

    def to_dict(self) -> dict:
        """JSON-ready representation."""
        return {
            "phase_seconds": self.timings.to_dict(),
            "cache": self.cache.to_dict(),
        }


class _NullTimings:
    """No-op stand-in so instrumented code never branches on ``None``."""

    def add(self, phase: str, elapsed: float) -> None:
        pass

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        yield


_NULL_TIMINGS = _NullTimings()


def timings_of(stats: RunStats | None):
    """The stats' timing sink, or a no-op sink when stats is ``None``."""
    return stats.timings if stats is not None else _NULL_TIMINGS
