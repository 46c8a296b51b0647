"""Content-keyed memoization of encode-time work.

The expensive, *repeated* parts of encoding an exploration problem are

* the path-loss-weighted candidate graph derived from a template (one
  channel-model evaluation per candidate link),
* Yen candidate-path queries — per (weights, source, dest, K, masked-edge
  set) — which Algorithm 1 re-issues for every route requirement on every
  ladder rung and every Pareto point, and
* the per-test-point anchor rankings of the localization constraints (one
  channel evaluation per anchor x test point).

An :class:`EncodeCache` memoizes all three under content-derived keys, so
K* ladder rungs, epsilon-constraint sweep points and repeated facade calls
reuse encode work instead of recomputing it.  The cache is thread-safe and
stampede-protected: when several trials request the same key concurrently,
exactly one computes while the rest block and then score a hit — which
also makes hit accounting deterministic under parallel execution.

Cached values are shared objects and must be treated as immutable;
callers that need to mutate (e.g. mask edges for Yen rounds) copy first.
"""

from __future__ import annotations

import hashlib
import itertools
import threading
from dataclasses import is_dataclass
from collections.abc import Callable, Hashable, Iterable, Sequence
from typing import Any

import numpy as np

from repro.graph.digraph import DiGraph
from repro.graph.kernels import csr_k_shortest_paths
from repro.resilience.faults import maybe_fire
from repro.runtime.instrumentation import CacheCounters, RunStats
from repro.telemetry import metrics
from repro.telemetry.trace import span

#: Cache regions, used for counter attribution.
REGION_PATHLOSS = "pathloss"
REGION_YEN = "yen"


def digest(*parts: Any) -> str:
    """A short stable content digest of ``parts`` (via their reprs)."""
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        h.update(repr(part).encode())
        h.update(b"\x00")
    return h.hexdigest()


def channel_key(channel: Any) -> str:
    """A content key for a channel model.

    Prefers an explicit ``cache_key()`` hook, then the auto-generated
    ``repr`` of dataclass models (content-complete for the built-in
    models); falls back to object identity for opaque channels, which is
    always safe — at worst it forfeits sharing.
    """
    hook = getattr(channel, "cache_key", None)
    if callable(hook):
        return str(hook())
    if is_dataclass(channel):
        return digest(type(channel).__qualname__, repr(channel))
    return f"{type(channel).__module__}.{type(channel).__qualname__}@{id(channel)}"


class _InFlight:
    """Marker for a key whose value is being computed by another thread."""

    __slots__ = ("event",)

    def __init__(self) -> None:
        self.event = threading.Event()


class EncodeCache:
    """Thread-safe, content-keyed store for encode-phase artifacts.

    One instance is typically shared across all trials of a sweep (the
    K* ladder, a Pareto front, a ``repro.explore`` call).  ``counters``
    aggregates hits/misses across every user; per-trial attribution goes
    through the ``stats`` argument of the lookup methods.  Each lookup
    and each seed also counts once in the process-wide metrics registry
    (``cache.lookups``, ``cache.partial_reuse``), however many counter
    sets attribute it.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: dict[Hashable, Any] = {}
        self.counters = CacheCounters()

    # -- generic lookup -----------------------------------------------------

    def get_or_compute(
        self,
        region: str,
        key: Hashable,
        compute: Callable[[], Any],
        stats: RunStats | None = None,
    ) -> Any:
        """Return the cached value for ``key``, computing it at most once.

        Concurrent requests for the same key block on the first computer
        and count as hits (the work *was* reused).  A failed compute
        removes the in-flight marker so the next request retries.
        """
        while True:
            waiter = None
            with self._lock:
                entry = self._entries.get(key, _MISSING)
                if entry is _MISSING:
                    marker = _InFlight()
                    self._entries[key] = marker
                    break
                if isinstance(entry, _InFlight):
                    waiter = entry
            if waiter is None:
                # Recording happens outside the lock: _record re-acquires it.
                self._record(region, True, stats)
                return entry
            waiter.event.wait()
            # Loop: the value is now present (hit) or was evicted after a
            # failed compute (retry as a fresh miss).

        self._record(region, False, stats)
        try:
            # Fault site "cache.compute": an injected failure takes the
            # same cleanup path as a real one — the in-flight marker is
            # evicted so the key stays retryable as a fresh miss.
            # Only misses get a span: hits are far too hot to trace
            # individually (they are counted in the metrics registry).
            with span("cache.compute", region=region):
                maybe_fire("cache.compute")
                value = compute()
        except BaseException:
            with self._lock:
                self._entries.pop(key, None)
            marker.event.set()
            raise
        with self._lock:
            self._entries[key] = value
        marker.event.set()
        return value

    def seed(
        self,
        region: str,
        key: Hashable,
        value: Any,
        stats: RunStats | None = None,
    ) -> bool:
        """Insert a precomputed ``value`` for ``key`` without computing.

        Used by the incremental re-solve layer to transplant artifacts
        that were derived from a prior problem's cache instead of being
        recomputed.  Counts one ``partial_reuse`` for ``region`` and
        returns ``True`` when the entry was inserted; an existing value
        or in-flight compute wins (returns ``False``, no count) so a
        seed can never clobber or race fresher work.
        """
        with self._lock:
            if key in self._entries:
                return False
            self._entries[key] = value
            self.counters.record_partial(region)
        if stats is not None:
            stats.cache.record_partial(region)
        metrics.counter("cache.partial_reuse", region=region).inc()
        return True

    def peek(self, key: Hashable) -> Any:
        """The cached value for ``key``, or ``None`` — without counting.

        In-flight computes read as absent; this never blocks.
        """
        with self._lock:
            entry = self._entries.get(key, _MISSING)
        if entry is _MISSING or isinstance(entry, _InFlight):
            return None
        return entry

    def _record(self, region: str, hit: bool, stats: RunStats | None) -> None:
        with self._lock:
            self.counters.record(region, hit)
        if stats is not None:
            stats.cache.record(region, hit)
        metrics.counter(
            "cache.lookups", region=region, result="hit" if hit else "miss"
        ).inc()

    def __len__(self) -> int:
        with self._lock:
            return sum(
                1 for v in self._entries.values()
                if not isinstance(v, _InFlight)
            )

    def clear(self) -> None:
        """Drop every cached value (in-flight computes are unaffected)."""
        with self._lock:
            self._entries = {
                k: v for k, v in self._entries.items()
                if isinstance(v, _InFlight)
            }

    def summary(self) -> dict:
        """JSON-ready aggregate counters plus the entry count."""
        with self._lock:
            counters = self.counters.to_dict()
            size = sum(
                1 for v in self._entries.values()
                if not isinstance(v, _InFlight)
            )
        return {"entries": size, **counters}

    # -- content keys --------------------------------------------------------

    @staticmethod
    def template_graph_key(template) -> str:
        """Content key of a template's path-loss-weighted graph.

        A blake2b digest of the node count, the ``(u, v)`` link pairs
        sorted lexicographically and their float64 weights: insertion
        order does not matter, every weight bit does.
        """
        links = template.links
        n = len(links)
        pairs = np.fromiter(
            itertools.chain.from_iterable(links), dtype=np.int64, count=2 * n
        ).reshape(n, 2)
        weights = np.fromiter(links.values(), dtype=np.float64, count=n)
        order = np.lexsort((pairs[:, 1], pairs[:, 0]))
        h = hashlib.blake2b(digest_size=16)
        h.update(b"weighted-graph\x00")
        h.update(np.int64(template.node_count).tobytes())
        h.update(pairs[order].tobytes())
        h.update(weights[order].tobytes())
        return h.hexdigest()

    @staticmethod
    def yen_key(
        graph_key: str,
        graph: DiGraph,
        source: Hashable,
        target: Hashable,
        k: int,
    ) -> str:
        """Content key of a Yen query: weights, route, K and masks.

        ``graph_key`` must identify the *unmasked* content of ``graph``;
        the current masked-edge set is folded in here, so every
        disconnection round of Algorithm 1 gets its own key.
        """
        masks = tuple(sorted(graph.masked_edges))
        return digest("yen", graph_key, source, target, k, masks)

    @staticmethod
    def reach_key(channel, anchors: Sequence, test_points: Iterable) -> str:
        """Content key of the anchor rankings over ``test_points``."""
        anchor_keys = [(a.id, a.location) for a in anchors]
        points = tuple(test_points)
        return digest("reach", channel_key(channel), anchor_keys, points)

    # -- path-loss weighted graphs ------------------------------------------

    def weighted_graph(
        self, template, stats: RunStats | None = None
    ) -> tuple[DiGraph, str]:
        """The candidate graph with path-loss weights, plus its key.

        The returned graph is shared — copy before masking edges.
        """
        key = self.template_graph_key(template)

        def compute() -> DiGraph:
            return build_weighted_graph(template)

        return self.get_or_compute(REGION_PATHLOSS, key, compute, stats), key

    # -- Yen candidate paths ------------------------------------------------

    def yen_paths(
        self,
        graph_key: str,
        graph: DiGraph,
        source: Hashable,
        target: Hashable,
        k: int,
        stats: RunStats | None = None,
    ) -> list[tuple[list, float]]:
        """Yen's K shortest paths on ``graph``, under :meth:`yen_key`."""
        key = self.yen_key(graph_key, graph, source, target, k)

        def compute() -> list[tuple[list, float]]:
            return csr_k_shortest_paths(graph, source, target, k)

        return self.get_or_compute(REGION_YEN, key, compute, stats)

    # -- localization anchor rankings ---------------------------------------

    def reach_rankings(
        self,
        channel,
        anchors: Sequence,
        test_points: Iterable,
        stats: RunStats | None = None,
    ) -> list[list[tuple[float, int]]]:
        """Per-test-point anchor rankings by estimated path loss.

        Returns, for every test point (in order), the full list of
        ``(path_loss_db, anchor_id)`` pairs sorted ascending; callers
        slice their own K* prefix, so one entry serves every pruning
        level.
        """
        points = tuple(test_points)
        key = self.reach_key(channel, anchors, points)
        return self.get_or_compute(
            REGION_PATHLOSS, key,
            lambda: anchor_rankings(channel, anchors, points), stats,
        )


_MISSING = object()


def build_weighted_graph(template) -> DiGraph:
    """A fresh path-loss-weighted candidate graph for ``template``."""
    graph = DiGraph()
    for node in template.nodes:
        graph.add_node(node.id)
    graph.add_edges(template.edges())
    return graph


def anchor_rankings(
    channel, anchors: Sequence, points: Iterable,
) -> list[list[tuple[float, int]]]:
    """Per test point, every ``(path_loss_db, anchor_id)`` pair, sorted.

    Scalar ``path_loss_db`` on purpose: the vectorized matrix may differ
    in the last bit and reorder anchors of equal loss at a K* cut.
    """
    return [
        sorted((channel.path_loss_db(a.location, point), a.id) for a in anchors)
        for point in points
    ]
