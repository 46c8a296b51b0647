"""Binary-heap Dijkstra shortest path on :class:`~repro.graph.digraph.DiGraph`.

Yen's algorithm (the engine of the paper's Algorithm 1) calls this routine
once per spur node per candidate path, so it supports the two restrictions
Yen needs without graph copies: a set of *banned nodes* (nodes already on
the root path) and a set of *banned edges* (edges removed for this spur).

This is the pure-Python **reference** implementation; the array-backed CSR
kernel in :mod:`repro.graph.kernels` is what the library runs, and it is
cross-checked against this module property-by-property.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Hashable

from repro.graph.digraph import DiGraph

Node = Hashable


class NoPathError(Exception):
    """Raised when no path exists between the requested endpoints."""


def shortest_path(
    graph: DiGraph,
    source: Node,
    target: Node,
    banned_nodes: frozenset[Node] | set[Node] | None = None,
    banned_edges: frozenset[tuple[Node, Node]] | set[tuple[Node, Node]] | None = None,
) -> tuple[list[Node], float]:
    """The minimum-weight path from ``source`` to ``target``.

    Returns ``(path, cost)`` where ``path`` is the node sequence including
    both endpoints.  Raises :class:`NoPathError` when target is unreachable
    under the given restrictions, and :class:`KeyError` when either endpoint
    is not a graph node.

    The search short-circuits as soon as ``target`` is popped (its distance
    is final then), and prunes stale heap entries on pop: an entry whose
    recorded distance exceeds the current best for its node is a leftover
    from before a better relaxation and is skipped without expansion.
    """
    if not graph.has_node(source):
        raise KeyError(f"source {source!r} not in graph")
    if not graph.has_node(target):
        raise KeyError(f"target {target!r} not in graph")
    banned_nodes = banned_nodes or frozenset()
    banned_edges = banned_edges or frozenset()
    if source in banned_nodes or target in banned_nodes:
        raise NoPathError(f"endpoint banned: {source!r} -> {target!r}")

    dist: dict[Node, float] = {source: 0.0}
    prev: dict[Node, Node] = {}
    done: set[Node] = set()
    counter = 0  # tie-breaker so heterogeneous node types never compare
    heap: list[tuple[float, int, Node]] = [(0.0, counter, source)]

    while heap:
        d, _, u = heapq.heappop(heap)
        if u in done or d > dist.get(u, math.inf):
            continue  # already finalized, or a stale (superseded) entry
        if u == target:
            break
        done.add(u)
        for v, w in graph.successors(u):
            if v in banned_nodes or v in done or (u, v) in banned_edges:
                continue
            if math.isinf(w):
                continue
            nd = d + w
            if nd < dist.get(v, math.inf):
                dist[v] = nd
                prev[v] = u
                counter += 1
                heapq.heappush(heap, (nd, counter, v))

    if target not in dist:
        raise NoPathError(f"no path {source!r} -> {target!r}")

    path = [target]
    while path[-1] != source:
        path.append(prev[path[-1]])
    path.reverse()
    return path, dist[target]


def shortest_path_tree(graph: DiGraph, source: Node) -> dict[Node, float]:
    """Distances from ``source`` to every reachable node.

    The reference for :meth:`repro.graph.kernels.CSRGraph.distances`,
    which the library runs instead (the what-if certificate reads its
    distances from there); tests call this one by name and require the
    two to agree bit for bit.  Masked edges are skipped here, while the
    CSR view counts them, so the two agree on unmasked graphs.

    Notes
    -----
    This routine intentionally has no ``target`` early exit: callers want
    the full distance map.  When only a single target's distance is needed,
    :func:`shortest_path` is the right call — it short-circuits the moment
    the target is finalized and does strictly less work.  This dict-based
    reference rebuilds its containers per call by design, to stay
    obviously correct.
    """
    if not graph.has_node(source):
        raise KeyError(f"source {source!r} not in graph")
    dist: dict[Node, float] = {source: 0.0}
    done: set[Node] = set()
    counter = 0
    heap: list[tuple[float, int, Node]] = [(0.0, counter, source)]
    while heap:
        d, _, u = heapq.heappop(heap)
        if u in done or d > dist.get(u, math.inf):
            continue  # finalized, or stale after a better relaxation
        done.add(u)
        for v, w in graph.successors(u):
            if v in done or math.isinf(w):
                continue
            nd = d + w
            if nd < dist.get(v, math.inf):
                dist[v] = nd
                counter += 1
                heapq.heappush(heap, (nd, counter, v))
    return dist
