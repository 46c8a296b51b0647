"""Yen's K-shortest loopless paths (Yen, Management Science 1971).

This is the ``KShortest`` routine of the paper's Algorithm 1: given the
path-loss-weighted template, produce the K "best" simple paths between a
source and a destination in non-decreasing order of total weight.  Yen's
method generalizes Dijkstra: the best path comes from a plain shortest-path
query; each subsequent candidate is found by *spurring* off every prefix of
an already-accepted path with the previously used continuations banned.

This module is the pure-Python **reference** implementation.  The
library runs the Lawler-optimized CSR kernel in :mod:`repro.graph.kernels`
(exported as :func:`repro.graph.k_shortest_paths`); this module is the
oracle it is tested against.
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Hashable

from repro.graph.digraph import DiGraph
from repro.graph.dijkstra import NoPathError, shortest_path

Node = Hashable


def k_shortest_paths(
    graph: DiGraph, source: Node, target: Node, k: int
) -> list[tuple[list[Node], float]]:
    """Up to ``k`` loopless paths from ``source`` to ``target``.

    Returns ``(path, cost)`` pairs sorted by non-decreasing cost; fewer than
    ``k`` entries are returned when the graph does not contain that many
    simple paths.  An empty list means the target is unreachable.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    try:
        first = shortest_path(graph, source, target)
    except NoPathError:
        return []

    accepted: list[tuple[list[Node], float]] = [first]
    # Candidate heap entries: (cost, tie_breaker, path).  The tie-breaker
    # is a monotonic counter: push order is deterministic, so pop order is
    # too, without building an O(path-len) repr tuple per push.
    counter = itertools.count()
    candidates: list[tuple[float, int, list[Node]]] = []
    seen_candidates: set[tuple[Node, ...]] = {tuple(first[0])}

    while len(accepted) < k:
        prev_path = accepted[-1][0]
        # Root-path prefix costs are carried incrementally along prev_path
        # instead of rescanning the prefix with subgraph_weight per spur.
        root_cost = 0.0
        for i in range(len(prev_path) - 1):
            spur_node = prev_path[i]
            root_path = prev_path[: i + 1]

            banned_edges: set[tuple[Node, Node]] = set()
            for path, _ in accepted:
                if path[: i + 1] == root_path and len(path) > i + 1:
                    banned_edges.add((path[i], path[i + 1]))
            for cost_p in candidates:
                path = cost_p[2]
                if path[: i + 1] == root_path and len(path) > i + 1:
                    banned_edges.add((path[i], path[i + 1]))
            banned_nodes = frozenset(root_path[:-1])

            try:
                spur_path, spur_cost = shortest_path(
                    graph, spur_node, target,
                    banned_nodes=banned_nodes, banned_edges=banned_edges,
                )
            except NoPathError:
                pass
            else:
                total_path = root_path[:-1] + spur_path
                key = tuple(total_path)
                if key not in seen_candidates:
                    seen_candidates.add(key)
                    heapq.heappush(
                        candidates,
                        (root_cost + spur_cost, next(counter), total_path),
                    )
            root_cost += graph.weight(prev_path[i], prev_path[i + 1])
        if not candidates:
            break
        cost, _, path = heapq.heappop(candidates)
        accepted.append((path, cost))
    return accepted
