"""Array-backed graph kernels: CSR compilation, A* Dijkstra, Lawler-Yen.

The dict-of-dicts :class:`~repro.graph.digraph.DiGraph` is the right
structure for *building* templates (arbitrary hashable nodes, cheap edge
masking), but it is a poor substrate for the paper's hot loop: Algorithm 1
runs one Dijkstra per spur node per candidate path, and every hop of every
relaxation pays dict hashing on node objects.  This module compiles a
DiGraph into a compressed-sparse-row (CSR) view — an int-interning table
plus flat numpy ``indptr``/``indices``/``weights`` arrays — and runs the
two kernels Algorithm 1 needs directly on it:

* **Dijkstra** with flat ``dist``/``prev`` arrays, integer heap entries,
  vectorized per-row relaxation, and banned nodes/edges expressed as
  boolean masks (no graph copies, no per-edge set lookups).  The heap is
  keyed on ``g + h`` for node potentials ``h``: zeros for a single query
  (plain Dijkstra), and for Yen's searches the target's A* potentials
  (:meth:`CSRGraph.potentials`), so a spur search settles little more
  than the nodes near its shortest path.
* **Yen's K-shortest paths with Lawler's optimization**: spurs start at
  the previous path's own spur index (earlier prefixes were exhausted when
  its parent was processed), root-path prefix costs are carried
  incrementally, banned spur continuations come from a prefix-indexed
  lookup table instead of rescanning every accepted/queued path, and heap
  ties break on a monotonic counter.

The compiled view is cached on the DiGraph keyed by its structural
version, which edge *masking* does not bump — so Algorithm 1's
disconnect-and-rerun rounds, and the runtime's copy-then-mask trial
pattern, reuse a single compilation and its potentials.  Masked edges are
folded into each query's banned-edge mask instead.

Tie contract: when several predecessors ``u`` reach a node ``v`` at the
same cost across positive-weight edges (``dist[u] < dist[v]``),
``prev[v]`` is the one with the smallest ``(dist[u], u)``.  That is the
predecessor plain Dijkstra's ``(dist, index)`` pop order relaxes first,
and the rule makes it independent of the settle order: on graphs without
zero-weight edges the potentials change how much of the graph a search
settles, never which path it returns.  Across a zero-weight edge the
first relaxation keeps ``prev`` (the rule could close a ``prev`` cycle
there), so with zero-weight edges a tie can still resolve by settle
order.

Behavioral contract: given distinct path costs, these kernels return
exactly what the reference implementations in :mod:`repro.graph.dijkstra`
and :mod:`repro.graph.yen` return (the property suite in
``tests/test_graph_kernels.py`` cross-checks this, bans and all); under
cost ties the choice among equal-cost paths follows the tie contract
above and may differ from the reference's.
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Hashable, Iterable

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra as _csgraph_dijkstra

from repro.graph.digraph import DiGraph
from repro.graph.dijkstra import NoPathError

Node = Hashable
Edge = tuple[Node, Node]

#: Relative amount shaved off every A* potential.  A potential is a sum of
#: edge weights rounded in a different order than any search's ``g``, so
#: unshaved it could exceed a path's float cost by a few ulps; the shave
#: keeps ``g + h`` at or below every path's cost.
POTENTIAL_SHAVE = 1e-12


class CSRGraph:
    """An immutable compressed-sparse-row view of a :class:`DiGraph`.

    ``nodes[i]`` is the original node object interned at index ``i``;
    ``index[node]`` inverts that.  Out-edges of node ``i`` occupy slots
    ``indptr[i]:indptr[i+1]`` of ``indices`` (successor indices) and
    ``weights``.  ``edge_slot`` maps an ``(u_index, v_index)`` pair to its
    slot, which is how banned-edge boolean masks are addressed.

    Masked edges of the source graph are *included* (with their true
    weights): masking is a per-query concern, served by
    :meth:`edge_mask`, so mask flips never invalidate the compilation.
    """

    __slots__ = (
        "nodes", "index", "indptr", "indptr_list", "indices", "weights",
        "edge_slot", "_potentials",
    )

    def __init__(
        self,
        nodes: list[Node],
        index: dict[Node, int],
        indptr: np.ndarray,
        indices: np.ndarray,
        weights: np.ndarray,
        edge_slot: dict[tuple[int, int], int],
    ) -> None:
        self.nodes = nodes
        self.index = index
        self.indptr = indptr
        #: Plain-int mirror of ``indptr``: the Dijkstra pop loop reads two
        #: row bounds per pop, and list indexing beats numpy scalar access.
        self.indptr_list = indptr.tolist()
        self.indices = indices
        self.weights = weights
        self.edge_slot = edge_slot
        #: Target index -> A* potentials, filled by :meth:`potentials`.
        self._potentials: dict[int, np.ndarray] = {}

    @classmethod
    def from_digraph(cls, graph: DiGraph) -> CSRGraph:
        """Compile ``graph`` into CSR form (nodes in insertion order).

        One pass over the adjacency dicts (read directly: this module is
        the graph's compiler).  Each node's out-edges are contiguous and
        rows follow node insertion order, so row ``i`` holds node ``i``'s
        out-edges in their insertion order and ``indptr`` is the running
        sum of out-degrees.
        """
        nodes = list(graph.nodes())
        index = {node: i for i, node in enumerate(nodes)}
        rows = graph._succ.values()
        degrees = [len(nbrs) for nbrs in rows]
        targets: list[int] = []
        weights: list[float] = []
        for nbrs in rows:
            targets.extend(map(index.__getitem__, nbrs))
            weights.extend(nbrs.values())
        indptr = np.zeros(len(nodes) + 1, dtype=np.int64)
        np.cumsum(degrees, out=indptr[1:])
        sources = np.repeat(np.arange(len(nodes)), degrees).tolist()
        edge_slot = dict(zip(zip(sources, targets), itertools.count()))
        return cls(
            nodes, index, indptr,
            np.array(targets, dtype=np.int64),
            np.array(weights, dtype=np.float64),
            edge_slot,
        )

    @property
    def node_count(self) -> int:
        """Number of interned nodes."""
        return len(self.nodes)

    @property
    def edge_count(self) -> int:
        """Number of edge slots (masked edges of the source included)."""
        return int(self.indices.shape[0])

    def node_mask(self, banned: Iterable[Node]) -> np.ndarray | None:
        """A boolean node mask from a banned-node collection (None if empty).

        Nodes absent from the graph are ignored, matching the reference
        implementation's behaviour of never visiting them anyway.
        """
        mask: np.ndarray | None = None
        for node in banned:
            i = self.index.get(node)
            if i is None:
                continue
            if mask is None:
                mask = np.zeros(self.node_count, dtype=bool)
            mask[i] = True
        return mask

    def edge_mask(self, *banned_sets: Iterable[Edge] | None) -> np.ndarray | None:
        """A boolean edge-slot mask from banned-edge collections.

        Returns ``None`` when nothing maps to an existing edge.  Edges not
        present in the graph are ignored.
        """
        mask: np.ndarray | None = None
        for edges in banned_sets:
            if not edges:
                continue
            for u, v in edges:
                ui = self.index.get(u)
                vi = self.index.get(v)
                if ui is None or vi is None:
                    continue
                slot = self.edge_slot.get((ui, vi))
                if slot is None:
                    continue
                if mask is None:
                    mask = np.zeros(self.edge_count, dtype=bool)
                mask[slot] = True
        return mask

    def to_nodes(self, idx_path: list[int]) -> list[Node]:
        """Translate an index path back to original node objects."""
        nodes = self.nodes
        return [nodes[i] for i in idx_path]

    def distances(self, node: int, *, reverse: bool = False) -> np.ndarray:
        """Shortest-path distances from node index ``node`` to every node.

        With ``reverse`` the distances run the other way: entry ``i`` is
        the distance from node ``i`` to ``node``.  One scipy csgraph
        Dijkstra over every edge slot, masked ones included; ``inf``
        marks an unreachable node.  scipy's csgraph keeps explicit zero
        weights as edges, so zero-weight edges count too.

        Each entry is the fixpoint ``dist[v] = min over u of
        fl(dist[u] + w(u, v))`` that any Dijkstra settling nodes in
        distance order reaches, so on non-negative weights the floats
        equal :func:`repro.graph.dijkstra.shortest_path_tree`'s bit for
        bit.
        """
        n = self.node_count
        forward = csr_matrix(
            (self.weights, self.indices, self.indptr), shape=(n, n)
        )
        return _csgraph_dijkstra(
            forward.T if reverse else forward, directed=True, indices=node
        )

    def potentials(self, target: int) -> np.ndarray:
        """A* potentials toward node index ``target`` (cached per target).

        The reverse :meth:`distances` to ``target``, shaved by a relative
        :data:`POTENTIAL_SHAVE`.  Masks and Yen's bans only remove edges,
        so these distances bound every query on this view from below.
        ``inf`` marks a node that cannot reach ``target`` at all.
        """
        h = self._potentials.get(target)
        if h is None:
            h = self.distances(target, reverse=True)
            h *= 1.0 - POTENTIAL_SHAVE
            self._potentials[target] = h
        return h


def csr_of(graph: DiGraph) -> CSRGraph:
    """The compiled CSR view of ``graph``, cached on its structural version.

    Mask/unmask operations do not invalidate the cache (they do not bump
    the structural version); adding/removing edges or nodes and weight
    changes do.  ``DiGraph.copy`` shares the cache with the original, and
    with it the view's A* potentials.
    """
    cached = graph._csr_cache
    if cached is not None and cached[0] == graph._version:
        return cached[1]  # type: ignore[return-value]
    csr = CSRGraph.from_digraph(graph)
    graph._csr_cache = (graph._version, csr)
    return csr


def _run_dijkstra(
    csr: CSRGraph,
    src: int,
    dst: int,
    banned_nodes: np.ndarray | None,
    banned_edges: np.ndarray | None,
    potentials: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Array A* from ``src`` to ``dst``; exits once ``dst`` is popped.

    ``dst`` may be ``-1`` for a full single-source run.  The heap is
    keyed on ``g + potentials``: all zeros is plain Dijkstra, and
    :meth:`CSRGraph.potentials` of ``dst`` is admissible under every mask
    and ban.  Returns ``(dist, prev)`` index-space arrays.

    Two classic Dijkstra structures are deliberately absent:

    * No decrease-key — superseded heap entries are pruned lazily on pop
      via ``g > dist[u]`` (a node's pushes carry strictly decreasing
      distances, so only its best entry survives the guard).
    * No visited array — with non-negative weights an expanded node's
      ``dist`` is final (up to float rounding in the potentials), so the
      strict improvement test ``nd < dist[v]`` never re-relaxes it; if
      rounding ever lets it improve, it is pushed and expanded again.
      Banned nodes, and nodes with an infinite potential (they cannot
      reach ``dst``), get ``dist = -inf`` up front: nothing beats
      ``-inf``, so they are never relaxed into and never pushed.

    Equal-cost relaxations follow the module's tie contract: across a
    positive-weight edge the predecessor with the smaller ``(dist,
    index)`` keeps ``prev``, whatever order the potentials settle nodes in.
    """
    n = csr.node_count
    dist = np.full(n, np.inf)
    dist[np.isinf(potentials)] = -np.inf
    prev = np.full(n, -1, dtype=np.int64)
    if banned_nodes is not None:
        dist[banned_nodes] = -np.inf
    dist[src] = 0.0
    indptr, indices, weights = csr.indptr_list, csr.indices, csr.weights
    heap: list[tuple[float, float, int]] = [(potentials.item(src), 0.0, src)]
    push, pop = heapq.heappush, heapq.heappop
    while heap:
        _key, d, u = pop(heap)
        if d > dist[u]:
            continue  # a stale (superseded) entry
        if u == dst:
            break
        lo, hi = indptr[u], indptr[u + 1]
        if lo == hi:
            continue
        nbrs = indices[lo:hi]
        nd = d + weights[lo:hi]
        cur = dist[nbrs]
        tied = nd == cur
        if np.count_nonzero(tied):  # rare on real weights; cheaper than any()
            if banned_edges is not None:
                tied &= ~banned_edges[lo:hi]
            for v in nbrs[tied].tolist():
                p = prev[v]
                if d < dist[v] < np.inf and (d, u) < (dist[p], p):
                    prev[v] = u
        better = nd < cur
        if banned_edges is not None:
            better &= ~banned_edges[lo:hi]
        vs = nbrs[better]
        if vs.size == 0:
            continue
        nds = nd[better]
        dist[vs] = nds
        prev[vs] = u
        keys = nds + potentials[vs]
        for key, g, v in zip(keys.tolist(), nds.tolist(), vs.tolist()):
            push(heap, (key, g, v))
    return dist, prev


def _walk_back(prev: np.ndarray, src: int, dst: int) -> list[int]:
    path = [dst]
    while path[-1] != src:
        path.append(int(prev[path[-1]]))
    path.reverse()
    return path


def csr_shortest_path(
    graph: DiGraph,
    source: Node,
    target: Node,
    banned_nodes: frozenset[Node] | set[Node] | None = None,
    banned_edges: frozenset[Edge] | set[Edge] | None = None,
) -> tuple[list[Node], float]:
    """CSR-backed :func:`repro.graph.dijkstra.shortest_path` equivalent.

    Same contract: ``(path, cost)`` on success, :class:`NoPathError` when
    the target is unreachable under the restrictions, :class:`KeyError`
    when an endpoint is not a graph node.  Masked edges of ``graph`` are
    honoured via the query's banned-edge mask.
    """
    csr = csr_of(graph)
    try:
        src = csr.index[source]
    except KeyError:
        raise KeyError(f"source {source!r} not in graph") from None
    try:
        dst = csr.index[target]
    except KeyError:
        raise KeyError(f"target {target!r} not in graph") from None
    banned_nodes = banned_nodes or frozenset()
    if source in banned_nodes or target in banned_nodes:
        raise NoPathError(f"endpoint banned: {source!r} -> {target!r}")
    if src == dst:
        return [source], 0.0
    node_mask = csr.node_mask(banned_nodes)
    edge_mask = csr.edge_mask(graph.masked_edges, banned_edges)
    # One query would not amortize a reverse Dijkstra: plain Dijkstra.
    dist, prev = _run_dijkstra(
        csr, src, dst, node_mask, edge_mask, np.zeros(csr.node_count)
    )
    if not np.isfinite(dist[dst]):
        raise NoPathError(f"no path {source!r} -> {target!r}")
    return csr.to_nodes(_walk_back(prev, src, dst)), float(dist[dst])


def csr_k_shortest_paths(
    graph: DiGraph, source: Node, target: Node, k: int
) -> list[tuple[list[Node], float]]:
    """CSR-backed, Lawler-optimized Yen K-shortest loopless paths.

    Same contract as :func:`repro.graph.yen.k_shortest_paths`.  The whole
    search runs in index space; node objects are materialized once at the
    end.  Every search, spurs included, is A* on the target's cached
    potentials.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    csr = csr_of(graph)
    try:
        src = csr.index[source]
    except KeyError:
        raise KeyError(f"source {source!r} not in graph") from None
    try:
        dst = csr.index[target]
    except KeyError:
        raise KeyError(f"target {target!r} not in graph") from None

    base_mask = csr.edge_mask(graph.masked_edges)
    if src == dst:
        return [([source], 0.0)]
    potentials = csr.potentials(dst)
    dist, prev = _run_dijkstra(csr, src, dst, None, base_mask, potentials)
    if not np.isfinite(dist[dst]):
        return []
    first = _walk_back(prev, src, dst)

    n, m = csr.node_count, csr.edge_count
    weights, edge_slot = csr.weights, csr.edge_slot
    # Scratch masks, reused (and reset) across every spur query.
    edge_scratch = base_mask.copy() if base_mask is not None else np.zeros(m, dtype=bool)
    node_scratch = np.zeros(n, dtype=bool)

    # accepted[j] = (index path, cost); spur_index[j] = where it deviated
    # from its parent (Lawler's resume point, 0 for the first path).
    accepted: list[tuple[list[int], float]] = [(first, float(dist[dst]))]
    spur_index: list[int] = [0]
    seen: set[tuple[int, ...]] = {tuple(first)}
    counter = itertools.count()
    # Heap of (cost, tiebreak, index path, spur index of that path).
    candidates: list[tuple[float, int, list[int], int]] = []
    # prefix -> edge slots continuing any registered path past that prefix.
    # Registering both accepted and queued candidate paths mirrors the
    # reference implementation's per-spur scans in O(1) lookups.
    prefix_bans: dict[tuple[int, ...], list[int]] = {}

    def register(path: list[int]) -> None:
        for i in range(len(path) - 1):
            slot = edge_slot[(path[i], path[i + 1])]
            prefix_bans.setdefault(tuple(path[: i + 1]), []).append(slot)

    register(first)

    while len(accepted) < k:
        prev_path, _prev_cost = accepted[-1]
        start = spur_index[-1]
        # Incremental prefix costs: prefix_cost == weight(prev_path[:i+1]),
        # summed as Python floats so every returned cost is a float.
        prefix_cost = 0.0
        for j in range(start):
            prefix_cost += weights.item(
                edge_slot[(prev_path[j], prev_path[j + 1])]
            )
        for u in prev_path[:start]:
            node_scratch[u] = True
        for i in range(start, len(prev_path) - 1):
            if i > start:
                node_scratch[prev_path[i - 1]] = True
            banned_slots = prefix_bans.get(tuple(prev_path[: i + 1]), ())
            for slot in banned_slots:
                edge_scratch[slot] = True
            dist, prev = _run_dijkstra(
                csr, prev_path[i], dst, node_scratch, edge_scratch, potentials
            )
            for slot in banned_slots:
                edge_scratch[slot] = False
            if base_mask is not None:
                # Restore base masks that overlapped this spur's bans.
                np.logical_or(edge_scratch, base_mask, out=edge_scratch)
            if np.isfinite(dist[dst]):
                spur_path = _walk_back(prev, prev_path[i], dst)
                total = prev_path[:i] + spur_path
                key = tuple(total)
                if key not in seen:
                    seen.add(key)
                    register(total)
                    heapq.heappush(
                        candidates,
                        (
                            prefix_cost + float(dist[dst]),
                            next(counter),
                            total,
                            i,
                        ),
                    )
            prefix_cost += weights.item(edge_slot[(prev_path[i], prev_path[i + 1])])
        node_scratch[:] = False
        if not candidates:
            break
        cost, _, path, si = heapq.heappop(candidates)
        accepted.append((path, cost))
        spur_index.append(si)

    return [(csr.to_nodes(path), cost) for path, cost in accepted]
