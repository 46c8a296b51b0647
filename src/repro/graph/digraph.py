"""A lightweight weighted directed graph.

The optimizer manipulates graphs in three places: the network template
(candidate links), the path-loss-weighted copy that Yen's algorithm prunes,
and decoded solution topologies.  A dedicated minimal structure keeps those
hot paths dependency-free and lets Algorithm 1 cheaply mask edges (the
"disconnect the minimally disjoint path" step) without copying the graph.
"""

from __future__ import annotations

import math
from collections.abc import Hashable, Iterable, Iterator

Node = Hashable
Edge = tuple[Node, Node]

#: Weight used for masked (temporarily disconnected) edges.
INFINITY = math.inf


class DiGraph:
    """A directed graph with non-negative edge weights.

    Nodes may be any hashable value.  Edges carry a single float weight
    (the estimated link path loss, in the paper's usage).  Edge masking —
    used by Algorithm 1 to disconnect paths between Yen rounds — hides an
    edge from traversal without structurally removing it.
    """

    def __init__(self) -> None:
        self._succ: dict[Node, dict[Node, float]] = {}
        self._pred: dict[Node, dict[Node, float]] = {}
        self._masked: set[Edge] = set()
        #: Bumped on every structural/weight mutation (NOT on mask changes);
        #: the CSR kernel keys its per-graph compiled view on this, so
        #: Algorithm 1's mask/unmask rounds reuse one compiled graph.
        self._version = 0
        self._csr_cache: tuple[int, object] | None = None

    # -- construction -----------------------------------------------------

    def add_node(self, node: Node) -> None:
        """Add ``node`` (a no-op when already present)."""
        if node not in self._succ:
            self._succ[node] = {}
            self._pred[node] = {}
            self._version += 1

    def add_edge(self, u: Node, v: Node, weight: float = 1.0) -> None:
        """Add edge ``u``->``v``; re-adding overwrites the weight."""
        if weight < 0:
            raise ValueError(f"negative weight {weight} on edge ({u!r}, {v!r})")
        if u == v:
            raise ValueError(f"self-loop on node {u!r} not allowed")
        self.add_node(u)
        self.add_node(v)
        self._succ[u][v] = weight
        self._pred[v][u] = weight
        self._version += 1

    def add_edges(self, edges: Iterable[tuple[Node, Node, float]]) -> None:
        """Bulk :meth:`add_edge`: same per-edge validation, one version bump.

        The per-call overhead of :meth:`add_edge` (two method calls plus a
        version bump per edge) dominates template construction on large
        instances; this path amortizes it across the whole batch.
        """
        succ = self._succ
        pred = self._pred
        for u, v, weight in edges:
            if weight < 0:
                raise ValueError(
                    f"negative weight {weight} on edge ({u!r}, {v!r})"
                )
            if u == v:
                raise ValueError(f"self-loop on node {u!r} not allowed")
            if u not in succ:
                succ[u] = {}
                pred[u] = {}
            if v not in succ:
                succ[v] = {}
                pred[v] = {}
            succ[u][v] = weight
            pred[v][u] = weight
        self._version += 1

    def remove_edge(self, u: Node, v: Node) -> None:
        """Structurally remove edge ``u``->``v``."""
        try:
            del self._succ[u][v]
            del self._pred[v][u]
        except KeyError:
            raise KeyError(f"edge ({u!r}, {v!r}) not in graph") from None
        self._masked.discard((u, v))
        self._version += 1

    # -- queries ----------------------------------------------------------

    @property
    def node_count(self) -> int:
        """Number of nodes."""
        return len(self._succ)

    @property
    def edge_count(self) -> int:
        """Number of edges (masked edges included)."""
        return sum(len(nbrs) for nbrs in self._succ.values())

    def nodes(self) -> Iterator[Node]:
        """Iterate over nodes in insertion order."""
        return iter(self._succ)

    def edges(self) -> Iterator[tuple[Node, Node, float]]:
        """Iterate over ``(u, v, weight)`` triples (masked edges included)."""
        for u, nbrs in self._succ.items():
            for v, w in nbrs.items():
                yield u, v, w

    def has_node(self, node: Node) -> bool:
        """Whether ``node`` is in the graph."""
        return node in self._succ

    def has_edge(self, u: Node, v: Node) -> bool:
        """Whether edge ``u``->``v`` exists (masked edges count)."""
        return u in self._succ and v in self._succ[u]

    def weight(self, u: Node, v: Node) -> float:
        """Weight of edge ``u``->``v`` (:data:`INFINITY` when masked)."""
        if self.is_masked(u, v):
            return INFINITY
        try:
            return self._succ[u][v]
        except KeyError:
            raise KeyError(f"edge ({u!r}, {v!r}) not in graph") from None

    def set_weight(self, u: Node, v: Node, weight: float) -> None:
        """Overwrite the weight of an existing edge."""
        if not self.has_edge(u, v):
            raise KeyError(f"edge ({u!r}, {v!r}) not in graph")
        self.add_edge(u, v, weight)

    def successors(self, node: Node) -> Iterator[tuple[Node, float]]:
        """Iterate over unmasked ``(successor, weight)`` pairs of ``node``."""
        for v, w in self._succ.get(node, {}).items():
            if (node, v) not in self._masked:
                yield v, w

    def predecessors(self, node: Node) -> Iterator[tuple[Node, float]]:
        """Iterate over unmasked ``(predecessor, weight)`` pairs of ``node``."""
        for u, w in self._pred.get(node, {}).items():
            if (u, node) not in self._masked:
                yield u, w

    def out_degree(self, node: Node) -> int:
        """Number of unmasked outgoing edges."""
        return sum(1 for _ in self.successors(node))

    # -- masking (Algorithm 1's edge disconnection) -----------------------

    def mask_edge(self, u: Node, v: Node) -> None:
        """Temporarily hide edge ``u``->``v`` from traversal."""
        if not self.has_edge(u, v):
            raise KeyError(f"edge ({u!r}, {v!r}) not in graph")
        self._masked.add((u, v))

    def unmask_edge(self, u: Node, v: Node) -> None:
        """Re-enable a masked edge (no-op when not masked)."""
        self._masked.discard((u, v))

    def clear_masks(self) -> None:
        """Re-enable every masked edge."""
        self._masked.clear()

    def is_masked(self, u: Node, v: Node) -> bool:
        """Whether edge ``u``->``v`` is currently masked."""
        return (u, v) in self._masked

    @property
    def masked_edges(self) -> frozenset[Edge]:
        """The currently masked edge set."""
        return frozenset(self._masked)

    # -- convenience -------------------------------------------------------

    def copy(self) -> DiGraph:
        """A structural copy (masks are copied too).

        Every node's adjacency dicts are copied, so node and edge order
        match the original's and edits to either graph never reach the
        other.  The copy shares the original's compiled CSR view when one
        exists — it is structurally identical, and the compiled view is
        immutable — so the runtime's copy-then-mask trial pattern never
        recompiles.
        """
        g = DiGraph()
        g._succ = {u: nbrs.copy() for u, nbrs in self._succ.items()}
        g._pred = {v: nbrs.copy() for v, nbrs in self._pred.items()}
        g._masked = set(self._masked)
        g._version = self._version
        g._csr_cache = self._csr_cache
        return g

    def subgraph_weight(self, path: Iterable[Node]) -> float:
        """Total weight along a node sequence (inf if an edge is missing)."""
        total = 0.0
        nodes = list(path)
        for u, v in zip(nodes, nodes[1:]):
            if not self.has_edge(u, v) or self.is_masked(u, v):
                return INFINITY
            total += self._succ[u][v]
        return total
