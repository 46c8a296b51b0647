"""Graph algorithm substrate: digraph, Dijkstra, Yen's K-shortest paths.

``shortest_path`` and ``k_shortest_paths`` are the array-backed CSR
kernels of :mod:`repro.graph.kernels`.  The dict-based
:mod:`repro.graph.dijkstra` and :mod:`repro.graph.yen` are their
reference implementations, kept as the oracle the kernels are tested
against.
"""

from repro.graph.digraph import INFINITY, DiGraph
from repro.graph.dijkstra import NoPathError, shortest_path_tree
from repro.graph.disjoint import (
    are_link_disjoint,
    edges_shared,
    max_disjoint_subset,
    minimally_disjoint_path,
    path_edges,
)
from repro.graph.enumeration import all_simple_paths, count_simple_paths
from repro.graph.kernels import csr_k_shortest_paths as k_shortest_paths
from repro.graph.kernels import csr_shortest_path as shortest_path

__all__ = [
    "INFINITY",
    "DiGraph",
    "NoPathError",
    "all_simple_paths",
    "are_link_disjoint",
    "count_simple_paths",
    "edges_shared",
    "k_shortest_paths",
    "max_disjoint_subset",
    "minimally_disjoint_path",
    "path_edges",
    "shortest_path",
    "shortest_path_tree",
]
