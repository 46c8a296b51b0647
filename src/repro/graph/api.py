"""Backend selection for the graph kernels.

Two interchangeable implementations exist for the hot graph queries:

* ``"reference"`` — the pure-Python dict-based modules
  (:mod:`repro.graph.dijkstra`, :mod:`repro.graph.yen`).  Dependency-free,
  obviously correct, kept as the behavioural oracle.
* ``"csr"`` — the array-backed kernels in :mod:`repro.graph.kernels`
  (numpy CSR compilation + vectorized relaxation + Lawler-optimized Yen).

``"auto"`` (the default) picks ``"csr"`` when numpy imports, else falls
back to the reference.  Resolution order for every dispatching call:
explicit ``backend=`` argument, then the ``REPRO_GRAPH_BACKEND``
environment variable, then ``"auto"``.

Both backends satisfy the same contract and, for graphs with distinct
path costs, return identical results (cross-checked in
``tests/test_graph_kernels.py``).  Under cost ties they may pick and
order equal-cost paths differently: the reference keeps the predecessor
its push order relaxes first, while the CSR kernels keep the one with
the smallest ``(dist, index)`` across a positive-weight edge, whatever
order their A* search settles nodes in (see :mod:`repro.graph.kernels`).
"""

from __future__ import annotations

import os
from collections.abc import Hashable

from repro.graph import dijkstra as _reference_dijkstra
from repro.graph import yen as _reference_yen
from repro.graph.digraph import DiGraph

Node = Hashable
Edge = tuple[Node, Node]

#: Recognized backend names, in documentation order.
GRAPH_BACKENDS = ("auto", "csr", "reference")

#: Environment variable consulted when no explicit backend is passed.
BACKEND_ENV_VAR = "REPRO_GRAPH_BACKEND"

try:  # numpy is an install-time dependency, but stay importable without it
    import numpy  # noqa: F401

    _HAVE_NUMPY = True
except ImportError:  # pragma: no cover - exercised only on stripped installs
    _HAVE_NUMPY = False


def resolve_backend(backend: str | None = None) -> str:
    """Resolve a backend request to ``"csr"`` or ``"reference"``.

    ``None`` defers to the :data:`BACKEND_ENV_VAR` environment variable
    (itself defaulting to ``"auto"``).  ``"auto"`` resolves to ``"csr"``
    exactly when numpy is importable.  Unknown names raise ``ValueError``.
    """
    if backend is None:
        backend = os.environ.get(BACKEND_ENV_VAR, "auto") or "auto"
    if backend not in GRAPH_BACKENDS:
        raise ValueError(
            f"unknown graph backend {backend!r}; expected one of {GRAPH_BACKENDS}"
        )
    if backend == "auto":
        return "csr" if _HAVE_NUMPY else "reference"
    if backend == "csr" and not _HAVE_NUMPY:
        raise ValueError("graph backend 'csr' requires numpy, which is unavailable")
    return backend


def shortest_path(
    graph: DiGraph,
    source: Node,
    target: Node,
    banned_nodes: frozenset[Node] | set[Node] | None = None,
    banned_edges: frozenset[Edge] | set[Edge] | None = None,
    *,
    backend: str | None = None,
) -> tuple[list[Node], float]:
    """Minimum-weight path via the selected backend.

    Same contract as :func:`repro.graph.dijkstra.shortest_path`; see
    :func:`resolve_backend` for how ``backend`` is interpreted.
    """
    if resolve_backend(backend) == "csr":
        from repro.graph.kernels import csr_shortest_path

        return csr_shortest_path(graph, source, target, banned_nodes, banned_edges)
    return _reference_dijkstra.shortest_path(
        graph, source, target, banned_nodes, banned_edges
    )


def k_shortest_paths(
    graph: DiGraph,
    source: Node,
    target: Node,
    k: int,
    *,
    backend: str | None = None,
) -> list[tuple[list[Node], float]]:
    """K-shortest loopless paths via the selected backend.

    Same contract as :func:`repro.graph.yen.k_shortest_paths`; see
    :func:`resolve_backend` for how ``backend`` is interpreted.
    """
    if resolve_backend(backend) == "csr":
        from repro.graph.kernels import csr_k_shortest_paths

        return csr_k_shortest_paths(graph, source, target, k)
    return _reference_yen.k_shortest_paths(graph, source, target, k)
