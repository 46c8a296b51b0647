"""Shared interface of the two path-constraint encodings.

Both the full (exhaustive) encoding and the approximate (Algorithm 1)
encoding produce the same artifact, a :class:`RoutingEncoding`:

* ``edge_active`` — the template's link variables ``e_ij``, restricted to
  the edges the encoding can actually use (for the approximate encoding
  this restriction *is* the complexity saving: downstream link-quality and
  energy constraints are only instantiated for these edges).  A value
  need not be a variable of its own: the approximate encoding gives a
  link that only one candidate path uses that path's route-use binary,
  so one binary may stand for several links;
* ``edge_uses`` — for every encoded edge, the list of binary variables
  each of which, when 1, means "one route uses this edge"; energy
  accounting sums per-use charges over this list;
* ``decode`` — map a MILP solution back to concrete :class:`Route`\\ s.

The encoders also wire the standard topology-consistency rows: an active
edge implies both endpoints are used, an edge is only active when some
route uses it (nothing to tie when its variable is its one use), and
optional nodes are only "used" when connected.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from collections.abc import Callable

from repro.milp.expr import Var, lin_sum
from repro.milp.model import Model
from repro.milp.solution import Solution
from repro.network.paths import CandidatePath
from repro.network.requirements import RouteRequirement
from repro.network.template import Template
from repro.network.topology import Route

Edge = tuple[int, int]


@dataclass
class SelectionBlock:
    """One requirement's candidate pool and its selection variables.

    Only the approximate encoder fills these (the full encoding has no
    enumerated pool to select from).  They are the structural handle the
    warm start (:mod:`repro.accel.warmstart`) needs: it replays a
    previous design's routes as pool members.
    """

    req: RouteRequirement
    pool: list[CandidatePath]
    pick: list[Var]


class EncodingError(Exception):
    """The requirements cannot be encoded on this template.

    For the approximate encoding this usually means the candidate pool was
    too small (raise ``k_star``) or the template simply has no (enough
    disjoint) paths for a required pair.
    """


@dataclass
class RoutingEncoding:
    """The artifact consumed by constraint builders and the decoder."""

    #: Each encoded link's activity binary.  A value may be a route-use
    #: binary shared by several links (each one's only use), so sum over
    #: this mapping with ``lin_sum``, which adds repeated variables.
    edge_active: dict[Edge, Var]
    edge_uses: dict[Edge, list[Var]] = field(default_factory=dict)
    #: Number of path-structure variables created (paper's complexity metric).
    path_var_count: int = 0
    _decoder: Callable[[Solution], list[Route]] | None = None
    #: Per-requirement candidate pools (approximate encoding only; empty
    #: for the full encoding).  Consumed by :mod:`repro.accel`.
    selection: list[SelectionBlock] = field(default_factory=list)

    @property
    def encoded_edges(self) -> list[Edge]:
        """Edges that can appear in a route under this encoding."""
        return list(self.edge_active)

    def decode(self, solution: Solution) -> list[Route]:
        """Concrete routes chosen by ``solution``."""
        if self._decoder is None:
            return []
        return self._decoder(solution)


class RoutingEncoder(abc.ABC):
    """Builds routing variables/constraints for a set of route requirements.

    ``encode`` accepts an optional :class:`~repro.runtime.cache.EncodeCache`
    (to reuse path-loss graphs and Yen candidate pools across trials) and
    an optional :class:`~repro.runtime.instrumentation.RunStats` that
    attributes the cache lookups to one trial; encoders that do no
    cacheable work may ignore both.
    """

    name: str = "abstract"

    @abc.abstractmethod
    def encode(
        self,
        model: Model,
        template: Template,
        routes: list[RouteRequirement],
        node_used: dict[int, Var],
        *,
        cache=None,
        stats=None,
    ) -> RoutingEncoding:
        """Add routing structure to ``model`` and return the encoding."""

    @staticmethod
    def _wire_topology_consistency(
        model: Model,
        template: Template,
        node_used: dict[int, Var],
        encoding: RoutingEncoding,
    ) -> None:
        """Standard rows tying edges to uses and nodes to edges.

        A link whose variable is its one use needs no rows tying the two.
        Each endpoint row is emitted once per (variable, node), because a
        path binary stands for every single-use link of its path.
        """
        incident: dict[int, list[Var]] = {}
        placed: set[tuple[int, int]] = set()
        for (u, v), e_var in encoding.edge_active.items():
            uses = encoding.edge_uses.get((u, v), [])
            if not uses:
                model.add(e_var <= 0, f"e[{u},{v}]:unused")
            elif len(uses) > 1 or uses[0] is not e_var:
                for k, use in enumerate(uses):
                    model.add(e_var >= use, f"e[{u},{v}]:ge_use{k}")
                model.add(e_var <= lin_sum(uses), f"e[{u},{v}]:le_uses")
            # An active link needs both endpoints placed.
            for node, role in ((u, "tx_used"), (v, "rx_used")):
                if (e_var.index, node) not in placed:
                    placed.add((e_var.index, node))
                    model.add(e_var <= node_used[node], f"e[{u},{v}]:{role}")
            incident.setdefault(u, []).append(e_var)
            incident.setdefault(v, []).append(e_var)
        # Optional nodes count as used only when connected.
        for node in template.nodes:
            if node.fixed:
                continue
            edges = incident.get(node.id)
            if edges:
                model.add(
                    node_used[node.id] <= lin_sum(edges),
                    f"alpha[{node.id}]:connected",
                )
            else:
                model.add(
                    node_used[node.id] <= 0, f"alpha[{node.id}]:isolated"
                )
