"""Algorithm 1 — approximate path encoding via Yen's K-shortest paths.

For every route requirement the encoder generates a pool of promising
candidate paths on the path-loss-weighted template:

1. ``BudgetDiv``: split the candidate budget ``K*`` into ``N_rep`` rounds
   (one per required disjoint replica) of ``K = ceil(K* / N_rep)``
   candidates each.
2. Each round runs Yen's K-shortest-paths (:func:`repro.graph.yen.
   k_shortest_paths`) on the current graph.
3. ``DisconnectMinDisjointPath``: after each round, the pool path sharing
   the most edges with the rest of the pool is masked out of the graph, so
   the next round must discover an independent alternative — this is what
   guarantees the pool contains at least ``N_rep`` pairwise link-disjoint
   members.

The MILP then only has to *select* among pool paths: one binary per
candidate, "pick at least N_rep" per requirement, and — when disjointness
is required — "at most one selected path per edge".  Constraints
(1a)-(1c) vanish entirely because Yen only emits valid loopless paths,
and every downstream constraint (link quality, energy) is instantiated
only for edges that occur in some candidate.  An edge that only one
candidate uses is active exactly when that candidate is picked, so it
takes the candidate's binary (:func:`link_variables`).
"""

from __future__ import annotations

import math

from repro.encoding.base import (
    Edge,
    EncodingError,
    RoutingEncoder,
    RoutingEncoding,
    SelectionBlock,
)
from repro.graph.digraph import DiGraph
from repro.graph.disjoint import max_disjoint_subset, minimally_disjoint_path
from repro.graph.kernels import csr_k_shortest_paths
from repro.runtime.cache import build_weighted_graph
from repro.milp.expr import Var, lin_sum
from repro.milp.model import Model
from repro.milp.solution import Solution
from repro.network.paths import CandidatePath
from repro.network.requirements import RouteRequirement
from repro.network.template import Template
from repro.network.topology import Route


def budget_div(k_star: int, replicas: int) -> tuple[int, int]:
    """Split the candidate budget: ``N_rep * K >= K*`` with K per round."""
    if k_star < 1:
        raise ValueError("K* must be positive")
    if replicas < 1:
        raise ValueError("need at least one replica")
    return max(1, math.ceil(k_star / replicas)), replicas


def _hops_ok(path: list[int], req: RouteRequirement) -> bool:
    hops = len(path) - 1
    if req.exact_hops is not None:
        return hops == req.exact_hops
    if req.max_hops is not None and hops > req.max_hops:
        return False
    if req.min_hops is not None and hops < req.min_hops:
        return False
    return True


#: Disconnection strategies between Yen rounds (ablation hook):
#: ``min-disjoint`` is Algorithm 1's rule; ``cheapest`` masks the
#: best path instead; ``none`` skips disconnection (plain Yen-K*).
DISCONNECT_STRATEGIES = ("min-disjoint", "cheapest", "none")

#: Disconnection rounds run beyond the ``N_rep`` rounds of the budget
#: split before an insufficient pool is given up on.
MAX_EXTRA_ROUNDS = 4


def generate_candidate_pool(
    graph: DiGraph,
    req: RouteRequirement,
    k_star: int,
    disconnect: str = "min-disjoint",
    *,
    yen=None,
) -> list[CandidatePath]:
    """Algorithm 1's candidate generation for one requirement.

    Returns a deduplicated pool ordered by discovery (cost order within
    each round).  Raises :class:`EncodingError` when the graph cannot
    supply the required number of (disjoint) paths even after
    :data:`MAX_EXTRA_ROUNDS` additional disconnection rounds.

    ``disconnect`` selects what gets masked between rounds (see
    :data:`DISCONNECT_STRATEGIES`); anything but the default
    ``"min-disjoint"`` exists for ablation studies.

    ``yen`` overrides the K-shortest-paths routine (default: the CSR
    kernel) — the runtime passes a memoized one
    (:meth:`repro.runtime.cache.EncodeCache.yen_paths`) so repeated
    sweeps reuse candidate pools.  It must behave exactly like
    :func:`repro.graph.yen.k_shortest_paths`.
    """
    if disconnect not in DISCONNECT_STRATEGIES:
        raise ValueError(
            f"unknown disconnect strategy {disconnect!r}; "
            f"choose from {DISCONNECT_STRATEGIES}"
        )
    pool = _candidate_rounds(
        graph, req, k_star, yen or csr_k_shortest_paths, disconnect
    )
    if not _pool_sufficient(pool, req):
        need = f"{req.replicas} disjoint" if req.disjoint else f"{req.replicas}"
        raise EncodingError(
            f"route {req.source}->{req.dest}: pool of {len(pool)} candidates "
            f"cannot supply {need} path(s); increase k_star or relax the "
            f"requirement"
        )
    return pool


def _candidate_rounds(
    graph: DiGraph,
    req: RouteRequirement,
    k_star: int,
    yen,
    disconnect: str = "min-disjoint",
) -> list[CandidatePath]:
    """Algorithm 1's round loop: one ``yen`` query per round.

    Masks the disconnected paths on ``graph`` between rounds and clears
    every mask before returning, also when ``yen`` raises.  The pool may
    be insufficient; :func:`generate_candidate_pool` checks it.
    """
    k_per_round, n_rep = budget_div(k_star, req.replicas)
    pool: list[CandidatePath] = []
    seen: set[tuple[int, ...]] = set()
    rounds = 0
    try:
        while rounds < n_rep + MAX_EXTRA_ROUNDS:
            rounds += 1
            found = yen(graph, req.source, req.dest, k_per_round)
            round_paths = []
            for nodes, cost in found:
                if not _hops_ok(nodes, req):
                    continue
                key = tuple(nodes)
                round_paths.append(nodes)
                if key not in seen:
                    seen.add(key)
                    pool.append(CandidatePath(key, cost))
            if rounds >= n_rep and _pool_sufficient(pool, req):
                break
            if not round_paths:
                # This round found nothing new and the pool is still
                # insufficient: the masked graph is exhausted.
                break
            if disconnect == "none":
                break  # plain Yen-K*: one round, no forced diversity
            if disconnect == "cheapest":
                idx = 0
            else:
                # DisconnectMinDisjointPath: mask the least-independent path.
                idx = minimally_disjoint_path([p.nodes for p in pool])
            for u, v in pool[idx].edges:
                if graph.has_edge(u, v):
                    graph.mask_edge(u, v)
    finally:
        graph.clear_masks()
    return pool


def link_variables(
    model: Model, edge_uses: dict[Edge, list[Var]],
) -> dict[Edge, Var]:
    """Each encoded link's ``edge_active`` variable.

    A link that only one candidate path uses is active exactly when that
    path is picked, so it takes the path's binary.  A link with two or
    more uses gets its own ``e[u,v]`` binary, tied to them by the
    consistency rows.
    """
    return {
        (u, v): uses[0] if len(uses) == 1 else model.binary(f"e[{u},{v}]")
        for (u, v), uses in edge_uses.items()
    }


def _pool_sufficient(pool: list[CandidatePath], req: RouteRequirement) -> bool:
    if len(pool) < req.replicas:
        return False
    if not req.disjoint:
        return True
    return len(max_disjoint_subset([p.nodes for p in pool])) >= req.replicas


class ApproximatePathEncoder(RoutingEncoder):
    """The compact encoding over Yen-generated candidate paths.

    Parameters
    ----------
    k_star:
        Candidate budget per required route (the paper's ``K*``).  Larger
        values approach the exhaustive optimum at higher solver cost
        (Table 4); the paper's guideline is 3-10 for networks of this size.
        The paper's "disregard links with path loss below a certain
        threshold" step happens earlier, when
        :meth:`Template.add_candidate_links` applies its cutoff.
    disconnect:
        Between-round disconnection strategy (ablation hook); see
        :data:`DISCONNECT_STRATEGIES`.
    """

    name = "approximate"

    def __init__(
        self,
        k_star: int = 10,
        disconnect: str = "min-disjoint",
    ) -> None:
        if k_star < 1:
            raise ValueError("K* must be positive")
        if disconnect not in DISCONNECT_STRATEGIES:
            raise ValueError(
                f"unknown disconnect strategy {disconnect!r}; "
                f"choose from {DISCONNECT_STRATEGIES}"
            )
        self.k_star = k_star
        self.disconnect = disconnect

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
        """Generate candidate pools and the selection constraints.

        With a ``cache``, the path-loss-weighted working graph and every
        Yen query are memoized across trials; each call still works on a
        private copy of the graph, so concurrent trials can mask edges
        (Algorithm 1's disconnection rounds) without interfering.
        """
        graph, graph_key = self._working_graph(template, cache, stats)

        def yen(g: DiGraph, source, target, k: int):
            if graph_key is not None:
                return cache.yen_paths(
                    graph_key, g, source, target, k, stats=stats
                )
            return csr_k_shortest_paths(g, source, target, k)

        fixed = {node.id for node in template.nodes if node.fixed}
        blocks: list[SelectionBlock] = []
        edge_uses: dict[Edge, list[Var]] = {}
        path_var_count = 0

        for req_index, req in enumerate(routes):
            pool = generate_candidate_pool(
                graph, req, self.k_star, disconnect=self.disconnect, yen=yen
            )
            pick = [
                model.binary(f"y[p{req_index}][{k}]") for k in range(len(pool))
            ]
            path_var_count += len(pool)
            # Select at least N_rep pool paths (the paper's disjunction,
            # generalized to replicas).
            model.add(
                lin_sum(pick) >= req.replicas, f"p{req_index}:select"
            )
            if req.disjoint and req.replicas >= 1:
                self._add_disjointness_rows(model, req_index, pool, pick)
            if req.replicas == 1:
                self._add_hull_rows(
                    model, req_index, pool, pick, node_used, fixed
                )
            for path, var in zip(pool, pick):
                for edge in path.edges:
                    edge_uses.setdefault(edge, []).append(var)
            blocks.append(SelectionBlock(req, pool, pick))

        edge_active = link_variables(model, edge_uses)
        encoding = RoutingEncoding(
            edge_active=edge_active,
            edge_uses=edge_uses,
            path_var_count=path_var_count,
            _decoder=lambda sol: _decode(sol, blocks),
            selection=blocks,
        )
        self._wire_topology_consistency(model, template, node_used, encoding)
        return encoding

    def _working_graph(
        self, template: Template, cache, stats
    ) -> tuple[DiGraph, str | None]:
        """A trial-private path-loss-weighted graph plus its content key.

        Always a fresh (or fresh-copied) graph — never ``template.graph``
        itself — because the disconnection rounds mask edges on it, and
        concurrent trials share the template.
        """
        if cache is not None:
            shared, key = cache.weighted_graph(template, stats=stats)
            return shared.copy(), key
        return build_weighted_graph(template), None

    @staticmethod
    def _add_disjointness_rows(
        model: Model,
        req_index: int,
        pool: list[CandidatePath],
        pick: list[Var],
    ) -> None:
        """Selected paths of one requirement must be pairwise link-disjoint.

        Encoded per edge — "at most one selected candidate containing this
        edge" — which is linear in pool size, unlike the quadratic pairwise
        form (1d) of the full encoding.
        """
        by_edge: dict[Edge, list[Var]] = {}
        for path, var in zip(pool, pick):
            for edge in path.edges:
                by_edge.setdefault(edge, []).append(var)
        for (u, v), vars_on_edge in by_edge.items():
            if len(vars_on_edge) > 1:
                model.add(
                    lin_sum(vars_on_edge) <= 1,
                    f"p{req_index}:edgedisj[{u},{v}]",
                )

    @staticmethod
    def _add_hull_rows(
        model: Model,
        req_index: int,
        pool: list[CandidatePath],
        pick: list[Var],
        node_used: dict[int, Var],
        fixed: set[int],
    ) -> None:
        """Disjunctive-hull rows of a single-path selection.

        The select row alone ties a relay to its candidates only through
        ``alpha >= e >= y_k``, so an LP that spreads ``y`` over the pool
        places a relay shared by m candidates at ``1/K`` instead of
        ``m/K``.  A continuous choice ``z`` with ``sum z == 1`` and
        ``z_k <= y_k`` charges every shared optional node
        ``alpha_v >= sum_{k on v} z_k``.  Setting ``z`` to any one selected
        candidate satisfies the rows, so they cut off no design: extra
        selected candidates stay feasible.  Only nodes on two or more
        candidates get a row; a block without one gets nothing.
        """
        on_node: dict[int, list[int]] = {}
        for k, path in enumerate(pool):
            for node in path.nodes:
                if node not in fixed:
                    on_node.setdefault(node, []).append(k)
        shared = {v: ks for v, ks in on_node.items() if len(ks) > 1}
        if not shared:
            return
        hull = [
            model.continuous(f"z[p{req_index}][{k}]", 0.0, 1.0)
            for k in range(len(pool))
        ]
        model.add(lin_sum(hull) == 1, f"p{req_index}:hull")
        for k, (z, y) in enumerate(zip(hull, pick)):
            model.add(z <= y, f"p{req_index}:hull[{k}]")
        for v, ks in shared.items():
            model.add(
                node_used[v] >= lin_sum([hull[k] for k in ks]),
                f"p{req_index}:hull_alpha[{v}]",
            )


def _decode(solution: Solution, blocks: list[SelectionBlock]) -> list[Route]:
    routes: list[Route] = []
    for block in blocks:
        selected = [
            path
            for path, var in zip(block.pool, block.pick)
            if solution.value_bool(var)
        ]
        if len(selected) < block.req.replicas:
            raise ValueError(
                f"solution selects {len(selected)} paths for "
                f"{block.req.source}->{block.req.dest}, "
                f"needs {block.req.replicas}"
            )
        for rep, path in enumerate(selected):
            routes.append(
                Route(block.req.source, block.req.dest, rep, path.nodes)
            )
    return routes
