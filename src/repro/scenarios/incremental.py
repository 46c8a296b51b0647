"""Incremental what-if re-solve: transplant cache entries, warm-start.

A single edit — one wall, one moved node — leaves most of a problem's
expensive compilation valid: the path-loss-weighted candidate graph
changes in a handful of entries, most Yen candidate pools are provably
unaffected, and most (anchor, test-point) ranking entries keep their
exact float values.  :func:`prepare_cache` transplants those artifacts
from the previous solve's :class:`~repro.runtime.cache.EncodeCache` to
the edited problem's cache keys (via :meth:`EncodeCache.seed`, which
counts ``partial_reuse`` and never clobbers fresher work), and
:func:`incremental_resolve` then solves the edited problem with the
previous architecture as a MILP warm start.

Soundness of the Yen-pool transplant
------------------------------------
A cached pool for route ``s -> t`` (at some mask set) is reused only
when a *certificate* holds against the edited graph:

* no returned path uses a removed or re-weighted edge (so every cached
  path still exists at the same cost, and the mask evolution of
  Algorithm 1's disconnection rounds replays identically), and
* every added or cheapened edge ``(u, v, w)`` satisfies
  ``d(s, u) + w + d(v, t) > cost_K + eps`` where the distances are
  shortest paths on the edited *unmasked* graph and ``cost_K`` is the
  K-th returned cost — unmasked distances lower-bound masked ones, so
  no new path can enter any round's top-K.  (Rounds that returned fewer
  than K paths reject the certificate: a new edge could create paths.)

The rounds are walked by the encoder's own round loop
(:func:`repro.encoding.approximate._candidate_rounds`) on a private copy
of the edited graph, so the mask sets, and hence the cache keys
(:meth:`EncodeCache.yen_key`), line up with a cold build round for round.

Edges whose weight only *increased* and that appear on no returned path
are safe without a bound: paths through them were not in the top-K
before and only got worse.  Anything unprovable simply falls back to a
cold Yen query for that route — correctness never depends on the
certificate, only reuse does.
"""

from __future__ import annotations

from typing import Any

from repro.core.options import SolveOptions
from repro.core.results import SynthesisResult
from repro.encoding.approximate import _candidate_rounds
from repro.graph.digraph import DiGraph
from repro.graph.kernels import csr_of
from repro.geometry.primitives import Segment
from repro.network.requirements import (
    ReachabilityRequirement,
    RequirementSet,
    RouteRequirement,
)
from repro.network.topology import Architecture
from repro.runtime.cache import (
    REGION_PATHLOSS,
    REGION_YEN,
    EncodeCache,
    build_weighted_graph,
)
from repro.runtime.instrumentation import RunStats
from repro.scenarios.edits import EditDelta
from repro.scenarios.scenario import Scenario

#: Strict margin for the new-path exclusion bound, matching the cost
#: tolerances used elsewhere in the pipeline.
_BOUND_EPS = 1e-9


def prepare_cache(
    old: Scenario,
    new: Scenario,
    deltas: tuple[EditDelta, ...],
    cache: EncodeCache,
    *,
    stats: RunStats | None = None,
) -> dict[str, int]:
    """Transplant reusable artifacts from ``old``'s keys to ``new``'s.

    ``cache`` must be the cache the old scenario was solved with (its
    entries are the transplant source) and is the cache the new solve
    should use.  Assumes the encoder's default ``min-disjoint``
    disconnection rule, which is what :meth:`Scenario.explore` uses.
    Returns transplant counts; all zeros when the edits left every key
    unchanged (pure requirement or device edits), in which case the new
    solve hits the old entries directly.
    """
    info = {
        "graph_seeded": 0,
        "yen_routes_reused": 0,
        "yen_routes_aborted": 0,
        "yen_rounds_seeded": 0,
        "reach_seeded": 0,
    }
    if not any(d.template_changed or d.pathloss_changed for d in deltas):
        return info

    if isinstance(new.requirements, RequirementSet):
        old_gkey = EncodeCache.template_graph_key(old.template)
        new_gkey = EncodeCache.template_graph_key(new.template)
        if new_gkey != old_gkey and cache.peek(old_gkey) is not None:
            new_graph = build_weighted_graph(new.template)
            if cache.seed(REGION_PATHLOSS, new_gkey, new_graph, stats):
                info["graph_seeded"] = 1
            replayer = _YenReplayer(
                new_graph, old_gkey, new_gkey, _changed_edges(deltas)
            )
            for req in new.requirements.routes:
                seeded = replayer.replay(req, new.k_star, cache, stats)
                if seeded:
                    info["yen_routes_reused"] += 1
                    info["yen_rounds_seeded"] += seeded
                else:
                    info["yen_routes_aborted"] += 1

    info["reach_seeded"] = _transplant_reach(old, new, deltas, cache, stats)
    return info


def incremental_resolve(
    old: Scenario,
    new: Scenario,
    deltas: tuple[EditDelta, ...],
    *,
    previous: Architecture | None = None,
    cache: EncodeCache | None = None,
    options: SolveOptions | None = None,
    solver: Any = None,
) -> SynthesisResult:
    """Solve the edited scenario, reusing the old solve's compilation.

    ``cache`` should be the old solve's cache; ``previous`` the old
    architecture (the MILP warm-starts from it).  The result is exact:
    transplanted entries are provably identical to what a cold solve
    would compute, and the warm start only changes where the solver
    starts, not where it stops.
    """
    cache = cache if cache is not None else EncodeCache()
    prepare_cache(old, new, deltas, cache)
    return new.explore(
        cache=cache, options=options, previous=previous, solver=solver
    )


def cold_resolve(
    scenario: Scenario,
    *,
    options: SolveOptions | None = None,
    solver: Any = None,
) -> SynthesisResult:
    """Solve a fresh rebuild of ``scenario`` with an empty cache.

    The honest from-scratch baseline the incremental path is measured
    against (and the exactness oracle in the tests).
    """
    return scenario.rebuilt().explore(
        cache=EncodeCache(), options=options, solver=solver
    )


# -- Yen pool replay ----------------------------------------------------------


def _changed_edges(
    deltas: tuple[EditDelta, ...],
) -> dict[tuple[int, int], tuple[float | None, float | None]]:
    """Fold the deltas' edge changes: each edge's first old, last new weight.

    Edges that an edit chain changed and a later edit changed back drop
    out.
    """
    folded: dict[tuple[int, int], tuple[float | None, float | None]] = {}
    for delta in deltas:
        for u, v, w_old, w_new in delta.changed_edges:
            first = folded.get((u, v))
            folded[(u, v)] = (w_old if first is None else first[0], w_new)
    return {
        edge: (w_old, w_new)
        for edge, (w_old, w_new) in folded.items() if w_old != w_new
    }


class _Abort(Exception):
    """A round the old cache cannot provably answer: rebuild the route."""


class _YenReplayer:
    """Replays Algorithm 1's per-route cache-key walk against new keys."""

    def __init__(
        self,
        new_graph: DiGraph,
        old_gkey: str,
        new_gkey: str,
        changed: dict[tuple[int, int], tuple[float | None, float | None]],
    ) -> None:
        #: The certificate's unmasked distance source: the CSR view of
        #: ``new_graph``, the seeded entry, compiled here and shared by
        #: the copies the new solve's encoder masks.
        self.csr = csr_of(new_graph)
        #: The rounds mask edges here.
        self.graph = new_graph.copy()
        self.old_gkey = old_gkey
        self.new_gkey = new_gkey
        self.changed = changed
        self._distances: dict[tuple[int, bool], list[float]] = {}

    def distances(self, node: int, *, reverse: bool = False) -> list[float]:
        """``d(node, ·)``, or reversed ``d(·, node)``, by node index.

        Distances on the edited graph, one list per node and direction.
        """
        i = self.csr.index[node]
        if (i, reverse) not in self._distances:
            dist = self.csr.distances(i, reverse=reverse)
            self._distances[i, reverse] = dist.tolist()
        return self._distances[i, reverse]

    def _round_reusable(
        self, found: list[tuple[list[int], float]], k: int,
        source: int, target: int,
    ) -> bool:
        """The certificate: is the cached round valid on the new graph?"""
        if not self.changed:
            return True
        on_paths: set[tuple[int, int]] = set()
        for nodes, _cost in found:
            on_paths.update(zip(nodes, nodes[1:]))
        ds = dt = None
        index = self.csr.index
        for (u, v), (w_old, w_new) in self.changed.items():
            if (u, v) in on_paths:
                return False  # a cached path's cost or existence changed
            if w_new is None:
                continue  # removed, off every cached path: harmless
            if w_old is not None and w_new > w_old:
                continue  # grew worse, off every cached path: harmless
            # Added or cheapened: no path through it may reach the top-K.
            if len(found) < k:
                return False
            if ds is None or dt is None:
                ds = self.distances(source)
                dt = self.distances(target, reverse=True)
            bound = ds[index[u]] + w_new + dt[index[v]]
            if not bound > found[-1][1] + _BOUND_EPS:
                return False
        return True

    def replay(
        self,
        req: RouteRequirement,
        k_star: int,
        cache: EncodeCache,
        stats: RunStats | None,
    ) -> int:
        """Walk one route's rounds; seed new keys when all rounds certify.

        Runs the encoder's round loop with a Yen routine that answers
        each round from the old solve's entry under the same route, K and
        masks once the certificate holds for it, and aborts the route
        otherwise.  Returns the number of rounds seeded (0 on abort — the
        new solve then recomputes that route cold, which is always
        correct).
        """
        seeds: list[tuple[str, list[tuple[list[int], float]]]] = []

        def yen(
            graph: DiGraph, source: int, target: int, k: int
        ) -> list[tuple[list[int], float]]:
            found: list[tuple[list[int], float]] | None = cache.peek(
                EncodeCache.yen_key(self.old_gkey, graph, source, target, k)
            )
            if found is None or not self._round_reusable(
                found, k, source, target
            ):
                raise _Abort  # never run by the old solve, or not provable
            seeds.append((
                EncodeCache.yen_key(self.new_gkey, graph, source, target, k),
                found,
            ))
            return found

        try:
            _candidate_rounds(self.graph, req, k_star, yen)
        except _Abort:
            return 0
        seeded = 0
        for key, value in seeds:
            if cache.seed(REGION_YEN, key, value, stats):
                seeded += 1
        return seeded


# -- reachability ranking transplant ------------------------------------------


def _reach_requirement(scenario: Scenario) -> ReachabilityRequirement | None:
    reqs = scenario.requirements
    if isinstance(reqs, ReachabilityRequirement):
        return reqs
    return reqs.reachability


def _reach_key(scenario: Scenario, req: ReachabilityRequirement) -> str:
    anchors = [
        n for n in scenario.template.nodes if n.role == req.anchor_role
    ]
    return EncodeCache.reach_key(scenario.channel, anchors, req.test_points)


def _transplant_reach(
    old: Scenario,
    new: Scenario,
    deltas: tuple[EditDelta, ...],
    cache: EncodeCache,
    stats: RunStats | None,
) -> int:
    """Patch and re-seed the per-test-point anchor rankings, if cached.

    Only the (anchor, point) pairs whose ray crosses an edited wall — or
    whose anchor moved — are recomputed with the new channel's scalar
    model (the same call the cold compute makes); every other entry's
    crossed-wall set is unchanged, so its cold value is float-identical
    to the old one and carries over directly.
    """
    old_req = _reach_requirement(old)
    new_req = _reach_requirement(new)
    if old_req is None or new_req is None:
        return 0
    if tuple(old_req.test_points) != tuple(new_req.test_points):
        return 0
    old_key = _reach_key(old, old_req)
    new_key = _reach_key(new, new_req)
    if old_key == new_key:
        return 0
    old_rows = cache.peek(old_key)
    if old_rows is None:
        return 0

    anchors = [
        n for n in new.template.nodes if n.role == new_req.anchor_role
    ]
    moved = {
        d.moved_node for d in deltas if d.moved_node is not None
    }
    edited_walls = [w for d in deltas for w in d.walls]
    points = tuple(new_req.test_points)
    new_rows: list[list[tuple[float, int]]] = []
    for pi, point in enumerate(points):
        values = {aid: pl for pl, aid in old_rows[pi]}
        for anchor in anchors:
            ray = Segment(anchor.location, point)
            if anchor.id in moved or any(
                w.segment.intersects(ray) for w in edited_walls
            ):
                values[anchor.id] = new.channel.path_loss_db(
                    anchor.location, point
                )
        new_rows.append(
            sorted((pl, aid) for aid, pl in values.items())
        )
    return 1 if cache.seed(REGION_PATHLOSS, new_key, new_rows, stats) else 0
