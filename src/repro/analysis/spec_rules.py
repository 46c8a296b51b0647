"""Spec-level analysis rules: problem inputs before encoding.

These rules run on the (template, requirements, library) triple and catch
the failure classes the paper prunes *structurally* — routes that no
candidate topology can realize, disjointness demands above the template's
min-cut, candidates no route can ever use, roles no device can realize,
and unit mixups in the channel/link-quality numbers.  All of them are
graph/interval checks in milliseconds, long before Yen enumeration or the
MILP solver run.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator

from repro.analysis.diagnostics import Diagnostic, Severity
from repro.analysis.rules import SpecContext, SpecRule, spec_rule
from repro.graph.digraph import DiGraph
from repro.network.requirements import RouteRequirement

#: Cap on node ids spelled out in aggregate messages.
_LIST_CAP = 8


def _shortest_hops(graph: DiGraph, source: int, dest: int) -> int | None:
    """BFS hop distance from ``source`` to ``dest`` (None if unreachable)."""
    if source == dest:
        return 0
    seen = {source}
    frontier = deque([(source, 0)])
    while frontier:
        node, hops = frontier.popleft()
        for succ, _ in graph.successors(node):
            if succ == dest:
                return hops + 1
            if succ not in seen:
                seen.add(succ)
                frontier.append((succ, hops + 1))
    return None


def _reachable_from(graph: DiGraph, sources: set[int], forward: bool) -> set[int]:
    """Multi-source BFS closure (forward over successors, else backward)."""
    seen = set(sources)
    frontier = deque(sources)
    while frontier:
        node = frontier.popleft()
        neighbours = (
            graph.successors(node) if forward else graph.predecessors(node)
        )
        for nbr, _ in neighbours:
            if nbr not in seen:
                seen.add(nbr)
                frontier.append(nbr)
    return seen


def _unmasked_successors(graph: DiGraph) -> dict[int, list[int]]:
    """Every node's successors over the unmasked edges."""
    successors: dict[int, list[int]] = {}
    for u, v, _ in graph.edges():
        if not graph.is_masked(u, v):
            successors.setdefault(u, []).append(v)
    return successors


def _edge_disjoint_paths(
    successors: dict[int, list[int]], source: int, dest: int, limit: int
) -> int:
    """Max number of edge-disjoint ``source``->``dest`` paths, capped.

    Edmonds-Karp with unit edge capacities over ``successors``, which is
    shared by every route of a check and never modified: the route's
    flow lives in a small overlay of net per-arc flows, so an arc's
    residual capacity is its template capacity minus its net flow.  The
    cap keeps the work at ``O(limit * E)``, enough to decide whether a
    requested replica count fits under the template's min-cut; the
    capped count is ``min(max-flow, limit)`` whatever paths are found.
    """
    # flow[u][v] == -flow[v][u]: net units pushed along u->v.
    flow: dict[int, dict[int, int]] = {}
    paths = 0
    while paths < limit:
        parents: dict[int, int] = {source: source}
        frontier = deque([source])
        while frontier and dest not in parents:
            node = frontier.popleft()
            pushed = flow.get(node, {})
            for succ in successors.get(node, ()):
                if succ not in parents and pushed.get(succ, 0) < 1:
                    parents[succ] = node
                    frontier.append(succ)
            # Cancelling flow pushed into this node is a residual arc.
            for succ, units in pushed.items():
                if units < 0 and succ not in parents:
                    parents[succ] = node
                    frontier.append(succ)
        if dest not in parents:
            break
        node = dest
        while node != source:
            parent = parents[node]
            out = flow.setdefault(parent, {})
            out[node] = out.get(node, 0) + 1
            back = flow.setdefault(node, {})
            back[parent] = back.get(parent, 0) - 1
            node = parent
        paths += 1
    return paths


def _route_location(index: int, route: RouteRequirement) -> str:
    return f"route[{index}] ({route.source}->{route.dest})"


def _valid_endpoints(ctx: SpecContext, route: RouteRequirement) -> bool:
    n = ctx.template.node_count
    return 0 <= route.source < n and 0 <= route.dest < n


@spec_rule
class RouteConnectivityRule(SpecRule):
    """Every required route must have at least one candidate path."""

    rule_id = "spec.route-connectivity"
    default_severity = Severity.ERROR
    title = "required route has no candidate path in the template"
    example = (
        "``has_path(sink, sensor[1])`` on a data-collection template — the "
        "sink never transmits, so no path can leave it"
    )
    hint = (
        "check the route's direction and endpoints, add relay candidates, "
        "or raise the template's path-loss cutoff"
    )

    def check(self, ctx: SpecContext) -> Iterator[Diagnostic]:
        for i, route in enumerate(ctx.routes):
            if not _valid_endpoints(ctx, route):
                yield self.diagnostic(
                    f"endpoint out of range: template has "
                    f"{ctx.template.node_count} nodes",
                    location=_route_location(i, route),
                    hint="route endpoints must be valid template node ids",
                    route=i,
                )
                continue
            hops = _shortest_hops(ctx.template.graph, route.source, route.dest)
            if hops is None:
                tx = ctx.template.node(route.source)
                yield self.diagnostic(
                    f"no candidate path from node {route.source} "
                    f"({tx.role}) to node {route.dest} "
                    f"({ctx.template.node(route.dest).role})",
                    location=_route_location(i, route),
                    route=i,
                )


@spec_rule
class RouteMinCutRule(SpecRule):
    """Disjoint replica demand must fit under the template's min-cut."""

    rule_id = "spec.route-min-cut"
    default_severity = Severity.ERROR
    title = "requested disjoint replicas exceed the template's min-cut"
    example = (
        "``has_paths(sensors, sink, replicas=64, disjoint=true)`` when a "
        "sensor has only a handful of outgoing candidate links"
    )
    hint = (
        "add relay candidates near the bottleneck, lower replicas, or drop "
        "disjoint=true"
    )

    def check(self, ctx: SpecContext) -> Iterator[Diagnostic]:
        successors: dict[int, list[int]] | None = None
        for i, route in enumerate(ctx.routes):
            if route.replicas < 2 or not route.disjoint:
                continue
            if not _valid_endpoints(ctx, route):
                continue
            if successors is None:
                successors = _unmasked_successors(ctx.template.graph)
            cut = _edge_disjoint_paths(
                successors, route.source, route.dest, route.replicas
            )
            if 0 < cut < route.replicas:
                yield self.diagnostic(
                    f"template supports at most {cut} link-disjoint "
                    f"route(s) but {route.replicas} replicas are required",
                    location=_route_location(i, route),
                    route=i,
                    min_cut=cut,
                    replicas=route.replicas,
                )


@spec_rule
class HopBoundsRule(SpecRule):
    """Hop bounds must be achievable on the template."""

    rule_id = "spec.hop-bounds"
    default_severity = Severity.ERROR
    title = "hop bound is unsatisfiable on this template"
    example = (
        "``min_hops(p, 500)`` on a 37-node template (a simple path has at "
        "most 36 hops), or ``max_hops(p, 1)`` when the shortest candidate "
        "route needs 3 hops"
    )
    hint = "relax the hop bound or densify the template"

    def check(self, ctx: SpecContext) -> Iterator[Diagnostic]:
        longest = ctx.template.node_count - 1
        for i, route in enumerate(ctx.routes):
            if not _valid_endpoints(ctx, route):
                continue
            where = _route_location(i, route)
            for kind, bound in (("min_hops", route.min_hops),
                                ("exact_hops", route.exact_hops)):
                if bound is not None and bound > longest:
                    yield self.diagnostic(
                        f"{kind}={bound} exceeds the longest simple path "
                        f"({longest} hops on {ctx.template.node_count} nodes)",
                        location=where, route=i, bound=bound,
                    )
            shortest = _shortest_hops(
                ctx.template.graph, route.source, route.dest
            )
            if shortest is None:
                continue  # spec.route-connectivity already fired
            for kind, bound in (("max_hops", route.max_hops),
                                ("exact_hops", route.exact_hops)):
                if bound is not None and bound < shortest:
                    yield self.diagnostic(
                        f"{kind}={bound} but the shortest candidate route "
                        f"needs {shortest} hops",
                        location=where, route=i,
                        bound=bound, shortest=shortest,
                    )


@spec_rule
class UnreachableNodesRule(SpecRule):
    """Optional candidates no required route can ever use."""

    rule_id = "spec.unreachable-nodes"
    default_severity = Severity.WARNING
    title = "candidate nodes lie on no source->destination corridor"
    example = (
        "a relay candidate with no candidate links (or links pointing away "
        "from every required destination) — it inflates the encoding but "
        "can never carry traffic"
    )
    hint = (
        "prune the candidates from the template or revisit the path-loss "
        "cutoff that isolated them"
    )

    def check(self, ctx: SpecContext) -> Iterator[Diagnostic]:
        if not ctx.routes:
            return
        sources = {r.source for r in ctx.routes
                   if _valid_endpoints(ctx, r)}
        dests = {r.dest for r in ctx.routes if _valid_endpoints(ctx, r)}
        if not sources or not dests:
            return
        corridor = (
            _reachable_from(ctx.template.graph, sources, forward=True)
            & _reachable_from(ctx.template.graph, dests, forward=False)
        )
        anchor_role = (
            ctx.reachability.anchor_role if ctx.reachability else None
        )
        stranded = [
            node.id
            for node in ctx.template.nodes
            if not node.fixed
            and node.role != anchor_role
            and node.id not in corridor
        ]
        if stranded:
            shown = ", ".join(str(n) for n in stranded[:_LIST_CAP])
            if len(stranded) > _LIST_CAP:
                shown += f", ... ({len(stranded) - _LIST_CAP} more)"
            yield self.diagnostic(
                f"{len(stranded)} optional candidate node(s) can serve no "
                f"required route: {shown}",
                location=f"template {ctx.template.name!r}",
                nodes=stranded,
            )


@spec_rule
class LibraryCoverageRule(SpecRule):
    """Some library device must be able to realize every used role."""

    rule_id = "spec.library-coverage"
    default_severity = Severity.ERROR
    title = "a template role has no compatible library device"
    example = (
        "a template with ``sink`` nodes solved against a library whose "
        "devices only support ``sensor``/``relay``"
    )
    hint = "add a device supporting the role or retire the nodes"

    def check(self, ctx: SpecContext) -> Iterator[Diagnostic]:
        if ctx.library is None:
            return
        anchor_role = (
            ctx.reachability.anchor_role if ctx.reachability else None
        )
        roles = sorted({n.role for n in ctx.template.nodes})
        for role in roles:
            if ctx.library.for_role(role):
                continue
            nodes = ctx.template.by_role(role)
            fixed = [n for n in nodes if n.fixed]
            # Optional candidates without a device are merely wasted
            # encoding; fixed nodes (or the anchors a reachability
            # requirement must place) make the problem infeasible.
            blocking = bool(fixed) or role == anchor_role
            yield self.diagnostic(
                f"no library device supports role {role!r} "
                f"({len(nodes)} node(s), {len(fixed)} fixed)",
                location=f"role {role!r}",
                severity=None if blocking else Severity.WARNING,
                role=role,
            )
        if ctx.reachability is not None and anchor_role not in roles:
            yield self.diagnostic(
                f"reachability requirement needs role {anchor_role!r} but "
                f"the template has no such candidates",
                location=f"role {anchor_role!r}",
                hint="add anchor candidates or fix anchor_role",
                role=anchor_role,
            )


@spec_rule
class UnitConsistencyRule(SpecRule):
    """Channel/link-quality numbers must be plausible in their units."""

    rule_id = "spec.unit-consistency"
    default_severity = Severity.WARNING
    title = "a threshold looks like it is in the wrong unit"
    example = (
        "``min_rss(10)`` — receive thresholds are negative dBm in "
        "practice; +10 suggests a mW or percentage value slipped in"
    )
    hint = "RSS/noise are dBm (negative), SNR is dB (typically 3..40)"

    def check(self, ctx: SpecContext) -> Iterator[Diagnostic]:
        lq = ctx.link_quality
        if lq is not None:
            if lq.min_rss_dbm is not None and lq.min_rss_dbm > 0:
                yield self.diagnostic(
                    f"min RSS of {lq.min_rss_dbm:+.1f} dBm is positive; "
                    f"receiver sensitivities are negative dBm",
                    location="link_quality.min_rss_dbm",
                    value=lq.min_rss_dbm,
                )
            if lq.min_snr_db is not None and 0 < lq.min_snr_db < 1:
                yield self.diagnostic(
                    f"min SNR of {lq.min_snr_db} dB is below 1 dB; this "
                    f"looks like a linear ratio, not decibels",
                    location="link_quality.min_snr_db",
                    value=lq.min_snr_db,
                )
        reach = ctx.reachability
        if reach is not None and reach.min_rss_dbm > 0:
            yield self.diagnostic(
                f"reachability RSS of {reach.min_rss_dbm:+.1f} dBm is "
                f"positive; receiver sensitivities are negative dBm",
                location="reachability.min_rss_dbm",
                value=reach.min_rss_dbm,
            )
        noise = ctx.template.link_type.noise_dbm
        if noise >= 0:
            yield self.diagnostic(
                f"link noise floor of {noise:+.1f} dBm is non-negative; "
                f"thermal noise floors sit far below 0 dBm",
                location=f"link_type {ctx.template.link_type.name!r}",
                value=noise,
            )


@spec_rule
class QualityPrunedConnectivityRule(SpecRule):
    """Quality bounds must leave every required route connected."""

    rule_id = "spec.quality-pruned-connectivity"
    default_severity = Severity.WARNING
    title = (
        "after dropping links that cannot meet the quality bound with any "
        "device, a required route is disconnected"
    )
    example = (
        "``min_signal_to_noise(85)`` — even the best PA + antenna pairing "
        "cannot reach 85 dB SNR across any candidate link, so every route "
        "is doomed before encoding"
    )
    hint = (
        "relax the RSS/SNR/BER bound, add stronger devices to the library, "
        "or densify the template"
    )

    def check(self, ctx: SpecContext) -> Iterator[Diagnostic]:
        threshold = self._rss_threshold(ctx)
        if threshold is None or ctx.library is None:
            return
        tx_hi = ctx.library.tx_gain_range()[1]
        rx_hi = ctx.library.rx_gain_range()[1]
        max_pl = tx_hi + rx_hi - threshold
        filtered = DiGraph()
        for node in ctx.template.graph.nodes():
            filtered.add_node(node)
        dropped = 0
        for u, v, pl in ctx.template.edges():
            if pl <= max_pl + 1e-9:
                filtered.add_edge(u, v, pl)
            else:
                dropped += 1
        if not dropped:
            return
        for i, route in enumerate(ctx.routes):
            if not _valid_endpoints(ctx, route):
                continue
            if _shortest_hops(
                ctx.template.graph, route.source, route.dest
            ) is None:
                continue  # spec.route-connectivity already fired
            if _shortest_hops(filtered, route.source, route.dest) is None:
                yield self.diagnostic(
                    f"route is connected on the template but not after "
                    f"dropping {dropped} link(s) whose path loss exceeds "
                    f"{max_pl:.1f} dB (best-device RSS floor "
                    f"{threshold:.1f} dBm)",
                    location=_route_location(i, route),
                    route=i,
                    max_path_loss_db=round(max_pl, 3),
                    rss_threshold_dbm=round(threshold, 3),
                )

    @staticmethod
    def _rss_threshold(ctx: SpecContext) -> float | None:
        """The RSS floor implied by the route link-quality bounds (dBm)."""
        lq = ctx.link_quality
        if lq is None or not ctx.routes:
            return None
        if ctx.library is None or not ctx.library.devices:
            return None
        link = ctx.template.link_type
        bounds: list[float] = []
        if lq.min_rss_dbm is not None:
            bounds.append(lq.min_rss_dbm)
        snr = lq.effective_min_snr_db(link.modulation)
        if snr is not None:
            bounds.append(snr + link.noise_dbm)
        return max(bounds) if bounds else None
