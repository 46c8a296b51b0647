"""Localization (anchor coverage) constraints — (4a)-(4b) of the paper.

For every evaluation location (possible mobile-node position) the design
must place enough anchors whose signal reaches it:

    r_ij = (RSS_ij >= RSS*) AND alpha_i          (4a)
    sum_i r_ij >= N      for every test point j   (4b)

``RSS_ij`` here runs from a candidate anchor *i* to test point *j*; the
anchor side is the linear sizing expression (tx power + gain), the mobile
side is a constant receive gain.  Only the "r may not exceed reachability"
direction needs encoding — (4b) pushes r up, so an over-free r can never
help the solver.

Pruning: the paper applies Algorithm 1 with K* = 20 "candidate anchors for
every test point"; we instantiate r variables only for the K* candidate
anchors with the lowest path loss to each test point.  A full enumeration
would create |anchors| x |test points| rows (the "several millions" the
paper mentions); pruning keeps it at K* x |test points|.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.channel.base import ChannelModel
from repro.constraints.mapping import MappingVars
from repro.geometry.primitives import Point
from repro.milp.expr import LinExpr, Var, lin_sum
from repro.milp.model import Model
from repro.network.requirements import ReachabilityRequirement
from repro.network.template import Template
from repro.runtime.cache import anchor_rankings


@dataclass
class LocalizationVars:
    """Reachability variables and geometry for the DSOD objective."""

    #: (anchor id, test point index) -> reachability binary r_ij.
    reach: dict[tuple[int, int], Var] = field(default_factory=dict)
    #: (anchor id, test point index) -> anchor-to-test-point distance (m).
    distance: dict[tuple[int, int], float] = field(default_factory=dict)
    #: (anchor id, test point index) -> estimated path loss (dB).
    path_loss: dict[tuple[int, int], float] = field(default_factory=dict)
    test_points: tuple[Point, ...] = ()
    #: Anchor-used indicators, for the DSOD consolidation term.
    node_used: dict[int, Var] = field(default_factory=dict)

    def mean_candidate_distance(self) -> float:
        """Mean anchor-to-test-point distance over the pruned candidates."""
        if not self.distance:
            return 0.0
        return sum(self.distance.values()) / len(self.distance)

    def dsod_expr(self, anchor_penalty_m: float | None = None) -> LinExpr:
        """The DSOD surrogate objective.

        A linear stand-in for the Cramer-Rao-bound-derived metric of
        Redondi & Amaldi (see DESIGN.md): the summed distance between
        every test point and the anchors that count toward its coverage,
        plus a consolidation term of ``anchor_penalty_m`` metres per
        placed anchor.  The distance term pulls counted anchors close to
        the test points; the consolidation term makes anchor *reuse*
        valuable, so the optimum is a small set of strong, central
        anchors (the paper's Table 2: "a smaller number of more expensive
        nodes equipped with antennas") rather than one nearest anchor per
        test point.  The default penalty is eight times the mean candidate
        distance — scale-free in the floor geometry.  Note the interplay
        with the reachability pruning: consolidation can only exploit a
        strong anchor for test points whose candidate set contains it, so
        K* around 2x the paper's 20 gives the consolidation room to work.
        """
        if anchor_penalty_m is None:
            anchor_penalty_m = 8.0 * self.mean_candidate_distance()
        expr = LinExpr()
        for key, var in self.reach.items():
            expr.add_term(var, self.distance[key])
        for var in self.node_used.values():
            expr.add_term(var, anchor_penalty_m)
        return expr


def build_localization(
    model: Model,
    template: Template,
    mapping: MappingVars,
    requirement: ReachabilityRequirement,
    channel: ChannelModel,
    k_star: int = 20,
    *,
    cache=None,
    stats=None,
) -> LocalizationVars:
    """Create pruned reachability variables and the coverage rows.

    ``requirement.anchor_role`` selects which template nodes may serve as
    ranging anchors — ``"anchor"`` for dedicated localization networks,
    or ``"relay"`` for dual-use designs where the data-collection relays
    double as anchors.

    The anchor-to-test-point path-loss rankings (one channel-model
    evaluation per anchor x test point — the expensive part on multi-wall
    channels) are memoized in ``cache`` when one is supplied; one cached
    ranking serves every pruning level ``k_star``.
    """
    if k_star < requirement.min_anchors:
        raise ValueError(
            f"k_star={k_star} cannot satisfy min_anchors="
            f"{requirement.min_anchors}"
        )
    anchors = [
        n for n in template.nodes if n.role == requirement.anchor_role
    ]
    if not anchors:
        raise ValueError(
            f"template has no anchor candidates "
            f"(nodes with role {requirement.anchor_role!r})"
        )

    if cache is not None:
        rankings = cache.reach_rankings(
            channel, anchors, requirement.test_points, stats=stats
        )
    else:
        rankings = anchor_rankings(channel, anchors, requirement.test_points)

    by_id = {a.id: a for a in anchors}
    loc = LocalizationVars(
        test_points=requirement.test_points,
        node_used={a.id: mapping.node_used[a.id] for a in anchors},
    )
    for j, point in enumerate(requirement.test_points):
        reach_vars: list[Var] = []
        for pl, anchor_id in rankings[j][:k_star]:
            anchor = by_id[anchor_id]
            rss = (
                mapping.tx_strength_expr(anchor.id)
                + requirement.mobile_gain_dbi
                - pl
            )
            rss_lo = (
                mapping.tx_strength_bounds(anchor.id)[0]
                + requirement.mobile_gain_dbi
                - pl
            )
            r = model.binary(f"r[{anchor.id}][{j}]")
            model.add(
                r <= mapping.node_used[anchor.id], f"r[{anchor.id}][{j}]:used"
            )
            big_m = requirement.min_rss_dbm - rss_lo
            if big_m > 0:
                # r = 1 forces the anchor's signal to clear RSS* at j.
                model.add(
                    rss >= requirement.min_rss_dbm - big_m * (1 - r),
                    f"r[{anchor.id}][{j}]:rss",
                )
            key = (anchor.id, j)
            loc.reach[key] = r
            loc.distance[key] = anchor.location.distance_to(point)
            loc.path_loss[key] = pl
            reach_vars.append(r)
        model.add(
            lin_sum(reach_vars) >= requirement.min_anchors,
            f"cover[{j}]",
        )
    return loc
