"""Link-quality constraints — (2a)-(2b) of the paper.

For every edge the routing encoding can use, the received signal strength
is the linear expression

    RSS_ij = (tx_i + g_i) + g_j - PL_ij

over the sizing binaries (attributes are constants weighted by the
assignment variables), and SNR_ij = RSS_ij - noise_ij.  The quality bound
(2b) applies only to links that are actually active, so each row carries a
big-M relaxation on the edge variable:

    RSS_ij >= RSS* - M_ij * (1 - e_ij)

with M_ij tight per edge (from the library's attribute ranges and the
edge's path loss).  The expressions are exposed for reuse by the energy
constraints, which need SNR to compute expected transmission counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.constraints.mapping import MappingVars
from repro.encoding.base import Edge, RoutingEncoding
from repro.milp.expr import LinExpr
from repro.milp.model import Model
from repro.network.requirements import LinkQualityRequirement
from repro.network.template import Template


@dataclass
class LinkQualityVars:
    """RSS/SNR expressions and their valid bounds per encoded edge."""

    rss: dict[Edge, LinExpr] = field(default_factory=dict)
    #: Valid (lower, upper) bounds of the RSS expression, used as big-M
    #: sources by the energy encodings.
    rss_bounds: dict[Edge, tuple[float, float]] = field(default_factory=dict)
    noise_dbm: float = -100.0
    #: The RSS every active edge must reach (dBm), the larger of the
    #: requirement's RSS and SNR floors; ``None`` without a floor.
    rss_floor: float | None = None

    def snr(self, edge: Edge) -> LinExpr:
        """SNR expression of an edge (dB)."""
        return self.rss[edge] - self.noise_dbm

    def snr_bounds(self, edge: Edge) -> tuple[float, float]:
        """Valid bounds of the SNR expression."""
        lo, hi = self.rss_bounds[edge]
        return (lo - self.noise_dbm, hi - self.noise_dbm)


def quality_thresholds(
    requirement: LinkQualityRequirement | None, template: Template,
) -> list[tuple[str, float]]:
    """The (kind, RSS dBm) floors an active edge must reach."""
    if requirement is None:
        return []
    thresholds = []
    if requirement.min_rss_dbm is not None:
        thresholds.append(("rss", requirement.min_rss_dbm))
    min_snr = requirement.effective_min_snr_db(template.link_type.modulation)
    if min_snr is not None:
        thresholds.append(("snr", min_snr + template.link_type.noise_dbm))
    return thresholds


def build_link_quality(
    model: Model,
    template: Template,
    mapping: MappingVars,
    encoding: RoutingEncoding,
    requirement: LinkQualityRequirement | None,
) -> LinkQualityVars:
    """Create RSS expressions for encoded edges and add the (2b) bounds.

    With ``requirement=None`` only the expressions are built (the energy
    constraints still need them); no quality rows are added.
    """
    lq = LinkQualityVars(noise_dbm=template.link_type.noise_dbm)
    thresholds = quality_thresholds(requirement, template)
    if thresholds:
        lq.rss_floor = max(threshold for _, threshold in thresholds)

    # Each node's attribute expressions and bounds, built once per node
    # rather than once per incident edge.
    tx: dict[int, tuple[LinExpr, float, float]] = {}
    rx: dict[int, tuple[LinExpr, float, float]] = {}
    for (u, v), e_var in encoding.edge_active.items():
        if u not in tx:
            tx[u] = (mapping.tx_strength_expr(u), *mapping.tx_strength_bounds(u))
        if v not in rx:
            rx[v] = (mapping.rx_gain_expr(v), *mapping.rx_gain_bounds(v))
        tx_expr, tx_lo, tx_hi = tx[u]
        rx_expr, rx_lo, rx_hi = rx[v]
        pl = template.path_loss(u, v)
        rss = tx_expr + rx_expr - pl
        bounds = (tx_lo + rx_lo - pl, tx_hi + rx_hi - pl)
        lq.rss[(u, v)] = rss
        lq.rss_bounds[(u, v)] = bounds

        for kind, rss_threshold in thresholds:
            big_m = rss_threshold - bounds[0]
            if big_m <= 0:
                continue  # the bound holds for every sizing; no row needed
            model.add(
                rss >= rss_threshold - big_m * (1 - e_var),
                f"lq[{u},{v}]:{kind}",
            )
    return lq
