"""Closed-form problem-size estimates for the two encodings.

Table 3 of the paper compares constraint counts of the full and
approximate encodings; at large sizes the full model is too big to even
assemble (the paper reports those rows as "~" estimates).  This module
reproduces the arithmetic of the builders exactly — one term per loop in
:mod:`repro.encoding.full`, :mod:`repro.constraints.mapping`,
:mod:`repro.constraints.link_quality` and :mod:`repro.constraints.energy`
— so the estimate equals the built model's statistics whenever building
is feasible (a unit test pins this equality).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.channel.etx import build_etx_curve
from repro.constraints.energy import (
    current_classes,
    feasible_pair_snrs,
    lifetime_budget_ma_ms,
    surcharge_chords,
    use_capacity,
    use_weights,
)
from repro.constraints.link_quality import quality_thresholds
from repro.library.catalog import Library
from repro.network.requirements import RequirementSet
from repro.network.template import Template


@dataclass(frozen=True)
class SizeEstimate:
    """Estimated model size (variables, constraints)."""

    num_vars: int
    num_constraints: int

    def __str__(self) -> str:
        return f"{self.num_vars} vars, {self.num_constraints} constraints"


def estimate_full_encoding_stats(
    template: Template,
    requirements: RequirementSet,
    library: Library,
    include_energy: bool = False,
) -> SizeEstimate:
    """Exact size of the full-encoding MILP, computed without building it.

    ``include_energy`` counts what a request for the energy term adds —
    the energy objective or the Pareto sweep's budget row: the energy
    model even without a lifetime requirement, and the node charges.
    """
    n_edges = template.edge_count
    n_nodes = template.node_count
    replicas_total = requirements.total_replicas

    out_deg: dict[int, int] = {}
    in_deg: dict[int, int] = {}
    for u, v, _ in template.edges():
        out_deg[u] = out_deg.get(u, 0) + 1
        in_deg[v] = in_deg.get(v, 0) + 1
    succ_rows = sum(1 for d in out_deg.values() if d > 1)
    pred_rows = sum(1 for d in in_deg.values() if d > 1)

    devices_per_node = [
        len(library.for_role(node.role)) for node in template.nodes
    ]
    fixed_nodes = sum(1 for node in template.nodes if node.fixed)
    optional_nodes = n_nodes - fixed_nodes

    # -- mapping ------------------------------------------------------------
    num_vars = sum(devices_per_node) + n_nodes  # m vars + alpha vars
    num_cons = n_nodes + fixed_nodes  # one-device rows + alpha>=1 rows

    # -- routing (full encoding) ---------------------------------------------
    num_vars += n_edges  # edge_active
    num_vars += replicas_total * n_edges  # x vars
    per_replica_rows = n_edges + n_nodes + succ_rows + pred_rows
    num_cons += replicas_total * per_replica_rows
    for req in requirements.routes:
        if req.exact_hops is not None:
            num_cons += req.replicas
        else:
            bounds = (req.max_hops is not None) + (req.min_hops is not None)
            num_cons += req.replicas * bounds
        if req.disjoint and req.replicas > 1:
            pairs = req.replicas * (req.replicas - 1) // 2
            num_cons += pairs * n_edges
    # topology consistency: per edge, e >= each use, e <= sum, 2 endpoints.
    num_cons += n_edges * (replicas_total + 3)
    num_cons += optional_nodes  # alpha <= incident edges / isolated

    # -- link quality ----------------------------------------------------------
    # Mirror the builder: a row is only emitted when the bound can actually
    # be violated (big-M > 0 given the edge's path loss and the worst-case
    # sizing, including "node unused" = 0 dB).
    thresholds = [
        threshold for _, threshold in quality_thresholds(
            requirements.link_quality, template
        )
    ]
    tx_lo: dict[int, float] = {}
    rx_lo: dict[int, float] = {}
    for node in template.nodes:
        devices = library.for_role(node.role)
        tx_lo[node.id] = min(
            0.0, *(d.effective_tx_dbm for d in devices)
        ) if devices else 0.0
        rx_lo[node.id] = min(
            0.0, *(d.antenna_gain_dbi for d in devices)
        ) if devices else 0.0
    for u, v, pl in template.edges():
        rss_lo = tx_lo[u] + rx_lo[v] - pl
        num_cons += sum(1 for t in thresholds if t - rss_lo > 0)

    # -- energy ------------------------------------------------------------------
    needs_energy = include_energy or requirements.lifetime is not None
    if needs_energy and replicas_total:
        more_vars, more_cons = _energy_size(
            template, requirements, library, tx_lo, rx_lo,
            max(thresholds, default=None), include_energy,
        )
        num_vars += more_vars
        num_cons += more_cons
    return SizeEstimate(num_vars=num_vars, num_constraints=num_cons)


def _energy_size(
    template: Template,
    requirements: RequirementSet,
    library: Library,
    tx_lo: dict[int, float],
    rx_lo: dict[int, float],
    rss_floor: float | None,
    include_energy: bool,
) -> tuple[int, int]:
    """Columns and rows of :func:`repro.constraints.energy.build_energy`.

    In the full encoding every edge carries one use binary per replica,
    so each node's uses, and each class row's largest left side, are
    closed forms in its degrees.
    """
    uses = requirements.total_replicas
    curve = build_etx_curve(
        requirements.power.packet_bytes, template.link_type.modulation,
    )
    noise = template.link_type.noise_dbm
    tdma = requirements.tdma
    airtime_ms = template.link_type.packet_airtime_ms(
        requirements.power.packet_bytes
    )
    num_vars = num_cons = 0

    # Per edge: the SNR-floor row, and on surcharge edges the etx column,
    # its chord rows and one eta column and row per use.
    degree: dict[int, list[int]] = {}
    surcharge: dict[int, list[float]] = {}  # node -> [TX, RX] sum of U - 1
    for u, v, pl in template.edges():
        degree.setdefault(u, [0, 0])[0] += 1
        degree.setdefault(v, [0, 0])[1] += 1
        if curve.snr_floor - (tx_lo[u] + rx_lo[v] - pl - noise) > 0:
            num_cons += 1
        senders = library.for_role(template.node(u).role)
        receivers = library.for_role(template.node(v).role)
        snrs = feasible_pair_snrs(
            [d.effective_tx_dbm for d in senders],
            [d.antenna_gain_dbi for d in receivers],
            pl, noise, rss_floor, curve.snr_floor,
        )
        chords, top = surcharge_chords(curve, snrs)
        if chords:
            num_vars += 1 + uses
            num_cons += len(chords) + uses
            surcharge.setdefault(u, [0.0, 0.0])[0] += uses * (top - 1.0)
            surcharge.setdefault(v, [0.0, 0.0])[1] += uses * (top - 1.0)

    lifetime = requirements.lifetime
    budget = (
        lifetime_budget_ma_ms(lifetime, tdma, requirements.power)
        if lifetime is not None
        else 0.0
    )
    slots_per_report = tdma.slots * (
        tdma.report_interval_ms / tdma.superframe_ms
    )
    for node_id, (out_deg, in_deg) in degree.items():
        n_tx, n_rx = uses * out_deg, uses * in_deg
        if n_tx + n_rx > slots_per_report:
            num_cons += 1  # TDMA schedulability
        role = template.node(node_id).role
        classes = current_classes(library.for_role(role))
        sur_tx, sur_rx = surcharge.get(node_id, (0.0, 0.0))
        tops = []
        for members in classes:
            w_tx, w_rx = use_weights(members[0], tdma, airtime_ms)
            r_tx = members[0].radio_tx_ma * airtime_ms
            r_rx = members[0].radio_rx_ma * airtime_ms
            paid = max(r_tx, 0.0) * sur_tx + max(r_rx, 0.0) * sur_rx
            tops.append((n_tx * max(w_tx, 0.0) + n_rx * max(w_rx, 0.0), paid))
        if include_energy:
            # z[k,c] per use binary and class, one sum row per binary,
            # plus a surcharge column and row per class that pays one.
            binaries = n_tx + n_rx
            num_vars += binaries * len(classes)
            num_cons += binaries * (1 + len(classes))
            paying = sum(1 for _, paid in tops if paid > 0.0)
            num_vars += paying
            num_cons += paying
        if lifetime is None or role in lifetime.mains_roles:
            continue
        # Exact class rows, with the builder's carry-all test.
        num_cons += sum(
            1 for members, (weight, paid) in zip(classes, tops)
            if weight + paid > use_capacity(members[0], budget, tdma)
        )
        # Lifted capacity rows.
        weights = [use_weights(c[0], tdma, airtime_ms) for c in classes]
        if all(w_tx > 0.0 and w_rx > 0.0 for w_tx, w_rx in weights):
            num_cons += sum(
                1 for c, (w_tx, w_rx) in zip(classes, weights)
                if n_tx * w_tx + n_rx * w_rx
                > use_capacity(c[0], budget, tdma)
            )
    return num_vars, num_cons
