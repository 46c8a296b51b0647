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
    lifetime_budget_ma_ms,
    use_capacity,
    use_weights,
)
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
    etx_segments: int | None = None,
    include_energy: bool | None = None,
) -> SizeEstimate:
    """Exact size of the full-encoding MILP, computed without building it."""
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
    if requirements.link_quality is not None:
        # Mirror the builder: a row is only emitted when the bound can
        # actually be violated (big-M > 0 given the edge's path loss and
        # the worst-case sizing, including "node unused" = 0 dB).
        lq = requirements.link_quality
        noise = template.link_type.noise_dbm
        tx_lo_by_role: dict[str, float] = {}
        rx_lo_by_role: dict[str, float] = {}
        for node in template.nodes:
            if node.role in tx_lo_by_role:
                continue
            devices = library.for_role(node.role)
            tx_lo_by_role[node.role] = min(
                0.0, *(d.effective_tx_dbm for d in devices)
            ) if devices else 0.0
            rx_lo_by_role[node.role] = min(
                0.0, *(d.antenna_gain_dbi for d in devices)
            ) if devices else 0.0
        thresholds = []
        if lq.min_rss_dbm is not None:
            thresholds.append(lq.min_rss_dbm)
        min_snr = lq.effective_min_snr_db(template.link_type.modulation)
        if min_snr is not None:
            thresholds.append(min_snr + noise)
        for u, v, pl in template.edges():
            rss_lo = (
                tx_lo_by_role[template.node(u).role]
                + rx_lo_by_role[template.node(v).role]
                - pl
            )
            for rss_threshold in thresholds:
                if rss_threshold - rss_lo > 0:
                    num_cons += 1

    # -- energy ------------------------------------------------------------------
    if include_energy is None:
        include_energy = requirements.lifetime is not None
    if include_energy:
        curve = build_etx_curve(
            requirements.power.packet_bytes, template.link_type.modulation,
        )
        if etx_segments is None:
            etx_segments = len(curve.pwl.segments)
        noise = template.link_type.noise_dbm
        tx_lo = {
            node.id: min(
                0.0, *(d.effective_tx_dbm for d in library.for_role(node.role))
            ) if library.for_role(node.role) else 0.0
            for node in template.nodes
        }
        rx_lo = {
            node.id: min(
                0.0, *(d.antenna_gain_dbi for d in library.for_role(node.role))
            ) if library.for_role(node.role) else 0.0
            for node in template.nodes
        }
        dev_u = {node.id: devices_per_node[node.id] for node in template.nodes}
        for u, v, pl in template.edges():
            # etx, qtx, qrx + one w_tx and one w_rx per use.
            num_vars += 3 + 2 * replicas_total
            num_cons += etx_segments  # PWL rows
            # SNR-floor row, emitted only when the edge could dip below
            # the curve's domain (mirrors the builder's big-M check).
            snr_lo = tx_lo[u] + rx_lo[v] - pl - noise
            if curve.snr_floor - snr_lo > 0:
                num_cons += 1
            num_cons += dev_u[u] + dev_u[v]  # qtx/qrx device rows
            num_cons += 2 * replicas_total  # w activation rows
        touched = set(out_deg) | set(in_deg)
        lifetime = requirements.lifetime
        tdma = requirements.tdma
        airtime_ms = template.link_type.packet_airtime_ms(
            requirements.power.packet_bytes
        )
        budget = (
            lifetime_budget_ma_ms(lifetime, tdma, requirements.power)
            if lifetime is not None
            else 0.0
        )
        for node_id in touched:
            num_vars += 2  # qact, qsleep
            num_cons += 2 * dev_u[node_id]
            role = template.node(node_id).role
            if lifetime is None or role in lifetime.mains_roles:
                continue
            num_cons += 1  # lifetime budget
            # Capacity rows: every edge carries one use per replica, so a
            # device class's total use weight is a closed form.
            n_tx = replicas_total * out_deg.get(node_id, 0)
            n_rx = replicas_total * in_deg.get(node_id, 0)
            classes = current_classes(library.for_role(role))
            weights = [use_weights(c[0], tdma, airtime_ms) for c in classes]
            if all(w_tx > 0.0 and w_rx > 0.0 for w_tx, w_rx in weights):
                num_cons += sum(
                    1 for c, (w_tx, w_rx) in zip(classes, weights)
                    if n_tx * w_tx + n_rx * w_rx
                    > use_capacity(c[0], budget, tdma)
                )
    return SizeEstimate(num_vars=num_vars, num_constraints=num_cons)
