"""The big-M energy chain, kept as the reference for the exact energy rows.

This is the (3a)-(3b) builder the library used before its exact per-class
lifetime rows: every nonlinear charge term is a continuous variable with
big-M *lower-bound* rows activated by the relevant binary, and the
solver settles each on its active bound because charge only appears on
the burden side (the lifetime budget and the energy objective).

* ``etx[u,v]`` on every used edge, above every PWL chord of ETX(SNR);
* ``qtx``/``qrx`` per edge, above each candidate device's radio charge;
* ``wtx``/``wrx`` per route use, equal to the edge charge when used;
* ``qact``/``qsleep`` per node, above each device's awake/sleep charge;
* the aggregate budget ``lifetime[i]`` on a battery node's charge, plus
  the lifted capacity rows ``lifetime[i]:<dev>`` the library still emits.

The exact model in :mod:`repro.constraints.energy` must admit the same
integer designs at the same least charge; the energy differential
(``tools/check_energy_differential.py``) and the tests swap this builder
in through :func:`chain_energy` to hold it to that.
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from unittest import mock

from repro.channel.etx import EtxCurve, build_etx_curve
from repro.constraints.energy import _add_capacity_rows, lifetime_budget_ma_ms
from repro.constraints.link_quality import LinkQualityVars
from repro.constraints.mapping import MappingVars
from repro.encoding.base import Edge, RoutingEncoding
from repro.milp.expr import LinExpr, Var, lin_sum
from repro.milp.model import Model
from repro.network.requirements import LifetimeRequirement, PowerConfig, TdmaConfig
from repro.network.template import Template


@dataclass
class ChainEnergyVars:
    """Charge expressions (mA*ms per reporting interval) per node."""

    node_charge: dict[int, LinExpr] = field(default_factory=dict)
    slot_count: dict[int, LinExpr] = field(default_factory=dict)
    etx: dict[Edge, Var] = field(default_factory=dict)
    etx_curve: EtxCurve | None = None

    def total_charge(self) -> LinExpr:
        """Network-wide charge per reporting interval (energy objective)."""
        total = LinExpr()
        for expr in self.node_charge.values():
            total = total + expr
        return total

    def charge_value(self, solution) -> float:
        """The chain's charge at ``solution``, as its variables settled.

        Exact only where the solve priced energy; elsewhere the charge
        variables sit anywhere above their lower bounds.
        """
        return solution.value(self.total_charge())


def build_energy_chain(
    model: Model,
    template: Template,
    mapping: MappingVars,
    encoding: RoutingEncoding,
    lq: LinkQualityVars,
    tdma: TdmaConfig,
    power: PowerConfig,
    lifetime: LifetimeRequirement | None = None,
    etx_curve: EtxCurve | None = None,
) -> ChainEnergyVars:
    """Add the big-M energy chain for every node touched by encoded edges."""
    curve = etx_curve or build_etx_curve(
        power.packet_bytes, template.link_type.modulation
    )
    airtime_ms = template.link_type.packet_airtime_ms(power.packet_bytes)
    etx_cap = curve.etx_at(curve.snr_floor)
    energy = ChainEnergyVars(etx_curve=curve)

    # --- per-edge ETX variables and per-use radio charges -------------------
    tx_uses: dict[int, list[Var]] = {}
    rx_uses: dict[int, list[Var]] = {}
    tx_charge_terms: dict[int, list[Var]] = {}
    rx_charge_terms: dict[int, list[Var]] = {}

    for (u, v), e_var in encoding.edge_active.items():
        uses = encoding.edge_uses.get((u, v), [])
        if not uses:
            continue
        snr = lq.snr((u, v))
        snr_lo, snr_hi = lq.snr_bounds((u, v))

        # ETX variable with PWL lower bounds, active only when the edge is.
        etx = model.continuous(f"etx[{u},{v}]", 1.0, etx_cap)
        energy.etx[(u, v)] = etx
        for s_idx, seg in enumerate(curve.pwl.segments):
            # Worst slack needed when the edge is inactive: the segment's
            # largest value over the SNR range, down to the ETX floor of 1.
            seg_max = max(seg.value_at(snr_lo), seg.value_at(snr_hi))
            big_m = max(0.0, seg_max - 1.0)
            model.add(
                etx >= seg.slope * snr + seg.intercept - big_m * (1 - e_var),
                f"etx[{u},{v}]:seg{s_idx}",
            )
        # The PWL is only valid above its SNR floor; an active edge must
        # clear it (an implied link-quality floor of the energy model).
        floor_m = curve.snr_floor - snr_lo
        if floor_m > 0:
            model.add(
                snr >= curve.snr_floor - floor_m * (1 - e_var),
                f"etx[{u},{v}]:snr_floor",
            )

        # Per-packet radio charges, lower-bounded per candidate device.
        tx_devs = mapping.devices_for(u)
        rx_devs = mapping.devices_for(v)
        qtx_ub = max((d.radio_tx_ma for d in tx_devs), default=0.0)
        qrx_ub = max((d.radio_rx_ma for d in rx_devs), default=0.0)
        qtx_ub *= airtime_ms * etx_cap
        qrx_ub *= airtime_ms * etx_cap
        qtx = model.continuous(f"qtx[{u},{v}]", 0.0, qtx_ub)
        qrx = model.continuous(f"qrx[{u},{v}]", 0.0, qrx_ub)
        for dev in tx_devs:
            m_var = mapping.assign[u][dev.name]
            coeff = dev.radio_tx_ma * airtime_ms
            model.add(
                qtx >= coeff * etx - coeff * etx_cap * (1 - m_var),
                f"qtx[{u},{v}]:{dev.name}",
            )
        for dev in rx_devs:
            m_var = mapping.assign[v][dev.name]
            coeff = dev.radio_rx_ma * airtime_ms
            model.add(
                qrx >= coeff * etx - coeff * etx_cap * (1 - m_var),
                f"qrx[{u},{v}]:{dev.name}",
            )

        # One charge term per route use of the edge.
        for k, use in enumerate(uses):
            w_tx = model.continuous(f"wtx[{u},{v}][{k}]", 0.0, qtx_ub)
            model.add(
                w_tx >= qtx - qtx_ub * (1 - use), f"wtx[{u},{v}][{k}]:on"
            )
            w_rx = model.continuous(f"wrx[{u},{v}][{k}]", 0.0, qrx_ub)
            model.add(
                w_rx >= qrx - qrx_ub * (1 - use), f"wrx[{u},{v}][{k}]:on"
            )
            tx_charge_terms.setdefault(u, []).append(w_tx)
            rx_charge_terms.setdefault(v, []).append(w_rx)
            tx_uses.setdefault(u, []).append(use)
            rx_uses.setdefault(v, []).append(use)

    # --- per-node active/sleep charges and lifetime budgets ------------------
    slots_per_report = tdma.slots * (
        tdma.report_interval_ms / tdma.superframe_ms
    )
    budget = (
        lifetime_budget_ma_ms(lifetime, tdma, power)
        if lifetime is not None
        else None
    )

    touched = sorted(set(tx_uses) | set(rx_uses))
    for node_id in touched:
        uses = tx_uses.get(node_id, []) + rx_uses.get(node_id, [])
        k_expr = lin_sum(uses)
        energy.slot_count[node_id] = k_expr
        k_ub = float(len(uses))
        # TDMA schedulability: slot-uses must fit the reporting interval.
        if k_ub > slots_per_report:
            model.add(
                k_expr <= slots_per_report, f"k[{node_id}]:schedulable"
            )
            k_ub = slots_per_report

        devices = mapping.devices_for(node_id)
        qact_ub = max((d.active_ma for d in devices), default=0.0)
        qact_ub *= tdma.slot_ms * k_ub
        qact = model.continuous(f"qact[{node_id}]", 0.0, max(qact_ub, 0.0))
        qsleep_ub = max((d.sleep_ma for d in devices), default=0.0)
        qsleep_ub *= tdma.report_interval_ms
        qsleep = model.continuous(
            f"qsleep[{node_id}]", 0.0, max(qsleep_ub, 0.0)
        )
        for dev in devices:
            m_var = mapping.assign[node_id][dev.name]
            act_coeff = dev.active_ma * tdma.slot_ms
            model.add(
                qact >= act_coeff * k_expr - act_coeff * k_ub * (1 - m_var),
                f"qact[{node_id}]:{dev.name}",
            )
            sleep_time = tdma.report_interval_ms - tdma.slot_ms * k_expr
            big_m = dev.sleep_ma * tdma.report_interval_ms
            model.add(
                qsleep >= dev.sleep_ma * sleep_time - big_m * (1 - m_var),
                f"qsleep[{node_id}]:{dev.name}",
            )

        charge = (
            lin_sum(tx_charge_terms.get(node_id, []))
            + lin_sum(rx_charge_terms.get(node_id, []))
            + qact
            + qsleep
        )
        energy.node_charge[node_id] = charge

        if budget is not None:
            role = template.node(node_id).role
            if role not in lifetime.mains_roles:
                model.add(charge <= budget, f"lifetime[{node_id}]")
                _add_capacity_rows(
                    model, node_id, tx_uses.get(node_id, []),
                    rx_uses.get(node_id, []), devices,
                    mapping.assign[node_id], budget, tdma, airtime_ms,
                )
    return energy


@contextmanager
def chain_energy() -> Iterator[None]:
    """Explorers built inside this block use the big-M chain."""
    with mock.patch("repro.core.explorer.build_energy", build_energy_chain):
        yield
