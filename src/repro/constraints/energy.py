"""Energy-consumption and lifetime constraints — (3a)-(3b) of the paper.

Charge accounting (unit: mA*ms) is per *reporting interval*: under the
collision-free TDMA protocol a node wakes only in its own TX/RX slots once
per report and sleeps otherwise (see DESIGN.md for why this reproduces the
paper's multi-year lifetimes).  For node *i*:

    Q_i = sum of per-use TX charges + per-use RX charges
          + c_active_i * t_slot * k_i                      (awake slots)
          + c_sleep_i  * (T_report - t_slot * k_i)         (sleep time)

where ``k_i`` is the number of slot-uses (one per TX and one per RX as in
the paper) and each radio use costs ``c_radio * airtime * ETX`` — the
(3b) product with the expected-transmission count from the link's SNR.

Every nonlinear term is linearized with *lower-bound chaining*: charge
variables carry big-M lower-bound rows activated by the relevant binary
(device assignment ``m``, path use, edge activation), and since charge
only ever appears on the burden side — the lifetime budget (3a) and the
energy-minimization objective — the solver settles each variable exactly
on its active lower bound.  No exact product encodings are needed.

The lifetime requirement itself is the linear budget

    Q_i * (L* / T_report) <= battery_charge      for battery-powered roles,

exactly (3a) after multiplying out the denominator.

The LP relaxation zeroes every big-M of that chain, so the budget row
alone does not bound a node's route uses.  Each battery node therefore
also gets *lifted capacity rows* over its use binaries ``y_k`` and its
device binaries ``m_d``:

    sum_k w_r(k) * y_k  <=  sum_d cap[r,d] * m_d

With device ``d`` chosen, the chain's lower bounds at ETX >= 1 give
``Q_i >= sleep_d * T_report + sum_k w_d(k) * y_k``, where ``w_d(k)`` is
the use's radio charge plus one awake slot in place of a sleeping one,
so the uses must fit the knapsack ``sum_k w_d(k) * y_k <= C_d =
B - sleep_d * T_report``.  ``cap[r,d]`` is the largest reference weight
``sum_k w_r(k) * y_k`` that knapsack admits (its fractional optimum), so
every design the chain admits satisfies the row.  One row is emitted
per distinct set of device currents, and only when that device cannot
carry every candidate use.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.channel.etx import EtxCurve, build_etx_curve
from repro.constraints.link_quality import LinkQualityVars
from repro.constraints.mapping import MappingVars
from repro.encoding.base import Edge, RoutingEncoding
from repro.library.components import Device
from repro.milp.expr import LinExpr, Var, lin_sum
from repro.milp.model import Model
from repro.network.requirements import LifetimeRequirement, PowerConfig, TdmaConfig
from repro.network.template import Template


@dataclass
class EnergyVars:
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


def lifetime_budget_ma_ms(
    lifetime: LifetimeRequirement, tdma: TdmaConfig, power: PowerConfig,
) -> float:
    """Max allowed per-report charge for the battery to last ``years``."""
    lifetime_ms = lifetime.years * 365.25 * 24 * 3600 * 1000.0
    reports = lifetime_ms / tdma.report_interval_ms
    return power.battery_ma_ms / reports


#: Relative margin on every capacity coefficient: floating-point rounding
#: of the knapsack can then only loosen a capacity row, never cut a design.
_CAP_MARGIN = 1e-9


def use_weights(
    device: Device, tdma: TdmaConfig, airtime_ms: float,
) -> tuple[float, float]:
    """Least charge one TX use and one RX use add on ``device`` (mA*ms).

    The radio current over one packet airtime at ETX = 1, plus one awake
    slot that replaces a sleeping one.
    """
    awake = (device.active_ma - device.sleep_ma) * tdma.slot_ms
    return (
        device.radio_tx_ma * airtime_ms + awake,
        device.radio_rx_ma * airtime_ms + awake,
    )


def use_capacity(device: Device, budget: float, tdma: TdmaConfig) -> float:
    """Budget left for route uses once ``device`` has slept all interval."""
    return budget - device.sleep_ma * tdma.report_interval_ms


def current_classes(devices: list[Device]) -> list[list[Device]]:
    """Devices grouped by equal currents, in library order.

    Devices of one group weigh every use alike, so they share one
    capacity row and one coefficient in every other group's row.
    """
    groups: dict[tuple[float, float, float, float], list[Device]] = {}
    for dev in devices:
        key = (dev.radio_tx_ma, dev.radio_rx_ma, dev.active_ma, dev.sleep_ma)
        groups.setdefault(key, []).append(dev)
    return list(groups.values())


def _knapsack_cap(
    values: list[float], weights: list[float], capacity: float,
) -> float:
    """``max sum v_k y_k`` s.t. ``sum w_k y_k <= capacity``, ``0 <= y <= 1``.

    The fractional knapsack over positive weights, filled greedily by
    value per weight.  A negative ``capacity`` admits no design, so 0.
    """
    if capacity < 0.0:
        return 0.0
    total, room = 0.0, capacity
    order = sorted(
        range(len(values)), key=lambda k: values[k] / weights[k], reverse=True
    )
    for k in order:
        if weights[k] <= room:
            total += values[k]
            room -= weights[k]
        else:
            total += values[k] * room / weights[k]
            break
    return total * (1.0 + _CAP_MARGIN)


def _add_capacity_rows(
    model: Model,
    node_id: int,
    tx: list[Var],
    rx: list[Var],
    devices: list[Device],
    assign: dict[str, Var],
    budget: float,
    tdma: TdmaConfig,
    airtime_ms: float,
) -> None:
    """The lifted capacity rows ``lifetime[i]:<dev>`` of one battery node."""
    # (TX, RX) use counts per binary: a relay's path is both.
    counts: dict[int, list[int]] = {}
    for use in tx:
        counts.setdefault(use.index, [0, 0])[0] += 1
    for use in rx:
        counts.setdefault(use.index, [0, 0])[1] += 1
    classes = current_classes(devices)
    knapsacks: list[tuple[list[float], float]] = []
    for members in classes:
        w_tx, w_rx = use_weights(members[0], tdma, airtime_ms)
        if w_tx <= 0.0 or w_rx <= 0.0:
            return  # the greedy knapsack needs positive weights
        weights = [n_tx * w_tx + n_rx * w_rx for n_tx, n_rx in counts.values()]
        knapsacks.append((weights, use_capacity(members[0], budget, tdma)))
    for members, (ref_weights, ref_capacity) in zip(classes, knapsacks):
        if sum(ref_weights) <= ref_capacity:
            continue  # this device carries every candidate use
        coeffs = dict(zip(counts, ref_weights))
        for others, (weights, capacity) in zip(classes, knapsacks):
            cap = _knapsack_cap(ref_weights, weights, capacity)
            if cap > 0.0:
                for dev in others:
                    coeffs[assign[dev.name].index] = -cap
        model.add(
            LinExpr(coeffs) <= 0.0, f"lifetime[{node_id}]:{members[0].name}"
        )


def build_energy(
    model: Model,
    template: Template,
    mapping: MappingVars,
    encoding: RoutingEncoding,
    lq: LinkQualityVars,
    tdma: TdmaConfig,
    power: PowerConfig,
    lifetime: LifetimeRequirement | None = None,
    etx_curve: EtxCurve | None = None,
) -> EnergyVars:
    """Add the energy model for every node touched by encoded edges."""
    curve = etx_curve or build_etx_curve(
        power.packet_bytes, template.link_type.modulation
    )
    airtime_ms = template.link_type.packet_airtime_ms(power.packet_bytes)
    etx_cap = curve.etx_at(curve.snr_floor)
    energy = EnergyVars(etx_curve=curve)

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
