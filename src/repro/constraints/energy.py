"""Energy-consumption and lifetime constraints — (3a)-(3b) of the paper.

Charge accounting (unit: mA*ms) is per *reporting interval*: under the
collision-free TDMA protocol a node wakes only in its own TX/RX slots once
per report and sleeps otherwise (see DESIGN.md for why this reproduces the
paper's multi-year lifetimes).  Each radio use costs
``c_radio * airtime * ETX`` — the (3b) product with the expected
transmission count, priced at ``max(1, PWL ETX(SNR))`` — and each slot-use
replaces sleep by an awake slot.  With device ``d`` on node ``i`` and
route-use binaries ``y_k``:

    Q_i = sleep_d * T_report + sum_k w_d(k) y_k
          + airtime * sum_k r_d(k) (etx_k - 1) y_k

with ``w_d(k)`` (:func:`use_weights`) the use's charge at ETX = 1,
``r_d(k)`` the device's radio current in the use's direction and
``etx_k`` the ETX of the use's edge.  Devices of equal currents form one
*current class* (:func:`current_classes`); ``m_c`` sums its binaries.
The rows are exact on this form (proof in docs/formulation.md):

* **ETX surcharge.**  An edge's SNR is a constant per device pair.  Only
  an edge where some pair meeting the link-quality floor has PWL ETX
  above 1 gets an ``etx`` variable, with the chords that exceed 1 there,
  and a surcharge ``eta_k >= etx - 1 - (U - 1)(1 - y_k)`` per use
  (``U``: the edge's largest feasible PWL ETX).
* **Lifetime (3a).**  Per battery node and class that cannot carry all
  its candidate uses within ``C_c`` (:func:`use_capacity`):
  ``sum_k w_c(k) y_k + airtime * sum_k r_c(k) eta_k <= C_c + M_c (1 - m_c)``,
  ``M_c`` the row's largest left side minus ``C_c``.
* **Node charges** only for the energy objective and the Pareto budget
  row: :meth:`EnergyVars.total_charge` builds them on its first call
  from ``z[k,c] = y_k m_c`` plus a surcharge per class.
  :meth:`EnergyVars.charge_value` evaluates the charge on a solution.

The class rows leave the LP relaxation free to spread ``m_c`` across
classes, so each battery node also gets *lifted capacity rows*
``sum_k w_r(k) y_k <= sum_d cap[r,d] m_d``, ``cap[r,d]`` the largest
reference weight device ``d``'s knapsack ``sum_k w_d(k) y_k <= C_d``
admits (its fractional optimum).  They carry the root LP bound.
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
from repro.milp.piecewise import PwlSegment
from repro.network.requirements import LifetimeRequirement, PowerConfig, TdmaConfig
from repro.network.template import Template


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

#: Slack (dB) on the link-quality floor when deciding which device pairs
#: an active edge may carry: a pair within solver tolerance of the floor
#: still counts as feasible, which can only add rows.
_FLOOR_SLACK_DB = 1e-6


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


def feasible_pair_snrs(
    tx_dbm: list[float],
    rx_dbi: list[float],
    path_loss_db: float,
    noise_dbm: float,
    rss_floor: float | None,
    snr_floor: float,
) -> list[float]:
    """SNR (dB) of every device pair an active edge may carry.

    ``tx_dbm`` holds the sender's candidate devices' effective TX powers,
    ``rx_dbi`` the receiver's antenna gains.  A pair qualifies when it
    meets the link-quality RSS floor and the ETX curve's SNR floor, both
    within :data:`_FLOOR_SLACK_DB`.
    """
    snrs = []
    for tx in tx_dbm:
        for rx in rx_dbi:
            rss = tx + rx - path_loss_db
            if rss_floor is not None and rss < rss_floor - _FLOOR_SLACK_DB:
                continue
            snr = rss - noise_dbm
            if snr >= snr_floor - _FLOOR_SLACK_DB:
                snrs.append(snr)
    return snrs


def surcharge_chords(
    curve: EtxCurve, snrs: list[float],
) -> tuple[list[tuple[int, PwlSegment]], float]:
    """The chords that exceed ETX 1 at some of ``snrs``, and the top ETX.

    Returns ``(index, segment)`` pairs in curve order and the largest PWL
    ETX over ``snrs``; an empty list means every pair prices at ETX = 1.
    A chord is linear and the PWL convex, so both peak at the smallest
    or the largest SNR.
    """
    if not snrs:
        return [], 1.0
    ends = (min(snrs), max(snrs))
    chords = [
        (s_idx, seg) for s_idx, seg in enumerate(curve.pwl.segments)
        if max(seg.value_at(snr) for snr in ends) > 1.0
    ]
    return chords, max(curve.pwl_at(snr) for snr in ends)


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


@dataclass(frozen=True, eq=False)
class _Use:
    """One route use of an edge, seen from one of its endpoints."""

    binary: Var
    edge: Edge
    sends: bool
    #: ``eta`` of the use on a surcharge edge, else ``None``.
    surcharge: Var | None


@dataclass(frozen=True, eq=False)
class _CurrentClass:
    """One current class of a node: its binaries and per-use charges."""

    name: str
    binaries: tuple[Var, ...]
    w_tx: float
    w_rx: float
    #: Surcharge charge per unit of ``etx - 1``: airtime times current.
    r_tx: float
    r_rx: float
    #: Charge of sleeping through the whole reporting interval.
    sleep: float

    @classmethod
    def of(
        cls,
        members: list[Device],
        binaries: dict[str, Var],
        tdma: TdmaConfig,
        airtime_ms: float,
    ) -> _CurrentClass:
        """The class of ``members``, with their assignment binaries."""
        first = members[0]
        w_tx, w_rx = use_weights(first, tdma, airtime_ms)
        return cls(
            name=first.name,
            binaries=tuple(binaries[dev.name] for dev in members),
            w_tx=w_tx,
            w_rx=w_rx,
            r_tx=first.radio_tx_ma * airtime_ms,
            r_rx=first.radio_rx_ma * airtime_ms,
            sleep=first.sleep_ma * tdma.report_interval_ms,
        )

    def weight(self, use: _Use) -> float:
        return self.w_tx if use.sends else self.w_rx

    def rate(self, use: _Use) -> float:
        return self.r_tx if use.sends else self.r_rx

    def chosen(self) -> LinExpr:
        """``m_c``: one when the node carries a device of this class."""
        return lin_sum(list(self.binaries))


def _use_terms(
    cls: _CurrentClass, uses: list[_Use],
) -> tuple[dict[int, float], float]:
    """``sum_k w_c(k) y_k + sum_k r_c(k) eta_k`` and its largest value."""
    coeffs: dict[int, float] = {}
    for use in uses:
        index = use.binary.index
        coeffs[index] = coeffs.get(index, 0.0) + cls.weight(use)
    top = sum(max(c, 0.0) for c in coeffs.values())
    for use in uses:
        if use.surcharge is not None:
            rate = cls.rate(use)
            coeffs[use.surcharge.index] = rate
            top += max(rate, 0.0) * use.surcharge.upper
    return coeffs, top


@dataclass
class EnergyVars:
    """Handles of the energy model of one MILP.

    ``etx`` and ``surcharge`` cover the surcharge edges only; ``surcharge``
    lists each edge's ``eta`` per use, aligned with the encoding's
    ``edge_uses``.  The node charges are built on first access.
    """

    model: Model
    link_quality: LinkQualityVars
    etx_curve: EtxCurve
    slot_count: dict[int, LinExpr] = field(default_factory=dict)
    etx: dict[Edge, Var] = field(default_factory=dict)
    surcharge: dict[Edge, list[Var]] = field(default_factory=dict)
    _uses: dict[int, list[_Use]] = field(default_factory=dict, repr=False)
    _classes: dict[int, list[_CurrentClass]] = field(
        default_factory=dict, repr=False
    )
    _node_charge: dict[int, LinExpr] | None = field(default=None, repr=False)

    @property
    def node_charge(self) -> dict[int, LinExpr]:
        """Charge expression per touched node, built on first access."""
        if self._node_charge is None:
            self._node_charge = {
                node_id: self._build_charge(node_id) for node_id in self._uses
            }
        return self._node_charge

    def total_charge(self) -> LinExpr:
        """Network-wide charge per reporting interval (energy objective)."""
        total = LinExpr()
        for expr in self.node_charge.values():
            total = total + expr
        return total

    def _build_charge(self, node_id: int) -> LinExpr:
        """``Q_i`` exactly: ``z[k,c] = y_k m_c`` plus the surcharge."""
        model = self.model
        uses = self._uses[node_id]
        classes = self._classes[node_id]
        charge = LinExpr()
        for cls in classes:
            charge = charge + cls.chosen() * cls.sleep
        per_binary: dict[int, list[_Use]] = {}
        for use in uses:
            per_binary.setdefault(use.binary.index, []).append(use)
        for j, group in enumerate(per_binary.values()):
            z = [
                model.continuous(f"z[{node_id},{j}]:{cls.name}", 0.0, 1.0)
                for cls in classes
            ]
            model.add(lin_sum(z) == group[0].binary, f"z[{node_id},{j}]:sum")
            for z_c, cls in zip(z, classes):
                model.add(z_c <= cls.chosen(), f"z[{node_id},{j}]:{cls.name}")
                charge.add_term(z_c, sum(cls.weight(use) for use in group))
        for cls in classes:
            surcharge, top = LinExpr(), 0.0
            for use in uses:
                if use.surcharge is not None:
                    surcharge.add_term(use.surcharge, cls.rate(use))
                    top += max(cls.rate(use), 0.0) * use.surcharge.upper
            if top <= 0.0:
                continue
            paid = model.continuous(f"sur[{node_id}]:{cls.name}", 0.0, top)
            model.add(
                paid >= surcharge - top * (1 - cls.chosen()),
                f"sur[{node_id}]:{cls.name}",
            )
            charge = charge + paid
        return charge

    def charge_value(self, solution) -> float:
        """The least network charge the model admits at ``solution``.

        Evaluated on the solution's use and device binaries, so it is
        exact whether or not the charge block was built, and whether or
        not the solve priced it.
        """
        etx_over: dict[Edge, float] = {}
        for edge in self.etx:
            snr = solution.value(self.link_quality.snr(edge))
            etx_over[edge] = self.etx_curve.pwl_at(snr) - 1.0
        total = 0.0
        for node_id, uses in self._uses.items():
            cls = next(
                (
                    c for c in self._classes[node_id]
                    if any(solution.value_bool(b) for b in c.binaries)
                ),
                None,
            )
            if cls is None:
                continue
            total += cls.sleep
            for use in uses:
                if solution.value_bool(use.binary):
                    total += cls.weight(use)
                    if use.surcharge is not None:
                        total += cls.rate(use) * etx_over[use.edge]
        return total


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
    energy = EnergyVars(model=model, link_quality=lq, etx_curve=curve)
    noise = template.link_type.noise_dbm
    devices = {n: mapping.devices_for(n) for n in mapping.assign}
    tx_dbm = {n: [d.effective_tx_dbm for d in ds] for n, ds in devices.items()}
    rx_dbi = {n: [d.antenna_gain_dbi for d in ds] for n, ds in devices.items()}

    # --- per-edge SNR floors and ETX surcharges ------------------------------
    for (u, v), e_var in encoding.edge_active.items():
        uses = encoding.edge_uses.get((u, v), [])
        if not uses:
            continue
        snr = lq.snr((u, v))
        snr_lo, snr_hi = lq.snr_bounds((u, v))
        # The PWL is only valid above its SNR floor; an active edge must
        # clear it (an implied link-quality floor of the energy model).
        floor_m = curve.snr_floor - snr_lo
        if floor_m > 0:
            model.add(
                snr >= curve.snr_floor - floor_m * (1 - e_var),
                f"etx[{u},{v}]:snr_floor",
            )
        snrs = feasible_pair_snrs(
            tx_dbm[u], rx_dbi[v], template.path_loss(u, v), noise,
            lq.rss_floor, curve.snr_floor,
        )
        chords, top = surcharge_chords(curve, snrs)
        etas: list[Var] = []
        if chords:
            etx = model.continuous(f"etx[{u},{v}]", 1.0, top)
            energy.etx[(u, v)] = etx
            for s_idx, seg in chords:
                # Slack when the edge is inactive: the chord's largest
                # value over the SNR range, down to the ETX floor of 1.
                seg_max = max(seg.value_at(snr_lo), seg.value_at(snr_hi))
                big_m = max(0.0, seg_max - 1.0)
                model.add(
                    etx >= seg.slope * snr + seg.intercept
                    - big_m * (1 - e_var),
                    f"etx[{u},{v}]:seg{s_idx}",
                )
            for k, use in enumerate(uses):
                eta = model.continuous(f"eta[{u},{v}][{k}]", 0.0, top - 1.0)
                model.add(
                    eta >= etx - 1.0 - (top - 1.0) * (1 - use),
                    f"eta[{u},{v}][{k}]:on",
                )
                etas.append(eta)
            energy.surcharge[(u, v)] = etas
        for k, use in enumerate(uses):
            eta = etas[k] if etas else None
            energy._uses.setdefault(u, []).append(_Use(use, (u, v), True, eta))
            energy._uses.setdefault(v, []).append(_Use(use, (u, v), False, eta))

    # --- per-node TDMA schedulability and lifetime rows ----------------------
    slots_per_report = tdma.slots * (
        tdma.report_interval_ms / tdma.superframe_ms
    )
    budget = 0.0
    battery: set[int] = set()
    if lifetime is not None:
        budget = lifetime_budget_ma_ms(lifetime, tdma, power)
        battery = {
            node.id for node in template.nodes
            if node.role not in lifetime.mains_roles
        }
    for node_id in sorted(energy._uses):
        uses = sorted(energy._uses[node_id], key=lambda use: not use.sends)
        energy._uses[node_id] = uses
        k_expr = lin_sum([use.binary for use in uses])
        energy.slot_count[node_id] = k_expr
        # TDMA schedulability: slot-uses must fit the reporting interval.
        if len(uses) > slots_per_report:
            model.add(
                k_expr <= slots_per_report, f"k[{node_id}]:schedulable"
            )

        groups = current_classes(devices[node_id])
        classes = [
            _CurrentClass.of(members, mapping.assign[node_id], tdma, airtime_ms)
            for members in groups
        ]
        energy._classes[node_id] = classes

        if node_id not in battery:
            continue
        for cls, members in zip(classes, groups):
            capacity = use_capacity(members[0], budget, tdma)
            coeffs, top = _use_terms(cls, uses)
            if top <= capacity:
                continue  # this class carries every candidate use
            big_m = top - capacity
            for binary in cls.binaries:
                coeffs[binary.index] = big_m
            model.add(
                LinExpr(coeffs) <= capacity + big_m,
                f"lifetime[{node_id}]:{cls.name}:exact",
            )
        _add_capacity_rows(
            model, node_id,
            [use.binary for use in uses if use.sends],
            [use.binary for use in uses if not use.sends],
            devices[node_id], mapping.assign[node_id], budget, tdma,
            airtime_ms,
        )
    return energy
