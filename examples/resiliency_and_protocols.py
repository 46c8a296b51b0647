"""Fault resiliency and MAC-protocol comparison on a synthesized design.

Extensions around the paper's evaluation: (a) quantify what the required
disjoint route replicas buy by injecting every single node/link fault into
the synthesized design; (b) compare the TDMA energy model the MILP
optimizes against a contention-based (CSMA/CA) alternative on the same
hardware, showing why duty-cycled contention shortens lifetimes.

Run:  python examples/resiliency_and_protocols.py
"""

from repro import (
    DataCollectionExplorer,
    LifetimeRequirement,
    LinkQualityRequirement,
    RequirementSet,
    default_catalog,
    synthetic_template,
)
from repro.failures import analyze_resiliency
from repro.protocols import CsmaConfig, csma_energy, csma_lifetime_years
from repro.validation import lifetime_years, validate


def main() -> None:
    instance = synthetic_template(40, 12, seed=8)
    requirements = RequirementSet()
    for sensor in instance.sensor_ids:
        requirements.require_route(sensor, instance.sink_id,
                                   replicas=2, disjoint=True)
    requirements.link_quality = LinkQualityRequirement(min_snr_db=20.0)
    requirements.lifetime = LifetimeRequirement(years=5.0)

    result = DataCollectionExplorer(
        instance.template, default_catalog(), requirements
    ).solve("cost")
    arch = result.architecture
    assert validate(arch, requirements).ok
    print(f"synthesized: {arch.summary()}\n")

    # --- fault injection ----------------------------------------------------
    report = analyze_resiliency(arch, requirements)
    print("single-fault analysis:")
    print(f"  survives any single link failure: "
          f"{report.survives_any_single_link_failure}"
          f"  (guaranteed by the link-disjoint replicas)")
    print(f"  survives any single node failure: "
          f"{report.survives_any_single_node_failure}")
    if report.critical_nodes:
        print(f"  critical relays (link-disjoint != node-disjoint): "
              f"{report.critical_nodes}")
        for node in report.critical_nodes:
            pairs = report.node_faults[node].disconnected_pairs
            print(f"    relay {node} carries both replicas of {pairs}")

    # --- TDMA vs CSMA -------------------------------------------------------
    config = CsmaConfig(rx_duty_cycle=0.01)
    csma_report = csma_energy(arch, requirements, config)
    print(f"\n{'node':>5} {'role':>7} {'TDMA life (y)':>13} "
          f"{'CSMA life (y)':>13}")
    for node_id in arch.used_nodes:
        role = arch.template.node(node_id).role
        if role == "sink":
            continue
        tdma_y = lifetime_years(arch, requirements, node_id)
        csma_y = csma_lifetime_years(arch, requirements, node_id, config)
        print(f"{node_id:>5} {role:>7} {tdma_y:>13.2f} {csma_y:>13.2f}")
    print(f"\nnetwork charge per report: TDMA "
          f"{sum(validate(arch, requirements).node_charge_ma_ms.values()):.0f}"
          f" mA*ms vs CSMA {csma_report.total_charge_ma_ms:.0f} mA*ms")
    print("idle listening dominates CSMA — the reason the paper's "
          "data-collection networks assume collision-free TDMA.")


if __name__ == "__main__":
    main()
