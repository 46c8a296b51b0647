"""Single-fault resiliency analysis — the exhaustive k=1 pattern family.

Expressed through the failure-pattern machinery: every used
non-terminal node and every active directed link becomes a one-element
:class:`~repro.failures.patterns.FailurePattern`, and the survival
predicate is the shared :meth:`FailurePattern.kills_route`.  Verdicts
come in deterministic sorted order.

For multi-element and correlated geometric failures, use the full
machinery: :func:`repro.failures.generate_patterns` +
:func:`repro.failures.verify_patterns`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.failures.patterns import FailurePattern
from repro.network.requirements import RequirementSet
from repro.network.topology import Architecture, Route


@dataclass
class FaultImpact:
    """Consequences of one injected fault."""

    fault: str
    #: (source, dest) pairs that lost every realized route, sorted.
    disconnected_pairs: list[tuple[int, int]] = field(default_factory=list)

    @property
    def survived(self) -> bool:
        """Whether every requirement still has at least one intact route."""
        return not self.disconnected_pairs


@dataclass
class ResiliencyReport:
    """Aggregate single-fault analysis."""

    node_faults: dict[int, FaultImpact] = field(default_factory=dict)
    link_faults: dict[tuple[int, int], FaultImpact] = field(
        default_factory=dict
    )

    @property
    def survives_any_single_link_failure(self) -> bool:
        """No single link failure disconnects any required pair."""
        return all(i.survived for i in self.link_faults.values())

    @property
    def survives_any_single_node_failure(self) -> bool:
        """No single (non-terminal) node failure disconnects any pair."""
        return all(i.survived for i in self.node_faults.values())

    @property
    def critical_nodes(self) -> list[int]:
        """Nodes whose failure disconnects at least one pair, sorted."""
        return sorted(
            node for node, impact in self.node_faults.items()
            if not impact.survived
        )

    @property
    def critical_links(self) -> list[tuple[int, int]]:
        """Links whose failure disconnects at least one pair, sorted."""
        return sorted(
            link for link, impact in self.link_faults.items()
            if not impact.survived
        )


def _pairs_with_routes(
    arch: Architecture,
) -> dict[tuple[int, int], list[Route]]:
    pairs: dict[tuple[int, int], list[Route]] = {}
    for route in arch.routes:
        pairs.setdefault((route.source, route.dest), []).append(route)
    return pairs


def _impact(
    fault: str,
    pattern: FailurePattern,
    pairs: dict[tuple[int, int], list[Route]],
) -> FaultImpact:
    """The pairs losing *every* realized route to ``pattern``."""
    return FaultImpact(
        fault=fault,
        disconnected_pairs=sorted(
            pair for pair, routes in pairs.items()
            if all(pattern.kills_route(route.nodes) for route in routes)
        ),
    )


def analyze_resiliency(
    arch: Architecture,
    requirements: RequirementSet | None = None,
) -> ResiliencyReport:
    """Single-fault analysis over every used relay node and active link.

    Sources and destinations of required routes are never injected as
    node faults (losing the sensor loses its data by definition; losing
    the sink loses the network — neither is a routing-resiliency
    question).
    """
    report = ResiliencyReport()
    pairs = _pairs_with_routes(arch)
    terminals = {node for pair in pairs for node in pair}

    for node_id in arch.used_nodes:
        if node_id in terminals:
            continue
        report.node_faults[node_id] = _impact(
            f"node {node_id}",
            FailurePattern(
                family="node1", label=str(node_id),
                nodes=frozenset((node_id,)),
            ),
            pairs,
        )

    for link in sorted(arch.active_edges):
        report.link_faults[link] = _impact(
            f"link {link}",
            FailurePattern(
                family="link1", label=f"{link[0]}-{link[1]}",
                links=frozenset((link,)),
            ),
            pairs,
        )
    return report
