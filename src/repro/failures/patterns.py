"""Failure-pattern generators: what can break, enumerated up front.

The paper's ``N_rep`` link-disjoint replicas are a *static* proxy for
resilience — they guarantee survival of any single link failure by
construction but say nothing about node failures or correlated outages.
This module turns "what can break" into explicit, enumerable
:class:`FailurePattern` objects:

* **k-link** / **k-node** combinations — every way ``k`` physical links
  (or ``k`` optional nodes) can die together, deterministically sampled
  down to a cap when the combinatorics explode;
* **wall outages** — all candidate links crossing one wall segment die
  together (a jammed doorway, a collapsed partition, a new metal
  cabinet);
* **region outages** — all optional nodes inside one floor-plan
  rectangle die together (a power-segment loss, a flooded room).

Every pattern carries a *stable* :attr:`~FailurePattern.pattern_id`
(family prefix + content hash), which is what checkpoints key completed
verification work on and what telemetry labels carry — two runs over the
same template always agree on ids, whatever order generation ran in.

Patterns never touch *fixed* template nodes (sensors, the base
station): losing a terminal loses its data by definition, which is not a
routing-survivability question (matching the single-fault analysis in
:mod:`repro.failures.resiliency`).
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass, field
from typing import TypeVar

from repro.geometry.floorplan import FloorPlan
from repro.geometry.primitives import Rectangle, Segment
from repro.network.template import Template

Edge = tuple[int, int]

#: Combination element type of the sampled enumerations — node-id tuples
#: (k-node) or physical-link tuples (k-link); both sort lexically.
_Combo = TypeVar("_Combo", tuple[int, ...], "tuple[Edge, ...]")

#: Hard cap on exhaustive k-link/k-node enumeration before deterministic
#: sampling kicks in (a 200-link template at k=2 is ~20k patterns —
#: verification is cheap, but unbounded growth is not acceptable).
DEFAULT_MAX_PATTERNS = 512


@dataclass(frozen=True)
class FailurePattern:
    """One correlated failure event: these elements die together.

    ``links`` holds *directed* template edges; a physical link failure
    always includes both directions.  ``nodes`` failing implies every
    incident link fails too — the survival predicate
    (:func:`element_survives`) treats node membership as killing the
    routes through it, so incident links need not be enumerated.
    """

    family: str
    label: str
    nodes: frozenset[int] = field(default=frozenset())
    links: frozenset[Edge] = field(default=frozenset())

    def __post_init__(self) -> None:
        if not self.nodes and not self.links:
            raise ValueError(
                f"pattern {self.family}/{self.label} fails nothing"
            )

    @property
    def pattern_id(self) -> str:
        """Stable content-addressed id: ``<family>-<hash12>``.

        Hashes the sorted element sets, so the id is independent of
        generation order, labels and process hash randomization — safe
        to key checkpoints and telemetry on.
        """
        canon = "|".join((
            self.family,
            ",".join(str(n) for n in sorted(self.nodes)),
            ",".join(f"{u}>{v}" for u, v in sorted(self.links)),
        ))
        digest = hashlib.sha256(canon.encode("utf-8")).hexdigest()[:12]
        return f"{self.family}-{digest}"

    def kills_route(self, nodes: tuple[int, ...]) -> bool:
        """Whether a route over ``nodes`` loses an element to this
        pattern."""
        if self.nodes and any(n in self.nodes for n in nodes):
            return True
        if self.links:
            for edge in zip(nodes, nodes[1:]):
                if edge in self.links:
                    return True
        return False

    def to_dict(self) -> dict[str, object]:
        """JSON-ready description (reports, ``--stats-json``)."""
        return {
            "id": self.pattern_id,
            "family": self.family,
            "label": self.label,
            "nodes": sorted(self.nodes),
            "links": [list(edge) for edge in sorted(self.links)],
        }


#: Spec-grammar terms taking a count, and the :class:`FailuresSpec`
#: field each sets.
_COUNT_TERMS = {
    "k-link": "k_link", "k-node": "k_node", "seed": "seed",
    "max": "max_patterns", "rounds": "rounds", "worst": "worst",
}


@dataclass(frozen=True)
class FailuresSpec:
    """Parsed ``SolveOptions(failures=...)`` spec string.

    Grammar (comma-separated terms, order-insensitive)::

        "k-link:1"            every single physical link failure
        "k-node:2"            every pair of optional nodes failing
        "walls"               one pattern per floor-plan wall
        "regions"             one pattern per floor-plan quadrant
        "seed:7"              sampling seed (default 0)
        "max:200"             cap per combinatorial family (default 512)
        "rounds:5"            robust re-solve round cap (default 4)
        "worst:3"             violated patterns cut per round (default 3)

    Counts must be at least 1 (``seed`` at least 0); construction raises
    :class:`ValueError` otherwise, parsed or not.
    """

    k_link: int | None = None
    k_node: int | None = None
    walls: bool = False
    regions: bool = False
    seed: int = 0
    max_patterns: int = DEFAULT_MAX_PATTERNS
    rounds: int = 4
    worst: int = 3

    def __post_init__(self) -> None:
        for term, name in _COUNT_TERMS.items():
            value = getattr(self, name)
            least = 0 if name == "seed" else 1
            if value is not None and value < least:
                raise ValueError(
                    f"failures term '{term}:{value}' must be at least "
                    f"{least}"
                )

    def needs_floorplan(self) -> bool:
        """Whether any requested family is geometric."""
        return self.walls or self.regions

    def describe(self) -> str:
        """The canonical spec string this object round-trips to."""
        terms: list[str] = []
        if self.k_link is not None:
            terms.append(f"k-link:{self.k_link}")
        if self.k_node is not None:
            terms.append(f"k-node:{self.k_node}")
        if self.walls:
            terms.append("walls")
        if self.regions:
            terms.append("regions")
        if self.seed:
            terms.append(f"seed:{self.seed}")
        if self.max_patterns != DEFAULT_MAX_PATTERNS:
            terms.append(f"max:{self.max_patterns}")
        if self.rounds != 4:
            terms.append(f"rounds:{self.rounds}")
        if self.worst != 3:
            terms.append(f"worst:{self.worst}")
        return ",".join(terms)


def parse_failures_spec(text: str) -> FailuresSpec:
    """Parse the ``failures=`` spec grammar (see :class:`FailuresSpec`).

    Raises :class:`ValueError` on unknown terms, malformed or
    out-of-range counts, or a spec that names no pattern family at all.
    """
    values: dict[str, object] = {}
    for raw in text.split(","):
        term = raw.strip()
        if not term:
            continue
        name, sep, arg = term.partition(":")
        name = name.strip().lower()
        if name in ("walls", "regions"):
            if sep:
                raise ValueError(
                    f"failures term {term!r} takes no argument"
                )
            values[name] = True
            continue
        if name not in _COUNT_TERMS:
            raise ValueError(
                f"unknown failures term {term!r}; expected k-link:K, "
                f"k-node:K, walls, regions, seed:N, max:N, rounds:N "
                f"or worst:N"
            )
        try:
            count = int(arg)
        except ValueError:
            raise ValueError(
                f"failures term {term!r} needs an integer argument"
            ) from None
        values[_COUNT_TERMS[name]] = count
    spec = FailuresSpec(**values)  # type: ignore[arg-type]
    if (
        spec.k_link is None and spec.k_node is None
        and not spec.walls and not spec.regions
    ):
        raise ValueError(
            f"failures spec {text!r} names no pattern family; add "
            f"k-link:K, k-node:K, walls and/or regions"
        )
    return spec


# -- generators ------------------------------------------------------------


def _physical_links(template: Template) -> list[Edge]:
    """Undirected candidate links as sorted ``(min, max)`` pairs."""
    seen: set[Edge] = set()
    for u, v, _ in template.edges():
        seen.add((u, v) if u < v else (v, u))
    return sorted(seen)


def _directed(template: Template, u: int, v: int) -> list[Edge]:
    """The candidate directions of physical link ``{u, v}``."""
    directions: list[Edge] = []
    for a, b in ((u, v), (v, u)):
        try:
            template.path_loss(a, b)
        except KeyError:
            continue
        directions.append((a, b))
    return directions


def _sampled(
    combos: list[_Combo], seed: int, max_patterns: int | None,
) -> list[_Combo]:
    """Deterministically thin ``combos`` down to the cap.

    ``random.Random(seed).sample`` over the *sorted* population, then
    re-sorted — the selected subset depends only on (population, seed,
    cap), never on iteration order or hash randomization.
    """
    if max_patterns is None or len(combos) <= max_patterns:
        return combos
    rng = random.Random(seed)
    return sorted(rng.sample(combos, max_patterns))


def k_link_patterns(
    template: Template,
    k: int = 1,
    *,
    seed: int = 0,
    max_patterns: int | None = DEFAULT_MAX_PATTERNS,
) -> list[FailurePattern]:
    """Every combination of ``k`` physical links failing together.

    A failed physical link takes both candidate directions with it.
    Enumeration is over the sorted undirected link list, capped by
    deterministic sampling (see :func:`_sampled`).
    """
    if k < 1:
        raise ValueError("k must be positive")
    links = _physical_links(template)
    combos = _sampled(
        list(itertools.combinations(links, k)), seed, max_patterns
    )
    patterns: list[FailurePattern] = []
    for combo in combos:
        directed = frozenset(
            edge for u, v in combo for edge in _directed(template, u, v)
        )
        label = "+".join(f"{u}-{v}" for u, v in combo)
        patterns.append(FailurePattern(
            family=f"link{k}", label=label, links=directed,
        ))
    return patterns


def k_node_patterns(
    template: Template,
    k: int = 1,
    *,
    seed: int = 0,
    max_patterns: int | None = DEFAULT_MAX_PATTERNS,
    exclude: tuple[int, ...] = (),
) -> list[FailurePattern]:
    """Every combination of ``k`` optional nodes failing together.

    Fixed nodes (sensors, the sink) are never failed — losing a terminal
    is not a routing-survivability question; ``exclude`` removes further
    nodes (e.g. a mains-powered gateway).
    """
    if k < 1:
        raise ValueError("k must be positive")
    skip = set(exclude)
    eligible = sorted(
        n.id for n in template.nodes if not n.fixed and n.id not in skip
    )
    combos = _sampled(
        list(itertools.combinations(eligible, k)), seed, max_patterns
    )
    return [
        FailurePattern(
            family=f"node{k}",
            label="+".join(str(n) for n in combo),
            nodes=frozenset(combo),
        )
        for combo in combos
    ]


def wall_outage_patterns(
    template: Template, plan: FloorPlan,
) -> list[FailurePattern]:
    """One pattern per wall: every candidate link crossing it dies.

    Models a correlated geometric outage — new shielding along a wall
    line kills *all* links through it at once, which is exactly the
    failure mode disjoint replicas routed through the same doorway do
    not survive.  Walls crossed by no candidate link yield no pattern.
    """
    patterns: list[FailurePattern] = []
    for index, wall in enumerate(plan.walls):
        crossing = frozenset(
            (u, v) for u, v, _ in template.edges()
            if wall.segment.intersects(Segment(
                template.node(u).location, template.node(v).location
            ))
        )
        if not crossing:
            continue
        seg = wall.segment
        label = (
            f"wall{index}({seg.start.x:g},{seg.start.y:g})-"
            f"({seg.end.x:g},{seg.end.y:g})"
        )
        patterns.append(FailurePattern(
            family="wall", label=label, links=crossing,
        ))
    return patterns


def quadrant_regions(plan: FloorPlan) -> list[Rectangle]:
    """The floor's four quadrants — the default region-outage grid."""
    b = plan.bounds
    mid_x = (b.x_min + b.x_max) / 2.0
    mid_y = (b.y_min + b.y_max) / 2.0
    return [
        Rectangle(b.x_min, b.y_min, mid_x, mid_y),
        Rectangle(mid_x, b.y_min, b.x_max, mid_y),
        Rectangle(b.x_min, mid_y, mid_x, b.y_max),
        Rectangle(mid_x, mid_y, b.x_max, b.y_max),
    ]


def region_outage_patterns(
    template: Template,
    regions: list[Rectangle] | None = None,
    *,
    plan: FloorPlan | None = None,
) -> list[FailurePattern]:
    """One pattern per region: every optional node inside it dies.

    ``regions`` defaults to the floor's quadrants (needs ``plan``).
    Fixed nodes inside a region are *not* failed — see
    :func:`k_node_patterns` — and regions containing no optional node
    yield no pattern.
    """
    if regions is None:
        if plan is None:
            raise ValueError(
                "region outages need explicit regions or a floor plan "
                "to derive quadrants from"
            )
        regions = quadrant_regions(plan)
    patterns: list[FailurePattern] = []
    for index, region in enumerate(regions):
        inside = frozenset(
            n.id for n in template.nodes
            if not n.fixed and region.contains(n.location)
        )
        if not inside:
            continue
        label = (
            f"region{index}({region.x_min:g},{region.y_min:g})-"
            f"({region.x_max:g},{region.y_max:g})"
        )
        patterns.append(FailurePattern(
            family="region", label=label, nodes=inside,
        ))
    return patterns


def generate_patterns(
    spec: FailuresSpec | str,
    template: Template,
    plan: FloorPlan | None = None,
) -> list[FailurePattern]:
    """All patterns a spec asks for, deduplicated, in stable order.

    Raises :class:`ValueError` when the spec requests a geometric family
    (``walls``/``regions``) but no floor plan is available.
    """
    if isinstance(spec, str):
        spec = parse_failures_spec(spec)
    if spec.needs_floorplan() and plan is None:
        raise ValueError(
            "the failures spec requests wall/region outages but no "
            "floor plan is available; pass plan= (CLI: the template "
            "builders carry one)"
        )
    patterns: list[FailurePattern] = []
    if spec.k_link is not None:
        patterns += k_link_patterns(
            template, spec.k_link,
            seed=spec.seed, max_patterns=spec.max_patterns,
        )
    if spec.k_node is not None:
        patterns += k_node_patterns(
            template, spec.k_node,
            seed=spec.seed, max_patterns=spec.max_patterns,
        )
    if spec.walls:
        assert plan is not None
        patterns += wall_outage_patterns(template, plan)
    if spec.regions:
        assert plan is not None
        patterns += region_outage_patterns(template, plan=plan)
    unique: dict[str, FailurePattern] = {}
    for pattern in patterns:
        unique.setdefault(pattern.pattern_id, pattern)
    return list(unique.values())


def patterns_fingerprint(patterns: list[FailurePattern]) -> str:
    """A short stable hash of a pattern set (checkpoint identity)."""
    digest = hashlib.sha256()
    for pattern_id in sorted(p.pattern_id for p in patterns):
        digest.update(pattern_id.encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()[:16]
