"""The what-if edit grammar over scenarios.

An edit is a small, named change to one aspect of a problem — add or
remove a wall, move a node, swap a device, tighten one requirement —
expressed either as a :class:`ScenarioEdit` value or as compact text
(``add-wall:10,0,10,20,concrete``) for the CLI and the job service.

:func:`apply_edit` produces a *new* scenario plus an :class:`EditDelta`
describing exactly what changed.  Geometry edits rebuild only the
affected candidate links: the patched template carries bitwise-identical
path losses on unaffected links and emits edges in the same canonical
order as a cold :meth:`~repro.network.template.Template.
add_candidate_links` build, which is what lets the incremental re-solve
layer (:mod:`repro.scenarios.incremental`) prove cache entries
transplantable instead of recomputing them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

import numpy as np

from repro.channel.multiwall import MultiWallModel
from repro.geometry.floorplan import MATERIAL_LOSS_DB, FloorPlan, Wall
from repro.geometry.primitives import Point, Segment
from repro.geometry.vectorized import _intersect_broadcast
from repro.library.catalog import Library, default_catalog, localization_catalog
from repro.library.components import Device
from repro.network.requirements import (
    LinkQualityRequirement,
    RequirementSet,
)
from repro.network.template import NetworkNode, Template
from repro.scenarios.scenario import Scenario

#: The supported edit kinds, in grammar order.
EDIT_KINDS = (
    "add-wall",      # add-wall:x1,y1,x2,y2[,material[,loss_db]]
    "remove-wall",   # remove-wall:index
    "move-node",     # move-node:id,x,y
    "swap-device",   # swap-device:old=new
    "set-replicas",  # set-replicas:route_index,replicas
    "set-min-snr",   # set-min-snr:db
)


@dataclass(frozen=True)
class ScenarioEdit:
    """One parsed edit: a kind plus its typed arguments."""

    kind: str
    args: tuple[Any, ...]

    def __post_init__(self) -> None:
        if self.kind not in EDIT_KINDS:
            raise ValueError(
                f"unknown edit kind {self.kind!r}; known: {EDIT_KINDS}"
            )

    def spec(self) -> str:
        """The canonical text form (parses back to an equal edit)."""
        if self.kind == "swap-device":
            return f"swap-device:{self.args[0]}={self.args[1]}"
        return f"{self.kind}:" + ",".join(str(a) for a in self.args)


@dataclass(frozen=True)
class EditDelta:
    """What one applied edit changed, for cache transplanting.

    ``changed_edges`` lists directed candidate links whose weight
    changed, appeared (``old`` is ``None``) or disappeared (``new`` is
    ``None``).  ``walls`` are the wall objects added or removed, and
    ``moved_node`` the id of a relocated node — the geometric facts the
    reachability-row patcher needs to find affected (anchor, point)
    pairs.
    """

    edit: ScenarioEdit
    template_changed: bool
    pathloss_changed: bool
    changed_edges: tuple[tuple[int, int, float | None, float | None], ...]
    walls: tuple[Wall, ...] = ()
    moved_node: int | None = None


def parse_edit(text: str) -> ScenarioEdit:
    """Parse the compact text form of an edit.

    >>> parse_edit("add-wall:10,0,10,20,concrete").kind
    'add-wall'
    """
    kind, sep, body = text.partition(":")
    if not sep:
        raise ValueError(
            f"bad edit {text!r}: expected 'kind:args' with kind in {EDIT_KINDS}"
        )
    if kind not in EDIT_KINDS:
        raise ValueError(f"unknown edit kind {kind!r}; known: {EDIT_KINDS}")
    try:
        if kind == "add-wall":
            parts = body.split(",")
            if len(parts) < 4 or len(parts) > 6:
                raise ValueError("expected x1,y1,x2,y2[,material[,loss_db]]")
            coords = tuple(float(p) for p in parts[:4])
            material = parts[4] if len(parts) >= 5 else "drywall"
            if material not in MATERIAL_LOSS_DB and len(parts) < 6:
                raise ValueError(
                    f"unknown material {material!r} needs an explicit loss_db"
                )
            args: tuple[Any, ...] = coords + (material,)
            if len(parts) == 6:
                args += (float(parts[5]),)
            return ScenarioEdit("add-wall", args)
        if kind == "remove-wall":
            return ScenarioEdit("remove-wall", (int(body),))
        if kind == "move-node":
            node_id, x, y = body.split(",")
            return ScenarioEdit("move-node", (int(node_id), float(x), float(y)))
        if kind == "swap-device":
            old, sep2, new = body.partition("=")
            if not sep2 or not old or not new:
                raise ValueError("expected old_device=new_device")
            return ScenarioEdit("swap-device", (old, new))
        if kind == "set-replicas":
            route_index, replicas = body.split(",")
            return ScenarioEdit(
                "set-replicas", (int(route_index), int(replicas))
            )
        # set-min-snr
        return ScenarioEdit("set-min-snr", (float(body),))
    except ValueError as exc:
        raise ValueError(f"bad edit {text!r}: {exc}") from None


def apply_edits(
    scenario: Scenario, edits: tuple[ScenarioEdit, ...] | list[ScenarioEdit]
) -> tuple[Scenario, tuple[EditDelta, ...]]:
    """Apply ``edits`` in order; returns the final scenario and all deltas."""
    deltas: list[EditDelta] = []
    current = scenario
    for edit in edits:
        current, delta = apply_edit(current, edit)
        deltas.append(delta)
    return current, tuple(deltas)


def apply_edit(
    scenario: Scenario, edit: ScenarioEdit
) -> tuple[Scenario, EditDelta]:
    """Apply one edit, returning the edited scenario and its delta.

    The input scenario is never mutated; unchanged components (plan,
    channel, library, requirements) are shared between the two.
    """
    if edit.kind == "add-wall":
        wall = Wall(
            Segment(
                Point(float(edit.args[0]), float(edit.args[1])),
                Point(float(edit.args[2]), float(edit.args[3])),
            ),
            str(edit.args[4]),
            float(edit.args[5]) if len(edit.args) > 5 else None,
        )
        return _apply_wall_change(scenario, edit, scenario.plan.walls + [wall],
                                  (wall,))
    if edit.kind == "remove-wall":
        index = int(edit.args[0])
        walls = scenario.plan.walls
        if not 0 <= index < len(walls):
            raise ValueError(
                f"wall index {index} out of range (plan has {len(walls)} walls)"
            )
        removed = walls[index]
        remaining = walls[:index] + walls[index + 1:]
        return _apply_wall_change(scenario, edit, remaining, (removed,))
    if edit.kind == "move-node":
        return _apply_move_node(scenario, edit)
    if edit.kind == "swap-device":
        return _apply_swap_device(scenario, edit)
    if edit.kind == "set-replicas":
        return _apply_set_replicas(scenario, edit)
    return _apply_set_min_snr(scenario, edit)


# -- geometry edits -----------------------------------------------------------


def _require_multiwall(scenario: Scenario) -> MultiWallModel:
    channel = scenario.channel
    if not isinstance(channel, MultiWallModel):
        raise ValueError(
            f"geometry edits need a MultiWallModel channel, scenario "
            f"{scenario.name!r} has {type(channel).__name__}"
        )
    return channel


def _rebuilt_channel(
    scenario: Scenario, plan: FloorPlan
) -> MultiWallModel:
    old = _require_multiwall(scenario)
    dm = old._distance_model
    return MultiWallModel(
        plan, exponent=dm.exponent, reference_db=dm.reference_db,
        max_wall_loss_db=old.max_wall_loss_db,
    )


def _apply_wall_change(
    scenario: Scenario,
    edit: ScenarioEdit,
    new_walls: list[Wall],
    edited: tuple[Wall, ...],
) -> tuple[Scenario, EditDelta]:
    _require_multiwall(scenario)
    old_plan = scenario.plan
    new_plan = FloorPlan(old_plan.bounds, new_walls, old_plan.name)
    new_channel = _rebuilt_channel(scenario, new_plan)
    if scenario.max_link_pl_db is None:
        # Star (localization) template: no candidate links to re-weight.
        new_scenario = replace(
            scenario, name=f"{scenario.name}+{edit.spec()}",
            plan=new_plan, channel=new_channel,
        )
        return new_scenario, EditDelta(
            edit, template_changed=False, pathloss_changed=True,
            changed_edges=(), walls=edited,
        )
    affected = _pairs_crossing(scenario.template.nodes, edited)
    new_template = _patched_template(
        scenario, scenario.template.nodes, new_channel, affected
    )
    new_scenario = replace(
        scenario, name=f"{scenario.name}+{edit.spec()}",
        plan=new_plan, channel=new_channel, template=new_template,
    )
    return new_scenario, EditDelta(
        edit, template_changed=True, pathloss_changed=True,
        changed_edges=_edge_diff(scenario.template, new_template),
        walls=edited,
    )


def _apply_move_node(
    scenario: Scenario, edit: ScenarioEdit
) -> tuple[Scenario, EditDelta]:
    node_id = int(edit.args[0])
    if not 0 <= node_id < scenario.template.node_count:
        raise ValueError(f"node {node_id} not in template")
    location = Point(float(edit.args[1]), float(edit.args[2]))
    if not scenario.plan.contains(location):
        raise ValueError(f"location {location} is outside the floor plan")
    old_node = scenario.template.nodes[node_id]
    new_nodes = list(scenario.template.nodes)
    new_nodes[node_id] = NetworkNode(
        old_node.id, location, old_node.role, old_node.fixed
    )
    if scenario.max_link_pl_db is None:
        new_template = Template(
            new_nodes, scenario.template.link_type, scenario.template.name
        )
        new_scenario = replace(
            scenario, name=f"{scenario.name}+{edit.spec()}",
            template=new_template,
        )
        return new_scenario, EditDelta(
            edit, template_changed=True, pathloss_changed=True,
            changed_edges=(), moved_node=node_id,
        )
    affected = [
        (min(i, node_id), max(i, node_id))
        for i in range(len(new_nodes)) if i != node_id
    ]
    new_template = _patched_template(
        scenario, new_nodes, _require_multiwall(scenario), affected
    )
    new_scenario = replace(
        scenario, name=f"{scenario.name}+{edit.spec()}", template=new_template
    )
    return new_scenario, EditDelta(
        edit, template_changed=True, pathloss_changed=True,
        changed_edges=_edge_diff(scenario.template, new_template),
        moved_node=node_id,
    )


def _pairs_crossing(
    nodes: list[NetworkNode], walls: tuple[Wall, ...]
) -> list[tuple[int, int]]:
    """All unordered node pairs whose direct ray crosses an edited wall.

    These are exactly the pairs whose multi-wall path loss can differ
    between the old and new plan — every other pair's crossed-wall set,
    and hence its float accumulation, is untouched.
    """
    n = len(nodes)
    iu, ju = np.triu_indices(n, k=1)
    xs = np.array([node.location.x for node in nodes])
    ys = np.array([node.location.y for node in nodes])
    hit = np.zeros(iu.shape, dtype=bool)
    for wall in walls:
        seg = wall.segment
        hit |= _intersect_broadcast(
            np.float64(seg.start.x), np.float64(seg.start.y),
            np.float64(seg.end.x), np.float64(seg.end.y),
            xs[iu], ys[iu], xs[ju], ys[ju],
        )
    return [(int(i), int(j)) for i, j in zip(iu[hit], ju[hit])]


def _paired_path_loss(
    channel: MultiWallModel, a_xy: np.ndarray, b_xy: np.ndarray
) -> np.ndarray:
    """Per-pair multi-wall path loss, bitwise-matching the matrix kernel.

    Mirrors :meth:`MultiWallModel.path_loss_matrix` expression for
    expression (same operand order, same per-wall accumulation over the
    *full* wall list), evaluated only for the ``(n, 2)`` pair arrays, so
    recomputed entries equal what a cold full-matrix build would put
    there.
    """
    ax, ay = a_xy[:, 0], a_xy[:, 1]
    bx, by = b_xy[:, 0], b_xy[:, 1]
    dm = channel._distance_model
    d = np.hypot(ax - bx, ay - by)
    np.maximum(d, dm.reference_distance, out=d)
    loss = dm.reference_db + 10.0 * dm.exponent * np.log10(
        d / dm.reference_distance
    )
    total = np.zeros(ax.shape, dtype=np.float64)
    for wall in channel.plan.walls:
        seg = wall.segment
        hits = _intersect_broadcast(
            np.float64(seg.start.x), np.float64(seg.start.y),
            np.float64(seg.end.x), np.float64(seg.end.y),
            ax, ay, bx, by,
        )
        total += np.where(hits, wall.attenuation_db(), 0.0)
    if channel.max_wall_loss_db is not None:
        np.minimum(total, channel.max_wall_loss_db, out=total)
    result: np.ndarray = loss + total
    return result


def _patched_template(
    scenario: Scenario,
    new_nodes: list[NetworkNode],
    new_channel: MultiWallModel,
    affected: list[tuple[int, int]],
) -> Template:
    """The edited template, equal to a cold rebuild edge for edge.

    Starts from the old template's per-pair path losses, recomputes only
    the affected pairs against the new channel, then re-emits every
    surviving pair in the canonical order of the vectorized cold build
    (pairs ascending, forward direction before reverse) — so
    ``list(patched.edges())`` equals ``list(rebuilt.edges())`` exactly,
    including float bits and insertion order.
    """
    cutoff = scenario.max_link_pl_db
    assert cutoff is not None
    if not new_channel.is_symmetric():
        raise ValueError("patched templates require a symmetric channel")
    pair_pl: dict[tuple[int, int], float] = {}
    for (u, v), pl in scenario.template.links.items():
        # The link rule may admit only one direction of a pair (e.g.
        # relay -> sink), so key by unordered pair, not by u < v edges.
        pair_pl[(min(u, v), max(u, v))] = pl
    if affected:
        a_xy = np.array(
            [new_nodes[i].location.as_tuple() for i, _ in affected]
        )
        b_xy = np.array(
            [new_nodes[j].location.as_tuple() for _, j in affected]
        )
        values = _paired_path_loss(new_channel, a_xy, b_xy)
        for pair, value in zip(affected, values):
            if value <= cutoff:
                pair_pl[pair] = float(value)
            else:
                pair_pl.pop(pair, None)
    template = Template(
        new_nodes, scenario.template.link_type, scenario.template.name
    )
    rule = scenario.link_rule
    links: list[tuple[int, int, float]] = []
    for i, j in sorted(pair_pl):
        pl = pair_pl[(i, j)]
        if rule(new_nodes[i], new_nodes[j]):
            links.append((i, j, pl))
        if rule(new_nodes[j], new_nodes[i]):
            links.append((j, i, pl))
    template.add_links(links)
    return template


def _edge_diff(
    old: Template, new: Template
) -> tuple[tuple[int, int, float | None, float | None], ...]:
    """Links added, removed or re-weighted, as ``(u, v, old, new)``.

    Sorted by ``(u, v)``; ``None`` marks the side a link is absent from.
    """
    old_links, new_links = old.links, new.links
    changed = {key for key, _ in old_links.items() ^ new_links.items()}
    return tuple(
        (u, v, old_links.get((u, v)), new_links.get((u, v)))
        for u, v in sorted(changed)
    )


# -- component / requirement edits --------------------------------------------


def _donor_device(name: str) -> Device:
    for catalog in (default_catalog(), localization_catalog()):
        try:
            return catalog.by_name(name)
        except KeyError:
            continue
    raise KeyError(f"no device named {name!r} in any built-in catalog")


def _apply_swap_device(
    scenario: Scenario, edit: ScenarioEdit
) -> tuple[Scenario, EditDelta]:
    old_name, new_name = str(edit.args[0]), str(edit.args[1])
    library = scenario.library
    old_dev = library.by_name(old_name)  # raises KeyError when absent
    if any(d.name == new_name for d in library.devices):
        raise ValueError(
            f"device {new_name!r} is already in the library; swap would "
            f"duplicate it"
        )
    donor = _donor_device(new_name)
    if donor.roles != old_dev.roles:
        raise ValueError(
            f"cannot swap {old_name!r} ({sorted(old_dev.roles)}) for "
            f"{new_name!r} ({sorted(donor.roles)}): role sets differ"
        )
    devices = [
        donor if d.name == old_name else d for d in library.devices
    ]
    new_library = Library(devices, list(library.link_types))
    new_scenario = replace(
        scenario, name=f"{scenario.name}+{edit.spec()}", library=new_library
    )
    return new_scenario, EditDelta(
        edit, template_changed=False, pathloss_changed=False,
        changed_edges=(),
    )


def _require_requirement_set(scenario: Scenario, edit: ScenarioEdit) -> RequirementSet:
    reqs = scenario.requirements
    if not isinstance(reqs, RequirementSet):
        raise ValueError(
            f"edit {edit.spec()!r} needs route requirements; scenario "
            f"{scenario.name!r} is a localization problem"
        )
    return reqs


def _apply_set_replicas(
    scenario: Scenario, edit: ScenarioEdit
) -> tuple[Scenario, EditDelta]:
    route_index, replicas = int(edit.args[0]), int(edit.args[1])
    reqs = _require_requirement_set(scenario, edit)
    if not 0 <= route_index < len(reqs.routes):
        raise ValueError(
            f"route index {route_index} out of range "
            f"({len(reqs.routes)} routes)"
        )
    route = reqs.routes[route_index]
    routes = list(reqs.routes)
    routes[route_index] = replace(
        route, replicas=replicas, disjoint=replicas > 1
    )
    new_reqs = replace(reqs, routes=routes)
    new_scenario = replace(
        scenario, name=f"{scenario.name}+{edit.spec()}", requirements=new_reqs
    )
    return new_scenario, EditDelta(
        edit, template_changed=False, pathloss_changed=False, changed_edges=()
    )


def _apply_set_min_snr(
    scenario: Scenario, edit: ScenarioEdit
) -> tuple[Scenario, EditDelta]:
    min_snr_db = float(edit.args[0])
    reqs = _require_requirement_set(scenario, edit)
    new_reqs = replace(
        reqs, link_quality=LinkQualityRequirement(min_snr_db=min_snr_db)
    )
    new_scenario = replace(
        scenario, name=f"{scenario.name}+{edit.spec()}", requirements=new_reqs
    )
    return new_scenario, EditDelta(
        edit, template_changed=False, pathloss_changed=False, changed_edges=()
    )
