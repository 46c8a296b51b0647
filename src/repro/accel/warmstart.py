"""The greedy primal heuristic: a feasible incumbent before the solve.

Strategy (the (MI)LP-based primal heuristic of D'Andreagiovanni et al.,
adapted to the candidate-pool encoding): pick a cheap feasible *topology*
combinatorially — cheapest-path-first selection out of each requirement's
Yen pool, replica- and disjointness-aware — then let a tiny restricted
MILP complete it into a full assignment (device sizing, link quality,
energy) with every routing binary fixed.  The restricted model has no
free path structure, so it solves in milliseconds; its solution is a
certified-feasible incumbent for the full model.

The product is advisory: it rides on ``Model.hints["warm_start"]`` and
every backend re-validates it (:mod:`repro.milp.validate`) before
adopting it, so a heuristic bug can cost the head start but never
correctness.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
import numpy.typing as npt
from scipy.optimize import Bounds, LinearConstraint, milp

from repro.encoding.base import SelectionBlock
from repro.graph.disjoint import max_disjoint_subset
from repro.milp.model import Model
from repro.milp.validate import FEAS_TOL, check_assignment
from repro.network.topology import Architecture
from repro.telemetry.metrics import counter
from repro.telemetry.trace import span

if TYPE_CHECKING:
    from repro.core.explorer import BuiltProblem

Edge = tuple[int, int]


@dataclass(frozen=True)
class WarmStart:
    """A certified-feasible assignment for a model, plus provenance."""

    #: Full assignment over the model's variable space.
    x: npt.NDArray[np.float64]
    #: User-space objective value at ``x`` (constant folded in).
    objective: float
    #: Where the start came from: ``"greedy"``, ``"previous-rung"``, ...
    source: str
    #: Seconds spent building it (greedy pass + restricted solve).
    seconds: float


def greedy_selection(
    block: SelectionBlock, active_nodes: set[int] | None = None,
) -> list[int] | None:
    """Pool indices of a cheap feasible replica set for one requirement.

    Cheapest-first over the pool; when the requirement demands link-
    disjoint replicas the greedy keeps a used-edge set and skips
    conflicting candidates.  ``active_nodes`` carries the nodes earlier
    requirements already activated: the device bill is driven by *newly*
    activated nodes, so candidates routing over already-active relays
    rank first (then fewest hops, then least loss — hop count drives the
    energy terms).  Cheapest-first can paint itself into a corner that
    discovery order cannot (the pool generator *guarantees* a disjoint
    subset exists in discovery order), so that is the fallback.
    ``None`` only when even the fallback comes up short, which indicates
    a pool the encoder itself would have rejected.
    """
    req = block.req
    active = set() if active_nodes is None else set(active_nodes)

    def cost(k: int) -> tuple[int, int, float]:
        path = block.pool[k]
        new = sum(1 for node in path.nodes if node not in active)
        return (new, len(path.nodes), path.loss_db)

    if not req.disjoint or req.replicas == 1:
        chosen = []
        candidates = set(range(len(block.pool)))
        while candidates and len(chosen) < req.replicas:
            # Re-rank after each pick: a replica sharing the previous
            # pick's relays is free where a fresh path is not.
            k = min(candidates, key=cost)
            candidates.discard(k)
            chosen.append(k)
            active.update(block.pool[k].nodes)
        return chosen if len(chosen) >= req.replicas else None
    chosen = []
    used: set[Edge] = set()
    candidates = set(range(len(block.pool)))
    while candidates and len(chosen) < req.replicas:
        k = min(candidates, key=cost)
        candidates.discard(k)
        edges = set(block.pool[k].edges)
        if edges & used:
            continue
        chosen.append(k)
        used |= edges
        active.update(block.pool[k].nodes)
    if len(chosen) == req.replicas:
        return chosen
    chosen = []
    used = set()
    for k in range(len(block.pool)):  # discovery-order fallback
        edges = set(block.pool[k].edges)
        if edges & used:
            continue
        chosen.append(k)
        used |= edges
        if len(chosen) == req.replicas:
            return chosen
    # Discovery order IS the generator's max_disjoint_subset greedy, so
    # reaching here means the pool cannot supply the replicas at all.
    assert len(max_disjoint_subset([p.nodes for p in block.pool])) < req.replicas
    return None


def selection_from_architecture(
    block: SelectionBlock, architecture: Architecture,
) -> list[int] | None:
    """Pool indices replaying ``architecture``'s routes for one block.

    Used by the kstar ladder to chain incumbents: a previous rung's
    routes are matched *by node tuple* against the current (differently
    sized) pool.  ``None`` when any replica's path is not in this pool —
    the caller falls back to the greedy choice.
    """
    routes = architecture.routes_for(block.req.source, block.req.dest)
    if len(routes) < block.req.replicas:
        return None
    by_nodes = {path.nodes: k for k, path in enumerate(block.pool)}
    chosen = []
    for route in routes[: block.req.replicas]:
        k = by_nodes.get(tuple(route.nodes))
        if k is None:
            return None
        chosen.append(k)
    return chosen


def _structure_fixes(
    built: BuiltProblem, architecture: Architecture | None,
) -> tuple[dict[int, float], str] | None:
    """Variable-index fixes pinning the chosen routing structure.

    Fixes every pick binary, every ``edge_active`` binary and the
    ``node_used`` indicator of route/fixed nodes; device assignment and
    all continuous sizing stay free for the restricted solve.
    """
    encoding = built.encoding
    if encoding is None or not encoding.selection:
        return None
    source = "greedy"
    fixes: dict[int, float] = {}
    used_edges: set[Edge] = set()
    used_nodes: set[int] = set()
    for block in encoding.selection:
        chosen = None
        if architecture is not None:
            chosen = selection_from_architecture(block, architecture)
            if chosen is not None:
                source = "previous-incumbent"
        if chosen is None:
            chosen = greedy_selection(block, active_nodes=used_nodes)
        if chosen is None:
            return None
        keep = set(chosen)
        for k, var in enumerate(block.pick):
            fixes[var.index] = 1.0 if k in keep else 0.0
        for k in chosen:
            path = block.pool[k]
            used_edges.update(path.edges)
            used_nodes.update(path.nodes)
    for edge, var in encoding.edge_active.items():
        fixes[var.index] = 1.0 if edge in used_edges else 0.0
    # Route nodes are certainly used.  Everything else stays free: fixed
    # nodes are already pinned by their ``alpha[..]:fixed`` rows, an
    # optional node may still be needed as a localization anchor, and
    # the consistency rows zero out isolated indicators on their own.
    for node_id, var in built.mapping.node_used.items():
        if node_id in used_nodes:
            fixes[var.index] = 1.0
    return fixes, source


def compute_warm_start(
    built: BuiltProblem,
    *,
    architecture: Architecture | None = None,
    time_limit: float = 10.0,
    mip_rel_gap: float = 1e-4,
) -> WarmStart | None:
    """A certified warm start for ``built.model``, or ``None``.

    The greedy topology (or ``architecture``'s, when it still fits the
    pools) is pinned via bounds and the restricted MILP completes the
    assignment.  An infeasible restricted model — the greedy topology
    cannot meet link-quality/lifetime at any sizing — yields ``None``:
    no warm start, never a wrong one.
    """
    start = time.perf_counter()
    with span("accel.warm_start") as ws_span:
        pinned = _structure_fixes(built, architecture)
        if pinned is None:
            ws_span.set_attribute("outcome", "no-structure")
            return None
        fixes, source = pinned
        form = built.model.to_standard_form()
        lower = form.x_lower.copy()
        upper = form.x_upper.copy()
        for idx, value in fixes.items():
            lower[idx] = value
            upper[idx] = value
        constraints = None
        if form.a_matrix.shape[0] > 0:
            constraints = LinearConstraint(
                form.a_matrix, form.b_lower, form.b_upper
            )
        result = milp(
            c=form.c,
            constraints=constraints,
            bounds=Bounds(lower, upper),
            integrality=form.integrality,
            options={
                "time_limit": float(time_limit),
                "mip_rel_gap": float(mip_rel_gap),
            },
        )
        if result.x is None:
            ws_span.set_attribute("outcome", "restricted-infeasible")
            return None
        x = np.asarray(result.x, dtype=float)
        int_idx = np.flatnonzero(form.integrality == 1)
        if int_idx.size:
            x[int_idx] = np.round(x[int_idx])
        check = check_assignment(form, x, tol=10 * FEAS_TOL)
        if not check.ok:
            ws_span.set_attribute("outcome", f"rejected: {check.reason}")
            return None
        seconds = time.perf_counter() - start
        objective = check.objective + built.model.objective.constant
        ws_span.set_attributes(
            outcome="ok", source=source, objective=objective,
            seconds=round(seconds, 6),
        )
        counter("accel.warm_starts", source=source).inc()
        return WarmStart(
            x=x, objective=objective, source=source, seconds=seconds,
        )


def attach_warm_start(model: Model, warm: WarmStart) -> None:
    """Put ``warm`` on ``model.hints`` in the backends' payload shape."""
    model.hints["warm_start"] = {
        "x": warm.x,
        "objective": warm.objective,
        "source": warm.source,
    }
