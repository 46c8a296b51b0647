"""The warm start from a previous design: an incumbent before the solve.

A re-solve of a slightly different problem — the next kstar rung, the
next Pareto budget, an edited what-if scenario — usually admits most of
the previous design.  Each requirement's routes are replayed *by node
tuple* against its new Yen pool and pinned, and a small restricted MILP
completes them into a full assignment (device sizing, link quality,
energy).  A requirement whose routes are not all in its new pool keeps
its pick binaries free, so the restricted solve routes it itself.  The
restricted model has little free path structure, so it solves in
milliseconds; its solution is a certified-feasible incumbent for the
full model.

The product is advisory: it rides on ``Model.hints["warm_start"]`` and
every backend re-validates it (:mod:`repro.milp.validate`) before
adopting it, so a bad start can cost the head start but never
correctness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
import numpy.typing as npt
from scipy.optimize import Bounds, LinearConstraint, milp

from repro.encoding.base import SelectionBlock
from repro.milp.model import Model
from repro.milp.validate import FEAS_TOL, check_assignment
from repro.network.topology import Architecture
from repro.telemetry.metrics import counter
from repro.telemetry.trace import span

if TYPE_CHECKING:
    from repro.core.explorer import BuiltProblem

Edge = tuple[int, int]

#: Limits of the restricted solve.  Its pinned routes leave a model that
#: closes in milliseconds, far inside either.
TIME_LIMIT_S = 10.0
MIP_REL_GAP = 1e-4
#: The ``source`` every start carries in its hint payload.
SOURCE = "previous-incumbent"


@dataclass(frozen=True)
class WarmStart:
    """A certified-feasible assignment for a model."""

    #: Full assignment over the model's variable space.
    x: npt.NDArray[np.float64]
    #: User-space objective value at ``x`` (constant folded in).
    objective: float


def selection_from_architecture(
    block: SelectionBlock, architecture: Architecture,
) -> list[int] | None:
    """Pool indices replaying ``architecture``'s routes for one block.

    A previous design's routes are matched *by node tuple* against the
    current (possibly differently sized) pool.  ``None`` when any
    replica's path is not in this pool — the block then stays free.
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
    built: BuiltProblem, architecture: Architecture,
) -> dict[int, float] | None:
    """Variable-index fixes pinning the previous design's routes.

    Every replayed block fixes its pick binaries, and the ``node_used``
    indicators of its route nodes.  An ``edge_active`` binary is fixed
    to whether a replayed route uses its edge, unless the edge lies in a
    free block's pool and no replayed route uses it.  Device assignment
    and all continuous sizing stay free for the restricted solve.
    ``None`` when no block replays.

    A single-use link's binary is its path's pick, so it is met twice;
    the two values agree (a chosen pick's links are used, an unchosen
    pick's single-use links lie in no free pool), and a column that
    would get two values raises ``RuntimeError``.
    """
    encoding = built.encoding
    if encoding is None:
        return None
    fixes: dict[int, float] = {}

    def fix(index: int, value: float) -> None:
        if fixes.setdefault(index, value) != value:
            raise RuntimeError(
                f"warm start fixes column {index} to both "
                f"{fixes[index]} and {value}"
            )

    used_edges: set[Edge] = set()
    used_nodes: set[int] = set()
    free_edges: set[Edge] = set()
    replayed = False
    for block in encoding.selection:
        chosen = selection_from_architecture(block, architecture)
        if chosen is None:
            for path in block.pool:
                free_edges.update(path.edges)
            continue
        replayed = True
        keep = set(chosen)
        for k, var in enumerate(block.pick):
            fix(var.index, 1.0 if k in keep else 0.0)
        for k in chosen:
            path = block.pool[k]
            used_edges.update(path.edges)
            used_nodes.update(path.nodes)
    if not replayed:
        return None
    for edge, var in encoding.edge_active.items():
        if edge in used_edges:
            fix(var.index, 1.0)
        elif edge not in free_edges:
            fix(var.index, 0.0)
    # Route nodes are certainly used.  Everything else stays free: fixed
    # nodes are already pinned by their ``alpha[..]:fixed`` rows, an
    # optional node may still be needed as a localization anchor, and
    # the consistency rows zero out isolated indicators on their own.
    for node_id, var in built.mapping.node_used.items():
        if node_id in used_nodes:
            fix(var.index, 1.0)
    return fixes


def compute_warm_start(
    built: BuiltProblem, architecture: Architecture,
) -> WarmStart | None:
    """A certified warm start for ``built.model`` seeded by
    ``architecture``, or ``None``.

    The routes that still fit the pools are pinned via bounds and the
    restricted MILP completes the assignment.  No replayable block, or
    an infeasible restricted model — the pinned routes cannot meet the
    new rows at any sizing — yields ``None``: no warm start, never a
    wrong one.
    """
    with span("accel.warm_start") as ws_span:
        fixes = _structure_fixes(built, architecture)
        if fixes is None:
            ws_span.set_attribute("outcome", "no-structure")
            return None
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
            options={"time_limit": TIME_LIMIT_S, "mip_rel_gap": MIP_REL_GAP},
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
        objective = check.objective + built.model.objective.constant
        ws_span.set_attributes(outcome="ok", objective=objective)
        counter("accel.warm_starts").inc()
        return WarmStart(x=x, objective=objective)


def attach_warm_start(model: Model, warm: WarmStart) -> None:
    """Put ``warm`` on ``model.hints`` in the backends' payload shape."""
    model.hints["warm_start"] = {
        "x": warm.x,
        "objective": warm.objective,
        "source": SOURCE,
    }
