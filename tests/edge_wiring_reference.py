"""The per-link wiring, kept as the reference for shared link binaries.

This is how the encoders wired links before a link that only one
candidate path uses took that path's binary:

* every encoded link gets its own ``e[u,v]`` binary;
* ``e[u,v]:ge_use{k}`` (``e >= use``) for each use and
  ``e[u,v]:le_uses`` (``e <= sum(uses)``), or ``e[u,v]:unused``;
* ``e[u,v]:tx_used``/``e[u,v]:rx_used`` (``e <= alpha``) on every link.

For a single-use link the two tie rows already force ``e = y``, in the
LP relaxation too, so both wirings admit the same designs at the same
cost and give the same root bound.  The wiring differential
(``tools/check_wiring_differential.py``) and the tests swap this wiring
in through :func:`reference_wiring` to hold the library to that.
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager
from unittest import mock

from repro.encoding.base import Edge, RoutingEncoder, RoutingEncoding
from repro.milp.expr import Var, lin_sum
from repro.milp.model import Model
from repro.network.template import Template


def fresh_link_variables(
    model: Model, edge_uses: dict[Edge, list[Var]],
) -> dict[Edge, Var]:
    """One ``e[u,v]`` binary per encoded link."""
    return {(u, v): model.binary(f"e[{u},{v}]") for (u, v) in edge_uses}


def wire_every_link(
    model: Model,
    template: Template,
    node_used: dict[int, Var],
    encoding: RoutingEncoding,
) -> None:
    """Standard rows tying edges to uses and nodes to edges."""
    incident: dict[int, list[Var]] = {}
    for (u, v), e_var in encoding.edge_active.items():
        uses = encoding.edge_uses.get((u, v), [])
        for k, use in enumerate(uses):
            model.add(e_var >= use, f"e[{u},{v}]:ge_use{k}")
        if uses:
            model.add(e_var <= lin_sum(uses), f"e[{u},{v}]:le_uses")
        else:
            model.add(e_var <= 0, f"e[{u},{v}]:unused")
        # An active link needs both endpoints placed.
        model.add(e_var <= node_used[u], f"e[{u},{v}]:tx_used")
        model.add(e_var <= node_used[v], f"e[{u},{v}]:rx_used")
        incident.setdefault(u, []).append(e_var)
        incident.setdefault(v, []).append(e_var)
    # Optional nodes count as used only when connected.
    for node in template.nodes:
        if node.fixed:
            continue
        edges = incident.get(node.id)
        if edges:
            model.add(
                node_used[node.id] <= lin_sum(edges),
                f"alpha[{node.id}]:connected",
            )
        else:
            model.add(
                node_used[node.id] <= 0, f"alpha[{node.id}]:isolated"
            )


@contextmanager
def reference_wiring() -> Iterator[None]:
    """Encoders run inside this block wire every link on its own."""
    with mock.patch(
        "repro.encoding.approximate.link_variables", fresh_link_variables
    ), mock.patch.object(
        RoutingEncoder, "_wire_topology_consistency",
        staticmethod(wire_every_link),
    ):
        yield
