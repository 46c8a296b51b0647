"""Batch path-loss evaluation: whole matrices of links at once.

Template weighting needs PL for every candidate (tx, rx) pair — O(n^2)
scalar :meth:`~repro.channel.base.ChannelModel.path_loss_db` calls, each
paying Python call overhead and (for multi-wall models) a full per-wall
intersection scan.  :func:`path_loss_matrix` evaluates the same values as
one numpy computation when the model supports it.

A model opts in by providing a ``path_loss_matrix(tx_xy, rx_xy)`` method
taking ``(T, 2)``/``(R, 2)`` coordinate arrays and returning a ``(T, R)``
dB matrix.  The analytic models (:class:`~repro.channel.log_distance.
LogDistanceModel`, :class:`~repro.channel.multiwall.MultiWallModel`,
:class:`~repro.channel.shadowing.ShadowedChannel`) all do; table-backed
models fall back to the scalar loop transparently.

Numerical contract: vectorized values match the scalar model to well
within 1e-9 dB.  They are *not* guaranteed bitwise-identical — numpy's
``log10``/``hypot`` may differ from :mod:`math` by one ulp on some
platforms — which is why exact-equality consumers (e.g. the runtime's
reach rankings) stay on the scalar path.
"""

from __future__ import annotations

import numpy as np

from repro.channel.base import ChannelModel
from repro.geometry.primitives import Point
from repro.geometry.vectorized import points_to_array


def path_loss_matrix(
    model: ChannelModel,
    tx_points: list[Point] | tuple[Point, ...],
    rx_points: list[Point] | tuple[Point, ...] | None = None,
) -> np.ndarray:
    """Path loss in dB for every (tx, rx) pair, as a ``(T, R)`` matrix.

    ``rx_points`` defaults to ``tx_points`` (the all-pairs case used by
    template weighting).  Uses the model's ``path_loss_matrix`` hook when
    it has one, else scalar ``path_loss_db`` calls.
    """
    if rx_points is None:
        rx_points = tx_points
    hook = getattr(model, "path_loss_matrix", None)
    if hook is not None:
        tx_xy = points_to_array(list(tx_points))
        rx_xy = (
            tx_xy if rx_points is tx_points else points_to_array(list(rx_points))
        )
        return np.asarray(hook(tx_xy, rx_xy), dtype=np.float64)
    out = np.empty((len(tx_points), len(rx_points)), dtype=np.float64)
    for i, tx in enumerate(tx_points):
        for j, rx in enumerate(rx_points):
            out[i, j] = model.path_loss_db(tx, rx)
    return out
