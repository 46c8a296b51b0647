"""HiGHS backend via :func:`scipy.optimize.milp`.

This stands in for the paper's CPLEX: an exact branch-and-cut MILP solver.
The backend converts a :class:`~repro.milp.model.Model`'s standard form into
scipy's ``LinearConstraint``/``Bounds`` API, runs HiGHS, and wraps the
result into a solver-independent :class:`~repro.milp.solution.Solution`.
"""

from __future__ import annotations

import copy
import math
import time
from typing import Any

import numpy as np
import numpy.typing as npt
from scipy.optimize import Bounds, LinearConstraint, milp

from repro.milp.model import Model, StandardForm
from repro.milp.solution import Solution, SolveStatus
from repro.milp.validate import (
    check_assignment,
    coerce_start,
    warm_start_incumbent,
)
from repro.resilience.faults import fires, maybe_fire
from repro.telemetry.trace import span


#: Map from scipy.optimize.milp status codes to our statuses when no
#: assignment is attached.
_STATUS_NO_X = {
    1: SolveStatus.TIMEOUT,  # iteration/time limit, no incumbent
    2: SolveStatus.INFEASIBLE,
    3: SolveStatus.UNBOUNDED,
    4: SolveStatus.ERROR,
}


def normalized_gap(raw: object, status: SolveStatus) -> float:
    """The documented ``mip_gap`` convention, from whatever scipy reports.

    Depending on the scipy version, ``result.mip_gap`` may be missing,
    ``None``, or NaN — and NaN is truthy, so an ``x or 0.0`` guard lets
    it through.  The convention is: the gap is **never NaN**; it is the
    solver-reported relative gap when that is a finite non-negative
    number (tiny negative rounding clamps to 0.0), else ``0.0`` for a
    proven-``OPTIMAL`` solve and ``+inf`` for an incumbent whose bound
    was not proven (``FEASIBLE``).
    """
    try:
        gap = float(raw)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        gap = float("nan")
    if math.isfinite(gap):
        return max(gap, 0.0)
    return 0.0 if status is SolveStatus.OPTIMAL else float("inf")


def _integral_point(
    form: StandardForm, raw_x: object, fun: float,
) -> tuple[npt.NDArray[np.float64], float]:
    """HiGHS's point with its integer columns rounded, and ``c @ x``.

    HiGHS accepts integer columns within its own feasibility tolerance,
    so an integral design can come back as 0.9999999 and its cost a few
    ulps or more off.  The rounded point stands when it still satisfies
    every row and bound; otherwise HiGHS's own point and ``fun`` do.
    """
    x = np.asarray(raw_x, dtype=float)
    rounded = x.copy()
    int_idx = np.flatnonzero(form.integrality == 1)
    rounded[int_idx] = np.round(rounded[int_idx])
    check = check_assignment(form, rounded)
    if not check.ok:
        return x, fun
    return rounded, check.objective


def normalized_node_count(raw: object) -> int:
    """Branch-and-bound node count as a non-negative int (0 if absent)."""
    try:
        count = int(float(raw))  # type: ignore[arg-type]
    except (TypeError, ValueError):
        return 0
    return max(count, 0)


class HighsSolver:
    """Solve models with HiGHS through scipy.

    Parameters
    ----------
    time_limit:
        Wall-clock limit in seconds (``None`` = unlimited).  When HiGHS
        stops at the limit with an incumbent, the solution is returned
        with status :attr:`SolveStatus.FEASIBLE`; when it stops without
        one, a validated warm start is returned the same way.
    mip_rel_gap:
        Relative optimality gap at which the search may stop.
    """

    name = "highs"

    def __init__(
        self, time_limit: float | None = None, mip_rel_gap: float = 1e-6,
    ) -> None:
        self.time_limit = time_limit
        self.mip_rel_gap = mip_rel_gap

    def with_time_limit(self, time_limit: float | None) -> HighsSolver:
        """A copy of this solver with a different wall-clock limit
        (the watchdog uses this to clip attempts to a deadline budget)."""
        clone = copy.copy(self)
        clone.time_limit = time_limit
        return clone

    def solve(self, model: Model) -> Solution:
        """Run HiGHS on ``model`` and return a :class:`Solution`.

        The whole backend call is one ``solver.solve`` span (scipy's
        ``milp`` exposes no progress callback, so unlike the
        branch-and-bound backend there is no incumbent trajectory).
        """
        with span("solver.solve", solver=self.name) as solve_span:
            solution = self._solve(model)
            solve_span.set_attributes(
                status=solution.status.name,
                nodes=solution.node_count,
            )
            return solution

    def _solve(self, model: Model) -> Solution:
        maybe_fire("solver.hang")
        if fires("solver.error"):
            return Solution(
                status=SolveStatus.ERROR,
                message="injected solver error (REPRO_FAULTS solver.error)",
            )
        form = model.to_standard_form()
        if form.c.shape[0] == 0:
            # A variable-free model: scipy's milp rejects an empty c,
            # but the model is trivially optimal at its objective
            # constant.
            return Solution(
                status=SolveStatus.OPTIMAL,
                objective=model.objective.constant,
                x=np.zeros(0, dtype=float),
                message="model has no variables; trivially optimal",
            )
        # Warm starts are validated up front and their fate is always
        # surfaced on Solution.extra["warm_start"] — an infeasible start
        # is *reported* as rejected, never silently dropped.
        warm_info: dict[str, Any] | None = None
        warm_x: npt.NDArray[np.float64] | None = None
        warm_payload = model.hints.get("warm_start")
        if warm_payload is not None:
            warm_info, warm_x = self._screen_warm_start(form, warm_payload)

        options: dict[str, float] = {"mip_rel_gap": self.mip_rel_gap}
        if self.time_limit is not None:
            options["time_limit"] = float(self.time_limit)

        constraints = []
        if form.a_matrix.shape[0] > 0:
            constraints.append(LinearConstraint(
                form.a_matrix, form.b_lower, form.b_upper
            ))
        if warm_x is not None:
            # scipy's milp cannot seed an incumbent, but a validated
            # start still yields a sound primal bound: an objective-
            # cutoff row c.x <= c.warm_x.  The start itself satisfies
            # the row with equality, so the model stays feasible and
            # every optimum survives; HiGHS just gets to prune any
            # subtree whose LP bound exceeds the known incumbent.
            bound = float(form.c @ warm_x)
            cutoff = bound + 1e-7 * max(1.0, abs(bound))
            constraints.append(LinearConstraint(
                form.c.reshape(1, -1), -np.inf, cutoff
            ))
        bounds = Bounds(form.x_lower, form.x_upper)

        start = time.perf_counter()
        result = milp(
            c=form.c,
            constraints=constraints or None,
            bounds=bounds,
            integrality=form.integrality,
            options=options,
        )
        elapsed = time.perf_counter() - start

        extra: dict[str, Any] = {}
        if warm_info is not None:
            extra["warm_start"] = warm_info
        if result.x is not None:
            status = (
                SolveStatus.OPTIMAL if result.status == 0 else SolveStatus.FEASIBLE
            )
            raw_gap: Any = getattr(result, "mip_gap", None)
            x, objective = _integral_point(form, result.x, float(result.fun))
            return Solution(
                status=status,
                # The objective is c @ x; fold its constant back in.
                objective=objective + model.objective.constant,
                x=x,
                solve_time=elapsed,
                mip_gap=normalized_gap(raw_gap, status),
                node_count=normalized_node_count(
                    getattr(result, "mip_node_count", None)
                ),
                message=str(result.message),
                extra=extra,
            )
        status = _STATUS_NO_X.get(result.status, SolveStatus.ERROR)
        if status is SolveStatus.TIMEOUT and warm_x is not None:
            # The limit stopped HiGHS before an incumbent of its own, so
            # the start validated above is the best design known.
            fallback = warm_start_incumbent(model, str(result.message))
            if fallback is not None:
                fallback.solve_time = elapsed
                fallback.extra.update(extra)
                return fallback
        return Solution(
            status=status, solve_time=elapsed, message=str(result.message),
            extra=extra,
        )

    def _screen_warm_start(
        self, form: StandardForm, payload: Any,
    ) -> tuple[dict[str, Any], npt.NDArray[np.float64] | None]:
        """Validate a warm-start hint; (structured verdict, usable x).

        The verdict lands on ``Solution.extra["warm_start"]`` whatever
        happens.  ``milp`` cannot accept a start, so a valid one is
        consumed as an ``objective_cutoff`` row (recorded on the
        verdict's ``mechanism``) and, when the time limit leaves HiGHS
        without an incumbent, returned as the solution itself.
        """
        source = (
            str(payload.get("source", "hint"))
            if isinstance(payload, dict) else "hint"
        )
        x = coerce_start(payload, int(form.c.shape[0]))
        if x is None:
            return (
                {
                    "status": "rejected",
                    "source": source,
                    "reason": "malformed payload (expected {'x': vector})",
                },
                None,
            )
        check = check_assignment(form, x)
        if not check.ok:
            return (
                {
                    "status": "rejected",
                    "source": source,
                    "reason": check.reason,
                    "max_violation": check.max_violation,
                },
                None,
            )
        info: dict[str, Any] = {
            "status": "accepted",
            "source": source,
            "objective": check.objective,
            "mechanism": "objective_cutoff",
        }
        return info, x
