"""Assignment validation shared by the solver backends.

A warm start arriving through ``Model.hints["warm_start"]`` is advisory:
the producer (a replay of a previous design, or any caller) may be
wrong, stale, or in the wrong variable space.  Both backends run
the candidate through :func:`check_assignment` before adopting it as an
incumbent, so a bad hint can cost a warm start but never correctness.
:func:`warm_start_incumbent` is the last resort of a solve that ends
without an incumbent of its own: the start, re-checked, as the answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np
import numpy.typing as npt

from repro.milp.model import Model, StandardForm
from repro.milp.solution import Solution, SolveStatus

#: Absolute feasibility slack for bounds/rows and integrality checks.
#: Looser than the solvers' own tolerances on purpose: heuristic starts
#: are built from rounded binaries and re-solved LPs, so they carry
#: ordinary floating-point noise that must not disqualify them.
FEAS_TOL = 1e-6


@dataclass(frozen=True)
class AssignmentCheck:
    """Verdict on a candidate assignment against a standard form."""

    ok: bool
    #: Human-readable reason when ``ok`` is False ("" when accepted).
    reason: str
    #: Largest bound/row/integrality violation found (0.0 when clean).
    max_violation: float
    #: ``c @ x`` at the candidate (solver space, NO objective constant),
    #: NaN when the vector has the wrong shape.
    objective: float


def coerce_start(
    payload: Any, n_vars: int,
) -> npt.NDArray[np.float64] | None:
    """The ``"x"`` vector of a ``warm_start`` hint payload, or ``None``.

    Accepts any mapping with an ``"x"`` entry convertible to a float
    vector of length ``n_vars``; anything else (wrong type, wrong
    length, NaN/inf entries) is rejected.
    """
    if not isinstance(payload, dict):
        return None
    raw = payload.get("x")
    if raw is None:
        return None
    try:
        x = np.asarray(raw, dtype=float).reshape(-1)
    except (TypeError, ValueError):
        return None
    if x.shape[0] != n_vars or not np.all(np.isfinite(x)):
        return None
    return x


def check_assignment(
    form: StandardForm,
    x: npt.NDArray[np.float64],
    tol: float = FEAS_TOL,
) -> AssignmentCheck:
    """Check ``x`` against bounds, integrality and every row of ``form``."""
    if x.shape[0] != form.c.shape[0]:
        return AssignmentCheck(
            ok=False,
            reason=(
                f"wrong length: {x.shape[0]} values for "
                f"{form.c.shape[0]} variables"
            ),
            max_violation=float("inf"),
            objective=float("nan"),
        )
    objective = float(form.c @ x)
    worst = 0.0

    lower_viol = float(np.max(form.x_lower - x, initial=0.0))
    upper_viol = float(np.max(x - form.x_upper, initial=0.0))
    worst = max(worst, lower_viol, upper_viol)
    if worst > tol:
        return AssignmentCheck(
            ok=False,
            reason=f"variable bound violated by {worst:.3g}",
            max_violation=worst,
            objective=objective,
        )

    int_idx = np.flatnonzero(form.integrality == 1)
    if int_idx.size:
        frac = float(
            np.max(np.abs(x[int_idx] - np.round(x[int_idx])), initial=0.0)
        )
        worst = max(worst, frac)
        if frac > tol:
            return AssignmentCheck(
                ok=False,
                reason=f"integrality violated by {frac:.3g}",
                max_violation=worst,
                objective=objective,
            )

    if form.a_matrix.shape[0]:
        row_values = np.asarray(form.a_matrix @ x, dtype=float).reshape(-1)
        below = float(np.max(form.b_lower - row_values, initial=0.0))
        above = float(np.max(row_values - form.b_upper, initial=0.0))
        row_viol = max(below, above)
        worst = max(worst, row_viol)
        if row_viol > tol:
            return AssignmentCheck(
                ok=False,
                reason=f"constraint row violated by {row_viol:.3g}",
                max_violation=worst,
                objective=objective,
            )

    return AssignmentCheck(
        ok=True, reason="", max_violation=worst, objective=objective,
    )


def warm_start_incumbent(model: Model, message: str) -> Solution | None:
    """The model's warm-start hint as a ``FEASIBLE`` solution with no
    proven bound, when one exists and still checks out against the model
    (a stale or malformed hint gives ``None``, never a wrong answer).

    ``message`` says why the solve fell back on it.
    """
    payload = model.hints.get("warm_start")
    if payload is None:
        return None
    form = model.to_standard_form()
    x = coerce_start(payload, int(form.c.shape[0]))
    if x is None:
        return None
    check = check_assignment(form, x)
    if not check.ok:
        return None
    return Solution(
        status=SolveStatus.FEASIBLE,
        objective=check.objective + model.objective.constant,
        x=x,
        mip_gap=float("inf"),
        message=(
            f"{message}; degraded to the "
            f"{payload.get('source', 'hint')!s} warm-start incumbent"
        ),
        extra={"degraded_to_warm_start": True},
    )
