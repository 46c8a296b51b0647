"""Activity-based bound propagation over a MILP, read-only.

For each row ``lo <= a.x <= hi`` and each column ``j`` with coefficient
``a_j``, the residual activity of the other terms implies a bound on
``x_j``; integer columns round the implied bound inward.  Iterated to a
fixpoint this is the classic bound tightening of a MILP presolve (cf.
Achterberg et al., "Presolve reductions in MIP"), but nothing here
transforms a model: :func:`propagated_bounds` runs the sweeps on a
throwaway mirror and returns the implied bounds.  The
``model.loose-big-m`` rule reads them to acquit indicator rows other
constraints already make vacuous.

Infinity-safe activity bounds track the finite part and the number of
infinite contributions separately, so "activity excluding variable j"
stays well-defined when exactly one term is unbounded.  Every sweep is
pure interval arithmetic: O(nnz), no LP.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.milp.model import Model

_INF = float("inf")

#: Base feasibility tolerance of the propagation.
TOL = 1e-9

#: Minimum relative improvement before a tightened bound is applied —
#: guards the fixpoint loop against crawling by epsilons.
_MIN_IMPROVE = 1e-7


def scaled_tol(reference: float) -> float:
    """Feasibility tolerance scaled to the magnitude of ``reference``."""
    if math.isinf(reference):
        return TOL
    return TOL * max(1.0, abs(reference))


@dataclass
class WorkRow:
    """One constraint row in working form: ``lo <= a.x <= hi``."""

    coeffs: dict[int, float]
    lower: float
    upper: float
    name: str = ""
    alive: bool = True


@dataclass(frozen=True)
class Activity:
    """Interval of a row's activity with infinity bookkeeping.

    ``lo``/``hi`` are the *finite parts*; ``lo_infs``/``hi_infs`` count
    the terms whose contribution is infinite.  The true minimum activity
    is ``-inf`` whenever ``lo_infs > 0`` (symmetrically for the max).
    """

    lo: float
    hi: float
    lo_infs: int
    hi_infs: int

    @property
    def min(self) -> float:
        return -_INF if self.lo_infs else self.lo

    @property
    def max(self) -> float:
        return _INF if self.hi_infs else self.hi


class PropagationState:
    """The mutable mirror of a model's bounds and rows a propagation
    tightens; the model itself is never touched."""

    def __init__(self, model: Model) -> None:
        variables = model.variables
        self.lower: list[float] = [v.lower for v in variables]
        self.upper: list[float] = [v.upper for v in variables]
        self.integer: list[bool] = [v.is_integer for v in variables]
        self.names: list[str] = [v.name for v in variables]
        self.rows: list[WorkRow] = []
        for constraint in model.constraints:
            coeffs, lo, hi = constraint.normalized()
            self.rows.append(WorkRow(
                {i: c for i, c in coeffs.items() if c != 0.0},
                lo, hi, constraint.name,
            ))
        #: Reason string once the model is proven infeasible.
        self.infeasible: str | None = None

    def mark_infeasible(self, reason: str) -> None:
        """Record a proof of infeasibility (first proof wins)."""
        if self.infeasible is None:
            self.infeasible = reason

    def activity(self, row: WorkRow) -> Activity:
        """Infinity-safe activity interval of ``row``."""
        lo = hi = 0.0
        lo_infs = hi_infs = 0
        lower, upper = self.lower, self.upper
        for j, coeff in row.coeffs.items():
            if coeff > 0.0:
                term_lo, term_hi = lower[j], upper[j]
            else:
                term_lo, term_hi = upper[j], lower[j]
            contrib_lo = coeff * term_lo
            contrib_hi = coeff * term_hi
            if math.isinf(contrib_lo):
                lo_infs += 1
            else:
                lo += contrib_lo
            if math.isinf(contrib_hi):
                hi_infs += 1
            else:
                hi += contrib_hi
        return Activity(lo, hi, lo_infs, hi_infs)

    def residual_min(self, row: WorkRow, act: Activity, j: int) -> float:
        """Minimum activity of ``row`` excluding column ``j``.

        Returns ``-inf`` when another term is unbounded below.
        """
        coeff = row.coeffs[j]
        bound = self.lower[j] if coeff > 0.0 else self.upper[j]
        contrib = coeff * bound
        if math.isinf(contrib):
            return -_INF if act.lo_infs > 1 else act.lo
        return -_INF if act.lo_infs else act.lo - contrib

    def residual_max(self, row: WorkRow, act: Activity, j: int) -> float:
        """Maximum activity of ``row`` excluding column ``j``."""
        coeff = row.coeffs[j]
        bound = self.upper[j] if coeff > 0.0 else self.lower[j]
        contrib = coeff * bound
        if math.isinf(contrib):
            return _INF if act.hi_infs > 1 else act.hi
        return _INF if act.hi_infs else act.hi - contrib


def _tighten_upper(state: PropagationState, j: int, bound: float) -> bool:
    """Apply ``x_j <= bound`` if it improves the current upper bound."""
    if state.integer[j]:
        bound = math.floor(bound + 1e-6)
    current = state.upper[j]
    if bound >= current - _MIN_IMPROVE * max(1.0, abs(current)):
        return False
    state.upper[j] = bound
    if bound < state.lower[j] - scaled_tol(bound):
        state.mark_infeasible(
            f"bounds of {state.names[j]!r} crossed during propagation "
            f"([{state.lower[j]:g}, {bound:g}])"
        )
    return True


def _tighten_lower(state: PropagationState, j: int, bound: float) -> bool:
    """Apply ``x_j >= bound`` if it improves the current lower bound."""
    if state.integer[j]:
        bound = math.ceil(bound - 1e-6)
    current = state.lower[j]
    if bound <= current + _MIN_IMPROVE * max(1.0, abs(current)):
        return False
    state.lower[j] = bound
    if bound > state.upper[j] + scaled_tol(bound):
        state.mark_infeasible(
            f"bounds of {state.names[j]!r} crossed during propagation "
            f"([{bound:g}, {state.upper[j]:g}])"
        )
    return True


def _propagate_row(
    state: PropagationState, row: WorkRow,
) -> tuple[int, bool]:
    """One propagation sweep over ``row``.

    Returns ``(bounds_tightened, removed)``; flags infeasibility on the
    state when the activity interval cannot meet the row bounds.
    """
    act = state.activity(row)
    lo, hi = row.lower, row.upper
    # Infeasible by interval arithmetic alone.
    if act.min > hi + scaled_tol(hi) or act.max < lo - scaled_tol(lo):
        state.mark_infeasible(
            f"row {row.name or '?'}: activity interval "
            f"[{act.min:g}, {act.max:g}] cannot meet bounds "
            f"[{lo:g}, {hi:g}]"
        )
        return 0, False
    # Redundant: implied by the variable bounds alone.
    if ((lo == -_INF or act.min >= lo - scaled_tol(lo))
            and (hi == _INF or act.max <= hi + scaled_tol(hi))):
        row.alive = False
        return 0, True
    tightened = 0
    for j, coeff in list(row.coeffs.items()):
        if coeff == 0.0:
            continue
        if hi != _INF:
            residual = state.residual_min(row, act, j)
            if residual != -_INF:
                implied = (hi - residual) / coeff
                if coeff > 0.0:
                    if _tighten_upper(state, j, implied):
                        tightened += 1
                elif _tighten_lower(state, j, implied):
                    tightened += 1
        if lo != -_INF:
            residual = state.residual_max(row, act, j)
            if residual != _INF:
                implied = (lo - residual) / coeff
                if coeff > 0.0:
                    if _tighten_lower(state, j, implied):
                        tightened += 1
                elif _tighten_upper(state, j, implied):
                    tightened += 1
        if state.infeasible is not None:
            return tightened, False
        if tightened:
            # Bounds moved under this row; refresh the activity so later
            # columns see the tightened interval.
            act = state.activity(row)
    return tightened, False


def propagate(state: PropagationState) -> tuple[int, int]:
    """One full bound-propagation sweep over every live row.

    Rows implied by the bounds alone are retired from later sweeps.
    Returns ``(bounds_tightened, rows_removed)``.
    """
    tightened = 0
    removed = 0
    for row in state.rows:
        if not row.alive:
            continue
        row_tightened, row_removed = _propagate_row(state, row)
        tightened += row_tightened
        removed += 1 if row_removed else 0
        if state.infeasible is not None:
            break
    return tightened, removed


def propagated_bounds(
    model: Model, *, max_rounds: int = 5,
) -> tuple[list[float], list[float], int]:
    """Fixpoint-propagated variable bounds of ``model``.

    A read-only convenience for analysis rules: runs the bound
    propagation above on a throwaway working state (never mutating
    ``model``) and returns ``(lower, upper, bounds_tightened)`` in the
    model's variable order.  Rows the propagation removes or proves
    infeasible are irrelevant here — only the bounds are reported.
    """
    state = PropagationState(model)
    total = 0
    for _ in range(max_rounds):
        tightened, _removed = propagate(state)
        total += tightened
        if not tightened or state.infeasible is not None:
            break
    return list(state.lower), list(state.upper), total


__all__ = ["PropagationState", "propagate", "propagated_bounds"]
