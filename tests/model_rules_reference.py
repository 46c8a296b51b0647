"""Per-row reference implementations of the model-level rules.

These are the rule bodies as plain Python loops over
``model.constraints`` and ``model.variables``, one row or variable at a
time.  The shipped rules in :mod:`repro.analysis.model_rules` compute the
same findings with numpy masks over one flattening of the rows; the
differential tests hold them to these loops field for field and in
order.  Each reference class subclasses the shipped rule, so it shares
its id, severity and hint, and overrides ``check`` with the loop.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

from repro.analysis.diagnostics import Diagnostic, Severity
from repro.analysis.model_rules import (
    DuplicateRowRule,
    ForeignVariableRule,
    LooseBigMRule,
    TrivialInfeasibilityRule,
    UnusedVariableRule,
    VacuousConstraintRule,
    VariableBoundsRule,
)
from repro.analysis.rules import ModelRule
from repro.milp.expr import Constraint, Var
from repro.milp.model import Model

_INF = float("inf")


def _tol(reference: float) -> float:
    """Feasibility tolerance scaled to the magnitude of ``reference``."""
    if math.isinf(reference):
        return 1e-9
    return 1e-9 * max(1.0, abs(reference))


def _row_location(index: int, constraint: Constraint) -> str:
    if constraint.name:
        return f"row {constraint.name!r}"
    return f"row #{index}"


def _valid_indices(coeffs: dict[int, float], n: int) -> bool:
    return all(0 <= idx < n for idx in coeffs)


def _well_formed(model: Model) -> bool:
    """No foreign column and no NaN bound or coefficient anywhere."""
    n = len(model.variables)
    for var in model.variables:
        if math.isnan(var.lower) or math.isnan(var.upper):
            return False
    for constraint in model.constraints:
        coeffs, lo, hi = constraint.normalized()
        if math.isnan(lo) or math.isnan(hi) or not _valid_indices(coeffs, n):
            return False
        if any(math.isnan(coeff) for coeff in coeffs.values()):
            return False
    return True


def _activity(
    coeffs: dict[int, float], variables: list[Var]
) -> tuple[float, float]:
    """Interval of ``sum(coeff * var)`` over the variable bounds."""
    lo = hi = 0.0
    for idx, coeff in coeffs.items():
        if coeff == 0.0:
            continue
        var = variables[idx]
        if coeff > 0.0:
            lo += coeff * var.lower
            hi += coeff * var.upper
        else:
            lo += coeff * var.upper
            hi += coeff * var.lower
    return lo, hi


class ReferenceVariableBoundsRule(VariableBoundsRule):
    """Variable bounds must be orderable and finite where integrality needs."""

    def check(self, model: Model) -> Iterator[Diagnostic]:
        for var in model.variables:
            if math.isnan(var.lower) or math.isnan(var.upper):
                yield self.diagnostic(
                    f"bound is NaN: [{var.lower}, {var.upper}]",
                    location=f"var {var.name!r}", variable=var.name,
                )
            elif var.lower > var.upper:
                yield self.diagnostic(
                    f"lower bound {var.lower:g} exceeds upper bound "
                    f"{var.upper:g}: the domain is empty",
                    location=f"var {var.name!r}", variable=var.name,
                )
            elif var.is_integer and not var.is_binary and (
                math.isinf(var.lower) or math.isinf(var.upper)
            ):
                yield self.diagnostic(
                    f"general integer variable is unbounded "
                    f"([{var.lower:g}, {var.upper:g}]); branch-and-bound "
                    f"cannot enumerate an infinite lattice efficiently",
                    location=f"var {var.name!r}",
                    severity=Severity.INFO,
                    hint="give integer variables finite bounds",
                    variable=var.name,
                )


class ReferenceForeignVariableRule(ForeignVariableRule):
    """Rows and objective may only reference registered variables."""

    def check(self, model: Model) -> Iterator[Diagnostic]:
        n = len(model.variables)
        for i, constraint in enumerate(model.constraints):
            bad = sorted(
                idx for idx in constraint.expr.coeffs if not 0 <= idx < n
            )
            if bad:
                yield self.diagnostic(
                    f"references variable index(es) {bad} but the model "
                    f"has {n} variable(s)",
                    location=_row_location(i, constraint),
                    indices=bad,
                )
        bad = sorted(idx for idx in model.objective.coeffs if not 0 <= idx < n)
        if bad:
            yield self.diagnostic(
                f"objective references variable index(es) {bad} but the "
                f"model has {n} variable(s)",
                location="objective",
                indices=bad,
            )


class ReferenceTrivialInfeasibilityRule(TrivialInfeasibilityRule):
    """No row may be unsatisfiable for every assignment within bounds."""

    def check(self, model: Model) -> Iterator[Diagnostic]:
        n = len(model.variables)
        for i, constraint in enumerate(model.constraints):
            coeffs, lo, hi = constraint.normalized()
            if not _valid_indices(coeffs, n):
                continue  # model.foreign-variable already fired
            where = _row_location(i, constraint)
            if lo > hi + _tol(hi):
                yield self.diagnostic(
                    f"row bounds are crossed: lower {lo:g} > upper {hi:g}",
                    location=where, row=i,
                )
                continue
            act_lo, act_hi = _activity(coeffs, model.variables)
            if math.isnan(act_lo) or math.isnan(act_hi):
                continue
            if act_lo > hi + _tol(hi):
                yield self.diagnostic(
                    f"smallest attainable activity {act_lo:g} already "
                    f"exceeds the upper bound {hi:g}",
                    location=where, row=i, activity=(act_lo, act_hi),
                )
            elif act_hi < lo - _tol(lo):
                yield self.diagnostic(
                    f"largest attainable activity {act_hi:g} cannot reach "
                    f"the lower bound {lo:g}",
                    location=where, row=i, activity=(act_lo, act_hi),
                )


class ReferenceVacuousConstraintRule(VacuousConstraintRule):
    """Rows implied by the variable bounds alone are dead weight."""

    def check(self, model: Model) -> Iterator[Diagnostic]:
        n = len(model.variables)
        for i, constraint in enumerate(model.constraints):
            coeffs, lo, hi = constraint.normalized()
            if not coeffs or not _valid_indices(coeffs, n):
                continue
            act_lo, act_hi = _activity(coeffs, model.variables)
            if math.isnan(act_lo) or math.isnan(act_hi):
                continue
            lower_ok = lo == -_INF or act_lo >= lo - _tol(lo)
            upper_ok = hi == _INF or act_hi <= hi + _tol(hi)
            if lower_ok and upper_ok:
                yield self.diagnostic(
                    f"activity range [{act_lo:g}, {act_hi:g}] always lies "
                    f"within the row bounds [{lo:g}, {hi:g}]",
                    location=_row_location(i, constraint), row=i,
                )


class ReferenceUnusedVariableRule(UnusedVariableRule):
    """Every variable should appear in a row or the objective."""

    def check(self, model: Model) -> Iterator[Diagnostic]:
        used: set[int] = {
            idx for idx, coeff in model.objective.coeffs.items()
            if coeff != 0.0
        }
        for constraint in model.constraints:
            for idx, coeff in constraint.expr.coeffs.items():
                if coeff != 0.0:
                    used.add(idx)
        unused = [var.name for var in model.variables if var.index not in used]
        if unused:
            shown = ", ".join(unused[:8])
            if len(unused) > 8:
                shown += f", ... ({len(unused) - 8} more)"
            yield self.diagnostic(
                f"{len(unused)} variable(s) unused: {shown}",
                location=f"model {model.name!r}",
                variables=unused,
            )


class ReferenceLooseBigMRule(LooseBigMRule):
    """Indicator big-M constants should be as tight as the bounds allow.

    The activity analysis runs over *fixpoint-propagated* bounds
    (:func:`repro.analysis.propagation.propagated_bounds`), not the raw
    declared bounds.  This retires a whole class of false positives: a
    row like ``c - 50*b >= -44`` looks like a loose M=50 against
    ``c in [0, 10]``, but when another row forces ``c >= 6`` the
    indicator side is *vacuous* — the row is implied for both values of
    ``b``, the correct fix is deleting it (``model.vacuous-constraint``
    territory), and no M-shrinking advice applies.  With propagated
    bounds the tightest implied constant collapses to ~0 there and the
    rule stays silent.
    """

    #: Report only when the slack is material (absolute and relative);
    #: micro-coefficient indicator rows (piecewise tails) are numerical
    #: noise, not modelling bugs.
    _ABS_SLACK = 1e-4
    _REL_SLACK = 0.01

    def check(self, model: Model) -> Iterator[Diagnostic]:
        from repro.analysis.propagation import propagated_bounds

        n = len(model.variables)
        # Propagation only over a well-formed model; otherwise the
        # declared bounds stand alone and nothing is acquitted.
        propagate = n > 0 and _well_formed(model)
        if propagate:
            prop_lower, prop_upper, _ = propagated_bounds(model)
        for i, constraint in enumerate(model.constraints):
            coeffs, lo, hi = constraint.normalized()
            if not _valid_indices(coeffs, n):
                continue
            # Normalize one-sided rows to `sum(d * x) >= bound` form.
            if lo != -_INF and hi == _INF:
                d, bound = coeffs, lo
            elif lo == -_INF and hi != _INF:
                d = {idx: -c for idx, c in coeffs.items()}
                bound = -hi
            else:
                continue
            # Big-M analysis targets the classic indicator shape: exactly
            # one binary relaxing a bound over a continuous expression.
            # Rows with several binaries (device-selection hulls) or none
            # couple through other constraints (assignment equalities),
            # which interval analysis cannot see, so they are skipped to
            # avoid false positives.
            binaries = []
            has_continuous = False
            for idx, coeff in d.items():
                if coeff == 0.0:
                    continue
                var = model.variables[idx]
                if var.is_binary:
                    binaries.append((var, coeff))
                else:
                    has_continuous = True
            if len(binaries) != 1 or not has_continuous:
                continue
            act_lo, _ = _activity(d, model.variables)
            prop_act_lo = math.nan
            if propagate:
                prop_act_lo = 0.0
                for idx, coeff in d.items():
                    if coeff == 0.0:
                        continue
                    prop_act_lo += coeff * (
                        prop_lower[idx] if coeff > 0.0 else prop_upper[idx]
                    )
            if not math.isfinite(act_lo) or not math.isfinite(bound):
                continue
            for var, coeff in binaries:
                # At the binary's relaxing value the row must hold for
                # every assignment; slack beyond that proves the constant
                # is larger than needed.  The *declared* bounds decide
                # whether the constant looks like a modelling bug; the
                # propagated bounds can only acquit — when they show the
                # indicator side is vacuous (the row holds for either
                # binary value given what the other rows force), the
                # right fix is deleting the row, not shrinking M, so the
                # finding is suppressed as a false positive.
                slack = act_lo + abs(coeff) - bound
                tightest = abs(coeff) - slack
                prop_tightest = abs(coeff) - (
                    prop_act_lo + abs(coeff) - bound
                )
                if math.isfinite(prop_act_lo) and (
                    prop_tightest <= self._ABS_SLACK
                ):
                    continue
                if (slack > max(self._ABS_SLACK, self._REL_SLACK * abs(coeff))
                        and tightest > self._ABS_SLACK):
                    yield self.diagnostic(
                        f"coefficient {abs(coeff):g} on binary "
                        f"{var.name!r} exceeds the tightest implied "
                        f"big-M {tightest:g}",
                        location=_row_location(i, constraint),
                        row=i,
                        variable=var.name,
                        coefficient=abs(coeff),
                        tightest=tightest,
                    )


class ReferenceDuplicateRowRule(DuplicateRowRule):
    """Rows sharing one left-hand side should be merged."""

    def check(self, model: Model) -> Iterator[Diagnostic]:
        groups: dict[tuple[tuple[int, float], ...], list[int]] = {}
        rows = model.constraints
        for i, constraint in enumerate(rows):
            coeffs = constraint.normalized()[0]
            signature = tuple(
                sorted((idx, c) for idx, c in coeffs.items() if c != 0.0)
            )
            if signature:
                groups.setdefault(signature, []).append(i)
        for indices in groups.values():
            if len(indices) < 2:
                continue
            names = [
                rows[i].name or f"#{i}" for i in indices[:4]
            ]
            shown = ", ".join(names)
            if len(indices) > 4:
                shown += f", ... ({len(indices) - 4} more)"
            yield self.diagnostic(
                f"{len(indices)} rows share one left-hand side: {shown}",
                location=_row_location(indices[0], rows[indices[0]]),
                rows=list(indices),
            )


#: The reference rules in registration order of the shipped ones.
REFERENCE_RULES: tuple[ModelRule, ...] = (
    ReferenceVariableBoundsRule(),
    ReferenceForeignVariableRule(),
    ReferenceTrivialInfeasibilityRule(),
    ReferenceVacuousConstraintRule(),
    ReferenceUnusedVariableRule(),
    ReferenceLooseBigMRule(),
    ReferenceDuplicateRowRule(),
)


def reference_diagnostics(model: Model) -> list[Diagnostic]:
    """Every reference rule's findings, in order."""
    found: list[Diagnostic] = []
    for rule in REFERENCE_RULES:
        found.extend(rule.check(model))
    return found
