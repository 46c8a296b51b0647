"""Model-level analysis rules: a built MILP before the solver sees it.

All rules here are interval-arithmetic passes over the variable bounds
and constraint rows — no LP relaxation required.  They catch the
model-construction bugs that otherwise surface as an opaque
``infeasible`` (or as silent slack): contradictory bounds, rows no
assignment can satisfy, rows implied by the bounds alone, variables the
model never constrains, big-M constants larger than the tightest value
the bounds imply, and duplicated left-hand sides.

Each rule is a few numpy masks over the shared
:class:`~repro.analysis.rules.ModelContext` (one flattening of the rows
per analysis), and Python touches only the rows and variables a rule
flags, to format their messages.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np
import numpy.typing as npt

from repro.analysis import propagation
from repro.analysis.diagnostics import Diagnostic, Severity
from repro.analysis.rules import (
    ModelContext,
    ModelRule,
    model_rule,
    row_sums,
)
from repro.milp.expr import Constraint


def _tol(reference: npt.NDArray[np.float64]) -> npt.NDArray[np.float64]:
    """Feasibility tolerance scaled to the magnitude of ``reference``."""
    return np.where(
        np.isinf(reference), 1e-9, 1e-9 * np.fmax(1.0, np.abs(reference))
    )


def _row_location(index: int, constraint: Constraint) -> str:
    if constraint.name:
        return f"row {constraint.name!r}"
    return f"row #{index}"


def _uint64_mix(x: npt.NDArray[np.uint64]) -> npt.NDArray[np.uint64]:
    """The splitmix64 finalizer: a cheap bijective scramble of 64 bits."""
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


@model_rule
class VariableBoundsRule(ModelRule):
    """Variable bounds must be orderable and finite where integrality needs."""

    rule_id = "model.variable-bounds"
    default_severity = Severity.ERROR
    title = "variable bounds are contradictory or missing"
    example = (
        "a variable with ``lower=1, upper=0`` (empty domain) or a general "
        "integer left unbounded above"
    )
    hint = "fix the bounds where the variable is created"

    def check_context(self, ctx: ModelContext) -> Iterator[Diagnostic]:
        lower, upper = ctx.var_lower, ctx.var_upper
        nan = np.isnan(lower) | np.isnan(upper)
        crossed = ~nan & (lower > upper)
        unbounded = (
            ~nan & ~crossed & ctx.integer & ~ctx.binary
            & (np.isinf(lower) | np.isinf(upper))
        )
        variables = ctx.model.variables
        for j in np.flatnonzero(nan | crossed | unbounded):
            var = variables[j]
            if nan[j]:
                yield self.diagnostic(
                    f"bound is NaN: [{var.lower}, {var.upper}]",
                    location=f"var {var.name!r}", variable=var.name,
                )
            elif crossed[j]:
                yield self.diagnostic(
                    f"lower bound {var.lower:g} exceeds upper bound "
                    f"{var.upper:g}: the domain is empty",
                    location=f"var {var.name!r}", variable=var.name,
                )
            else:
                yield self.diagnostic(
                    f"general integer variable is unbounded "
                    f"([{var.lower:g}, {var.upper:g}]); branch-and-bound "
                    f"cannot enumerate an infinite lattice efficiently",
                    location=f"var {var.name!r}",
                    severity=Severity.INFO,
                    hint="give integer variables finite bounds",
                    variable=var.name,
                )


@model_rule
class ForeignVariableRule(ModelRule):
    """Rows and objective may only reference registered variables."""

    rule_id = "model.foreign-variable"
    default_severity = Severity.ERROR
    title = "a row references a variable the model does not own"
    example = (
        "building a constraint from variables of one ``Model`` and adding "
        "it to another — the index resolves to a different column there"
    )
    hint = "create all variables on the model the constraint is added to"

    def check_context(self, ctx: ModelContext) -> Iterator[Diagnostic]:
        n = ctx.n
        rows = ctx.model.constraints
        for i in np.flatnonzero(~ctx.valid_row):
            constraint = rows[i]
            bad = sorted(
                idx for idx in constraint.expr.coeffs if not 0 <= idx < n
            )
            yield self.diagnostic(
                f"references variable index(es) {bad} but the model "
                f"has {n} variable(s)",
                location=_row_location(int(i), constraint),
                indices=bad,
            )
        objective = ctx.model.objective.coeffs
        bad = sorted(idx for idx in objective if not 0 <= idx < n)
        if bad:
            yield self.diagnostic(
                f"objective references variable index(es) {bad} but the "
                f"model has {n} variable(s)",
                location="objective",
                indices=bad,
            )


@model_rule
class TrivialInfeasibilityRule(ModelRule):
    """No row may be unsatisfiable for every assignment within bounds."""

    rule_id = "model.trivial-infeasibility"
    default_severity = Severity.WARNING
    title = "a row cannot be satisfied by any assignment within bounds"
    example = (
        "``x + y >= 3`` over two binaries, or a coverage row demanding "
        "more anchors than it has candidate variables"
    )
    hint = (
        "the whole model is infeasible because of this row alone; fix the "
        "requirement or the bounds that make it impossible"
    )

    def check_context(self, ctx: ModelContext) -> Iterator[Diagnostic]:
        # Rows with a foreign column are model.foreign-variable's finding.
        lo, hi = ctx.rows.lower, ctx.rows.upper
        hi_tol = hi + _tol(hi)
        crossed = ctx.valid_row & (lo > hi_tol)
        act_lo, act_hi = ctx.activity
        known = (
            ctx.valid_row & ~crossed & ~np.isnan(act_lo) & ~np.isnan(act_hi)
        )
        too_high = known & (act_lo > hi_tol)
        too_low = known & ~too_high & (act_hi < lo - _tol(lo))
        rows = ctx.model.constraints
        for i in np.flatnonzero(crossed | too_high | too_low):
            row = int(i)
            where = _row_location(row, rows[row])
            if crossed[row]:
                yield self.diagnostic(
                    f"row bounds are crossed: lower {float(lo[row]):g} > "
                    f"upper {float(hi[row]):g}",
                    location=where, row=row,
                )
                continue
            activity = (float(act_lo[row]), float(act_hi[row]))
            if too_high[row]:
                yield self.diagnostic(
                    f"smallest attainable activity {activity[0]:g} already "
                    f"exceeds the upper bound {float(hi[row]):g}",
                    location=where, row=row, activity=activity,
                )
            else:
                yield self.diagnostic(
                    f"largest attainable activity {activity[1]:g} cannot "
                    f"reach the lower bound {float(lo[row]):g}",
                    location=where, row=row, activity=activity,
                )


@model_rule
class VacuousConstraintRule(ModelRule):
    """Rows implied by the variable bounds alone are dead weight."""

    rule_id = "model.vacuous-constraint"
    default_severity = Severity.INFO
    title = "a row is implied by the variable bounds alone"
    example = (
        "``x + y >= 0`` over two binaries — every assignment within "
        "bounds already satisfies it"
    )
    hint = "drop the row; it only inflates the matrix"

    def check_context(self, ctx: ModelContext) -> Iterator[Diagnostic]:
        lo, hi = ctx.rows.lower, ctx.rows.upper
        act_lo, act_hi = ctx.activity
        vacuous = (
            (ctx.rows.counts > 0) & ctx.valid_row
            & ~np.isnan(act_lo) & ~np.isnan(act_hi)
            & ((lo == -np.inf) | (act_lo >= lo - _tol(lo)))
            & ((hi == np.inf) | (act_hi <= hi + _tol(hi)))
        )
        rows = ctx.model.constraints
        for i in np.flatnonzero(vacuous):
            row = int(i)
            yield self.diagnostic(
                f"activity range [{float(act_lo[row]):g}, "
                f"{float(act_hi[row]):g}] always lies within the row "
                f"bounds [{float(lo[row]):g}, {float(hi[row]):g}]",
                location=_row_location(row, rows[row]), row=row,
            )


@model_rule
class UnusedVariableRule(ModelRule):
    """Every variable should appear in a row or the objective."""

    rule_id = "model.unused-variable"
    default_severity = Severity.WARNING
    title = "variables appear in no row and no objective term"
    example = (
        "a binary created by an encoder but never wired into any "
        "constraint — the solver branches on pure noise"
    )
    hint = "remove the variables or wire them into the model"

    def check_context(self, ctx: ModelContext) -> Iterator[Diagnostic]:
        n = ctx.n
        used = np.zeros(n, dtype=np.bool_)
        used[ctx.rows.cols[ctx.nonzero_term & ~ctx.foreign_term]] = True
        used[[
            idx for idx, coeff in ctx.model.objective.coeffs.items()
            if coeff != 0.0 and 0 <= idx < n
        ]] = True
        variables = ctx.model.variables
        unused = [variables[j].name for j in np.flatnonzero(~used)]
        if unused:
            shown = ", ".join(unused[:8])
            if len(unused) > 8:
                shown += f", ... ({len(unused) - 8} more)"
            yield self.diagnostic(
                f"{len(unused)} variable(s) unused: {shown}",
                location=f"model {ctx.model.name!r}",
                variables=unused,
            )


@model_rule
class LooseBigMRule(ModelRule):
    """Indicator big-M constants should be as tight as the bounds allow.

    A finding needs two verdicts.  The *declared* bounds decide whether
    the constant looks like a modelling bug.  Fixpoint-*propagated*
    bounds (:func:`repro.analysis.propagation.propagated_bounds`) can then
    only acquit: a row like ``c - 50*b >= -44`` looks like a loose M=50
    against ``c in [0, 10]``, but when another row forces ``c >= 6`` the
    indicator side is *vacuous* — the row is implied for both values of
    ``b``, the correct fix is deleting it (``model.vacuous-constraint``
    territory), and no M-shrinking advice applies.  With propagated
    bounds the tightest implied constant collapses to ~0 there and the
    rule stays silent.  Because propagation can only acquit, it runs
    only when the declared bounds flag at least one row, and only over a
    well-formed model.
    """

    rule_id = "model.loose-big-m"
    default_severity = Severity.WARNING
    title = "an indicator's big-M is larger than the bounds require"
    example = (
        "``c >= 5 - 50*(1 - b)`` with ``c in [0, 10]`` — M=50 where M=5 "
        "suffices, which weakens the LP relaxation"
    )
    hint = "shrink the constant to the reported tightest implied value"

    #: Report only when the slack is material (absolute and relative);
    #: micro-coefficient indicator rows (piecewise tails) are numerical
    #: noise, not modelling bugs.
    _ABS_SLACK = 1e-4
    _REL_SLACK = 0.01

    def check_context(self, ctx: ModelContext) -> Iterator[Diagnostic]:
        rows, row_of = ctx.rows, ctx.row_of
        lo, hi = rows.lower, rows.upper
        # Normalize one-sided rows to `sum(d * x) >= bound` form: d is the
        # row for `>=` rows and its negation for `<=` rows.
        ge = (lo != -np.inf) & (hi == np.inf)
        le = (lo == -np.inf) & (hi != np.inf)
        # Big-M analysis targets the classic indicator shape: exactly
        # one binary relaxing a bound over a continuous expression.
        # Rows with several binaries (device-selection hulls) or none
        # couple through other constraints (assignment equalities),
        # which interval analysis cannot see, so they are skipped to
        # avoid false positives.
        term = ctx.nonzero_term & (ctx.valid_row & (ge | le))[row_of]
        binary_term = np.zeros_like(term)
        binary_term[term] = ctx.binary[rows.cols[term]]
        m = len(lo)
        binaries = np.bincount(row_of[binary_term], minlength=m)
        others = np.bincount(row_of[term & ~binary_term], minlength=m)
        shaped = (binaries == 1) & (others > 0)
        # One term per shaped row: its binary, in row order.
        picked = np.flatnonzero(binary_term & shaped[row_of])
        row = row_of[picked]
        act_lo, act_hi = ctx.activity
        d_act_lo = np.where(ge, act_lo, -act_hi)[row]
        bound = np.where(ge, lo, -hi)[row]
        size = np.abs(rows.coefs[picked])
        # At the binary's relaxing value the row must hold for every
        # assignment; slack beyond that proves the constant is larger
        # than needed.
        slack = d_act_lo + size - bound
        tightest = size - slack
        flagged = (
            np.isfinite(d_act_lo) & np.isfinite(bound)
            & (slack > np.fmax(self._ABS_SLACK, self._REL_SLACK * size))
            & (tightest > self._ABS_SLACK)
        )
        if not flagged.any():
            return
        acquitted = self._acquitted(
            ctx, ge, row[flagged], size[flagged], bound[flagged]
        )
        variables = ctx.model.variables
        constraints = ctx.model.constraints
        for k in np.flatnonzero(flagged)[~acquitted]:
            i = int(row[k])
            col = int(rows.cols[picked[k]])
            var = variables[col]
            # The row's own coefficient object, so an int stays an int.
            size_k = abs(constraints[i].expr.coeffs[col])
            yield self.diagnostic(
                f"coefficient {size_k:g} on binary {var.name!r} "
                f"exceeds the tightest implied big-M {float(tightest[k]):g}",
                location=_row_location(i, constraints[i]),
                row=i,
                variable=var.name,
                coefficient=size_k,
                tightest=float(tightest[k]),
            )

    def _acquitted(
        self,
        ctx: ModelContext,
        ge: npt.NDArray[np.bool_],
        flagged: npt.NDArray[np.int64],
        size: npt.NDArray[np.float64],
        bound: npt.NDArray[np.float64],
    ) -> npt.NDArray[np.bool_]:
        """Which ``flagged`` rows the propagated bounds show are vacuous.

        When a row holds for either binary value given what the other
        rows force, the right fix is deleting the row, not shrinking M,
        so its finding is a false positive.  ``size`` and ``bound`` are
        the flagged rows' binary coefficient magnitude and normalized
        bound.

        Propagation runs only over a well-formed model: a foreign column
        or a NaN bound or coefficient is an error finding of its own,
        and propagating over it would raise or read garbage, so such a
        model acquits nothing.
        """
        rows, row_of = ctx.rows, ctx.row_of
        if (
            ctx.foreign_term.any()
            or np.isnan(ctx.var_lower).any() or np.isnan(ctx.var_upper).any()
            or np.isnan(rows.lower).any() or np.isnan(rows.upper).any()
            or np.isnan(rows.coefs).any()
        ):
            return np.zeros(len(flagged), dtype=np.bool_)
        prop_lower, prop_upper, _ = propagation.propagated_bounds(ctx.model)
        in_flagged = np.zeros(len(rows.counts), dtype=np.bool_)
        in_flagged[flagged] = True
        term = ctx.nonzero_term & in_flagged[row_of]
        coefs = rows.coefs[term]
        d = np.where(ge[row_of[term]], coefs, -coefs)
        cols = rows.cols[term]
        with np.errstate(invalid="ignore", over="ignore"):
            contrib = np.where(
                d > 0.0,
                d * np.asarray(prop_lower, dtype=np.float64)[cols],
                d * np.asarray(prop_upper, dtype=np.float64)[cols],
            )
        prop_act_lo = row_sums(row_of[term], contrib, len(in_flagged))[flagged]
        prop_tightest = size - (prop_act_lo + size - bound)
        return np.isfinite(prop_act_lo) & (prop_tightest <= self._ABS_SLACK)


@model_rule
class DuplicateRowRule(ModelRule):
    """Rows sharing one left-hand side should be merged."""

    rule_id = "model.duplicate-row"
    default_severity = Severity.INFO
    title = "several rows share the same left-hand side"
    example = (
        "adding ``x + y <= 1`` and ``x + y >= 1`` as separate rows instead "
        "of one equality (or one range row)"
    )
    hint = "merge the rows into a single range constraint"

    def check_context(self, ctx: ModelContext) -> Iterator[Diagnostic]:
        rows, nonzero = ctx.rows, ctx.nonzero_term
        per_row = np.bincount(ctx.row_of[nonzero], minlength=len(rows.counts))
        keyed = np.flatnonzero(per_row)
        if len(keyed) < 2:
            return
        # An order-free hash of each row's nonzero (column, coefficient)
        # pairs: equal left-hand sides hash equally, so only the rows
        # that share a hash with another row are compared exactly.
        term_hash = _uint64_mix(
            _uint64_mix(rows.cols[nonzero].view(np.uint64))
            ^ rows.coefs[nonzero].view(np.uint64)
        )
        starts = (np.cumsum(per_row) - per_row)[keyed]
        row_hash = np.add.reduceat(term_hash, starts)
        _, inverse, multiplicity = np.unique(
            row_hash, return_inverse=True, return_counts=True
        )
        shared = multiplicity[inverse] > 1
        # A row's set of nonzero (column, coefficient) pairs is its left-
        # hand side: columns are unique within a row, so the sets are
        # equal exactly when the sorted term lists are.
        groups: dict[frozenset[tuple[int, float]], list[int]] = {}
        constraints = ctx.model.constraints
        for i in keyed[shared].tolist():
            lhs = frozenset(
                item for item in constraints[i].expr.coeffs.items()
                if item[1] != 0.0
            )
            groups.setdefault(lhs, []).append(i)
        for indices in groups.values():
            if len(indices) < 2:
                continue
            names = [
                constraints[i].name or f"#{i}" for i in indices[:4]
            ]
            shown = ", ".join(names)
            if len(indices) > 4:
                shown += f", ... ({len(indices) - 4} more)"
            yield self.diagnostic(
                f"{len(indices)} rows share one left-hand side: {shown}",
                location=_row_location(indices[0], constraints[indices[0]]),
                rows=list(indices),
            )
