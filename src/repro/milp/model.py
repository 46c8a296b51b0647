"""The MILP model container.

A :class:`Model` owns a variable table, a constraint list and a (minimized)
linear objective, and assembles them into the sparse standard form consumed
by the solver backends:

    minimize    c @ x
    subject to  b_lo <= A @ x <= b_hi
                lb <= x <= ub,  x_i integer for i in integrality

Problem-size statistics (variable/constraint/nonzero counts) are first-class
because the paper's Tables 3-4 report them directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Any

import numpy as np
import numpy.typing as npt
from scipy import sparse

from repro.milp.expr import Constraint, LinExpr, Var


@dataclass(frozen=True)
class StandardForm:
    """Matrix standard form of a model, ready for a solver backend.

    ``b_lower``/``b_upper`` are the model's shared, read-only
    :meth:`Model.row_arrays` bounds.
    """

    c: npt.NDArray[np.float64]
    a_matrix: sparse.csr_matrix
    b_lower: npt.NDArray[np.float64]
    b_upper: npt.NDArray[np.float64]
    x_lower: npt.NDArray[np.float64]
    x_upper: npt.NDArray[np.float64]
    integrality: npt.NDArray[np.int8]  # 1 where the variable is integer, else 0


@dataclass(frozen=True)
class RowArrays:
    """The rows of a model flattened into insertion-order COO arrays.

    Row ``i`` owns the ``counts[i]`` terms that follow row ``i - 1``'s,
    in the order of its coefficient dict, zero coefficients included.
    ``lower``/``upper`` are the row bounds with the expression constant
    folded in, exactly as :meth:`Constraint.normalized` computes them.
    Column indices are stored as given, including any the model does
    not own.  Every array is read-only: :meth:`Model.row_arrays` shares
    one instance per row count between all its readers.
    """

    cols: npt.NDArray[np.int64]
    coefs: npt.NDArray[np.float64]
    counts: npt.NDArray[np.int64]
    lower: npt.NDArray[np.float64]
    upper: npt.NDArray[np.float64]

    def row_of_terms(self) -> npt.NDArray[np.int64]:
        """The row index of every term."""
        return np.repeat(
            np.arange(len(self.counts), dtype=np.int64), self.counts
        )


@dataclass(frozen=True)
class ModelStats:
    """Size statistics reported in the paper's scalability tables."""

    num_vars: int
    num_binary: int
    num_constraints: int
    num_nonzeros: int

    def __str__(self) -> str:
        return (
            f"{self.num_vars} vars ({self.num_binary} binary), "
            f"{self.num_constraints} constraints, {self.num_nonzeros} nonzeros"
        )


class Model:
    """A mixed integer linear program under construction."""

    def __init__(self, name: str = "model") -> None:
        self.name = name
        self._vars: list[Var] = []
        self._constraints: list[Constraint] = []
        self._objective = LinExpr()
        self._names_seen: set[str] = set()
        #: The last :meth:`row_arrays` result; valid while the row count
        #: is ``len(self._flat.counts)``.
        self._flat: RowArrays | None = None
        #: Advisory facts attached to the model before it is solved —
        #: backends may exploit hints but must stay correct ignoring
        #: them, and must re-validate anything a hint claims.  Known key:
        #:
        #: ``warm_start`` (dict)
        #:     A candidate assignment over *this* model's variable space:
        #:     ``{"x": sequence of len(variables) floats,
        #:     "objective": float (user space), "source": str}``.
        #:     Backends must check it against bounds, integrality and
        #:     all rows before adopting it as an incumbent.
        self.hints: dict[str, Any] = {}

    # -- variables -----------------------------------------------------------

    def add_var(
        self,
        name: str,
        lower: float = 0.0,
        upper: float = float("inf"),
        integer: bool = False,
    ) -> Var:
        """Add a variable and return its handle.

        Names must be unique; encoders build names from structured keys
        (e.g. ``x[path3][4,7]``) so a collision indicates an encoder bug.
        """
        if math.isnan(lower) or math.isnan(upper):
            raise ValueError(
                f"variable {name!r}: bounds must not be NaN "
                f"([{lower}, {upper}])"
            )
        if lower > upper:
            raise ValueError(f"variable {name!r}: lower {lower} > upper {upper}")
        if name in self._names_seen:
            raise ValueError(f"duplicate variable name {name!r}")
        self._names_seen.add(name)
        var = Var(len(self._vars), name, float(lower), float(upper), integer)
        self._vars.append(var)
        return var

    def binary(self, name: str) -> Var:
        """Add a 0/1 variable."""
        return self.add_var(name, 0.0, 1.0, integer=True)

    def continuous(
        self, name: str, lower: float = float("-inf"), upper: float = float("inf"),
    ) -> Var:
        """Add a continuous variable (unbounded by default)."""
        return self.add_var(name, lower, upper, integer=False)

    def integer(
        self, name: str, lower: float = 0.0, upper: float = float("inf"),
    ) -> Var:
        """Add a general integer variable."""
        return self.add_var(name, lower, upper, integer=True)

    # -- constraints and objective --------------------------------------------

    def _check_registered(
        self, expr: LinExpr, what: str, name: str | None = None,
    ) -> None:
        """Reject expressions referencing variables this model doesn't own.

        Constraints are stored by variable *index*; an index from another
        model (or a hand-built one) would silently alias an unrelated
        column in the standard form, so it is rejected here instead.
        The message names ``what`` (and ``name``) and is only formatted
        on failure.
        """
        n = len(self._vars)
        for idx in expr.coeffs:
            if not 0 <= idx < n:
                label = what if name is None else f"{what} {name!r}"
                raise ValueError(
                    f"{label} references variable index {idx}, but model "
                    f"{self.name!r} has {n} variable(s); was the variable "
                    f"created on a different model?"
                )

    def add(self, constraint: Constraint, name: str = "") -> Constraint:
        """Add a constraint built from expression comparisons."""
        if not isinstance(constraint, Constraint):
            raise TypeError(
                f"expected a Constraint, got {type(constraint).__name__} "
                "(did the comparison collapse to bool?): add a two-sided "
                "row with Model.add_range(expr, lower, upper), and test "
                "whether two variables are the same one with `is`"
            )
        if name:
            constraint.name = name
        self._check_registered(constraint.expr, "constraint", constraint.name)
        self._constraints.append(constraint)
        return constraint

    def add_range(
        self, expr: LinExpr | Var, lower: float, upper: float, name: str = "",
    ) -> Constraint:
        """Add ``lower <= expr <= upper`` in one row."""
        if lower > upper:
            raise ValueError(
                f"range row {name!r}: lower {lower} > upper {upper}"
            )
        if isinstance(expr, Var):
            expr = expr + 0.0
        self._check_registered(expr, "range row", name)
        constraint = Constraint(expr, lower, upper, name)
        self._constraints.append(constraint)
        return constraint

    def minimize(self, objective: LinExpr | Var) -> None:
        """Set the (minimized) objective."""
        if isinstance(objective, Var):
            objective = objective + 0.0
        self._check_registered(objective, "objective")
        self._objective = objective

    def maximize(self, objective: LinExpr | Var) -> None:
        """Set a maximized objective (stored negated)."""
        if isinstance(objective, Var):
            objective = objective + 0.0
        self._check_registered(objective, "objective")
        self._objective = objective * -1.0

    @property
    def objective(self) -> LinExpr:
        """The minimized objective expression."""
        return self._objective

    @property
    def variables(self) -> list[Var]:
        """The variable table, in index order."""
        return self._vars

    @property
    def constraints(self) -> list[Constraint]:
        """All constraints, in insertion order."""
        return self._constraints

    def var_by_name(self, name: str) -> Var:
        """Look up a variable by its unique name (O(n); debugging aid)."""
        for var in self._vars:
            if var.name == name:
                return var
        raise KeyError(f"no variable named {name!r}")

    # -- assembly --------------------------------------------------------------

    def stats(self) -> ModelStats:
        """Size statistics without building matrices.

        Nonzeros are stored terms, zero coefficients included, counted
        on the shared :meth:`row_arrays` flattening.
        """
        nonzeros = int(self.row_arrays().counts.sum())
        num_binary = sum(1 for v in self._vars if v.is_binary)
        return ModelStats(
            num_vars=len(self._vars),
            num_binary=num_binary,
            num_constraints=len(self._constraints),
            num_nonzeros=nonzeros,
        )

    def row_arrays(self) -> RowArrays:
        """Flatten the rows into insertion-order COO arrays.

        Rows are immutable once added, so the flattening is computed once
        per row count and shared: model analysis, the warm start's and
        the solver's :meth:`to_standard_form` and :meth:`stats` all read
        the same object until another row is added.  Its arrays are
        read-only; copy one before writing to it.
        """
        constraints = self._constraints
        m = len(constraints)
        flat = self._flat
        if flat is not None and len(flat.counts) == m:
            return flat
        exprs = [constraint.expr for constraint in constraints]
        coeff_dicts = [expr.coeffs for expr in exprs]
        counts = np.fromiter(map(len, coeff_dicts), dtype=np.int64, count=m)
        nnz = int(counts.sum())
        cols = np.fromiter(
            chain.from_iterable(coeff_dicts), dtype=np.int64, count=nnz
        )
        coefs = np.fromiter(
            chain.from_iterable(coeffs.values() for coeffs in coeff_dicts),
            dtype=np.float64, count=nnz,
        )
        lower = np.fromiter(
            (constraint.lower for constraint in constraints),
            dtype=np.float64, count=m,
        )
        upper = np.fromiter(
            (constraint.upper for constraint in constraints),
            dtype=np.float64, count=m,
        )
        constant = np.fromiter(
            (expr.constant for expr in exprs), dtype=np.float64, count=m
        )
        # Infinite sides stay infinite whatever the constant (inf - inf).
        with np.errstate(invalid="ignore", over="ignore"):
            lower = np.where(lower == -np.inf, -np.inf, lower - constant)
            upper = np.where(upper == np.inf, np.inf, upper - constant)
        for array in (cols, coefs, counts, lower, upper):
            array.flags.writeable = False
        flat = RowArrays(cols, coefs, counts, lower, upper)
        self._flat = flat
        return flat

    def to_standard_form(self) -> StandardForm:
        """Assemble the sparse standard form for the solver backends."""
        n = len(self._vars)
        m = len(self._constraints)

        c = np.zeros(n)
        for idx, coeff in self._objective.coeffs.items():
            c[idx] = coeff

        flat = self.row_arrays()
        stored = flat.coefs != 0.0
        a_matrix = sparse.csr_matrix(
            (flat.coefs[stored],
             (flat.row_of_terms()[stored], flat.cols[stored])),
            shape=(m, n), dtype=float,
        )

        x_lower = np.array([v.lower for v in self._vars])
        x_upper = np.array([v.upper for v in self._vars])
        integrality = np.array(
            [1 if v.is_integer else 0 for v in self._vars], dtype=np.int8
        )
        return StandardForm(
            c=c,
            a_matrix=a_matrix,
            b_lower=flat.lower,
            b_upper=flat.upper,
            x_lower=x_lower,
            x_upper=x_upper,
            integrality=integrality,
        )
