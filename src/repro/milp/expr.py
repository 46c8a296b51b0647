"""Linear expressions over decision variables.

This is the algebra layer of the MILP substrate: :class:`Var` is a handle
into a model's variable table, :class:`LinExpr` is an affine combination of
variables, and comparison operators build :class:`Constraint` objects.  The
design goal is cheap construction — the full path encoding builds 10^5+
constraints — so expressions are plain coefficient dictionaries with
``__slots__`` and no symbolic tree, and every ``+``, ``-``, ``*`` and
comparison builds exactly one coefficient dict and one :class:`LinExpr`.
A :class:`Constraint` has no truth value, so a chained comparison such
as ``0 <= x + y <= 1`` raises instead of keeping only its last half.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

Number = int | float

_NEG_INF = float("-inf")
_POS_INF = float("inf")


class Var:
    """A decision variable: a named handle with bounds and integrality.

    Created through :meth:`repro.milp.model.Model.add_var` (and friends);
    the ``index`` ties it to a column of the model's constraint matrix.
    """

    __slots__ = ("index", "name", "lower", "upper", "is_integer")

    def __init__(
        self, index: int, name: str, lower: float, upper: float, is_integer: bool,
    ) -> None:
        self.index = index
        self.name = name
        self.lower = lower
        self.upper = upper
        self.is_integer = is_integer

    @property
    def is_binary(self) -> bool:
        """Whether this is an integer variable with 0/1 bounds."""
        return self.is_integer and self.lower == 0.0 and self.upper == 1.0

    def __repr__(self) -> str:
        kind = "bin" if self.is_binary else ("int" if self.is_integer else "cont")
        return f"Var({self.name!r}, {kind}, [{self.lower}, {self.upper}])"

    # Each operator builds its result's coefficient dict directly: one
    # dict and one LinExpr per operation, whatever the operand types.

    def __add__(self, other: object) -> LinExpr:
        i = self.index
        if isinstance(other, Var):
            j = other.index
            return _wrap({i: 2.0} if j == i else {i: 1.0, j: 1.0}, 0.0)
        if isinstance(other, LinExpr):
            coeffs = {i: 1.0}
            for idx, coeff in other.coeffs.items():
                coeffs[idx] = coeffs.get(idx, 0.0) + coeff
            return _wrap(coeffs, 0.0 + other.constant)
        if isinstance(other, (int, float)):
            return _wrap({i: 1.0}, 0.0 + float(other))
        raise _operand_error(other)

    __radd__ = __add__

    def __sub__(self, other: object) -> LinExpr:
        i = self.index
        if isinstance(other, Var):
            j = other.index
            return _wrap({i: 0.0} if j == i else {i: 1.0, j: -1.0}, 0.0)
        if isinstance(other, LinExpr):
            coeffs = {i: 1.0}
            for idx, coeff in other.coeffs.items():
                coeffs[idx] = coeffs.get(idx, 0.0) - coeff
            return _wrap(coeffs, 0.0 - other.constant)
        if isinstance(other, (int, float)):
            return _wrap({i: 1.0}, 0.0 - float(other))
        raise _operand_error(other)

    def __rsub__(self, other: object) -> LinExpr:
        if isinstance(other, (int, float)):
            return _wrap({self.index: -1.0}, float(other))
        raise _operand_error(other)

    def __mul__(self, other: object) -> LinExpr:
        if not isinstance(other, (int, float)):
            raise TypeError("linear expressions can only be scaled by numbers")
        scale = float(other)
        return _wrap({self.index: scale}, 0.0 * scale)

    __rmul__ = __mul__

    def __neg__(self) -> LinExpr:
        return _wrap({self.index: -1.0}, -0.0)

    def __le__(self, other: object) -> Constraint:
        return Constraint(self - other, _NEG_INF, 0.0)

    def __ge__(self, other: object) -> Constraint:
        return Constraint(self - other, 0.0, _POS_INF)

    def __eq__(self, other: object) -> Constraint:  # type: ignore[override]
        return Constraint(self - other, 0.0, 0.0)

    def __hash__(self) -> int:
        return hash(("Var", self.index))


class LinExpr:
    """An affine expression ``sum(coeff_i * var_i) + constant``."""

    __slots__ = ("coeffs", "constant")

    def __init__(
        self, coeffs: Mapping[int, float] | None = None, constant: float = 0.0,
    ) -> None:
        self.coeffs: dict[int, float] = dict(coeffs) if coeffs else {}
        self.constant = float(constant)

    def copy(self) -> LinExpr:
        """An independent copy of the expression."""
        return LinExpr(self.coeffs, self.constant)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: object) -> LinExpr:
        coeffs = self.coeffs.copy()
        if isinstance(other, LinExpr):
            for idx, coeff in other.coeffs.items():
                coeffs[idx] = coeffs.get(idx, 0.0) + coeff
            return _wrap(coeffs, self.constant + other.constant)
        if isinstance(other, Var):
            idx = other.index
            coeffs[idx] = coeffs.get(idx, 0.0) + 1.0
            return _wrap(coeffs, self.constant + 0.0)
        if isinstance(other, (int, float)):
            return _wrap(coeffs, self.constant + float(other))
        raise _operand_error(other)

    __radd__ = __add__

    def __sub__(self, other: object) -> LinExpr:
        coeffs = self.coeffs.copy()
        if isinstance(other, LinExpr):
            for idx, coeff in other.coeffs.items():
                coeffs[idx] = coeffs.get(idx, 0.0) - coeff
            return _wrap(coeffs, self.constant - other.constant)
        if isinstance(other, Var):
            idx = other.index
            coeffs[idx] = coeffs.get(idx, 0.0) - 1.0
            return _wrap(coeffs, self.constant)
        if isinstance(other, (int, float)):
            return _wrap(coeffs, self.constant - float(other))
        raise _operand_error(other)

    def __rsub__(self, other: object) -> LinExpr:
        if not isinstance(other, (int, float)):
            raise _operand_error(other)
        return _wrap(
            {idx: coeff * -1.0 for idx, coeff in self.coeffs.items()},
            self.constant * -1.0 + float(other),
        )

    def __mul__(self, other: object) -> LinExpr:
        if not isinstance(other, (int, float)):
            raise TypeError("linear expressions can only be scaled by numbers")
        scale = float(other)
        return _wrap(
            {idx: coeff * scale for idx, coeff in self.coeffs.items()},
            self.constant * scale,
        )

    __rmul__ = __mul__

    def __neg__(self) -> LinExpr:
        return self * -1.0

    def add_term(self, var: Var, coeff: float) -> None:
        """In-place ``self += coeff * var`` (the fast path for big sums)."""
        self.coeffs[var.index] = self.coeffs.get(var.index, 0.0) + coeff

    # -- comparisons build constraints ---------------------------------------

    def __le__(self, other: object) -> Constraint:
        return Constraint(self - other, _NEG_INF, 0.0)

    def __ge__(self, other: object) -> Constraint:
        return Constraint(self - other, 0.0, _POS_INF)

    def __eq__(self, other: object) -> Constraint:  # type: ignore[override]
        return Constraint(self - other, 0.0, 0.0)

    def __hash__(self) -> int:  # consistent with custom __eq__ usage
        return id(self)

    def __repr__(self) -> str:
        terms = " + ".join(f"{c:g}*x{i}" for i, c in sorted(self.coeffs.items()))
        return f"LinExpr({terms or '0'} + {self.constant:g})"


def _wrap(coeffs: dict[int, float], constant: float) -> LinExpr:
    """A ``LinExpr`` that takes ownership of a freshly built ``coeffs``.

    ``LinExpr(coeffs)`` copies its argument; the operators build their
    result's dict themselves and hand it over without a second copy.
    """
    expr = object.__new__(LinExpr)
    expr.coeffs = coeffs
    expr.constant = constant
    return expr


def _operand_error(value: object) -> TypeError:
    return TypeError(
        f"cannot use {type(value).__name__} in a linear expression"
    )


def lin_sum(items: Iterable[Var | LinExpr | Number]) -> LinExpr:
    """Sum of variables/expressions, much faster than ``sum(...)``.

    Python's builtin ``sum`` creates a fresh :class:`LinExpr` per addition
    (quadratic behaviour on long chains); this accumulates in place.
    """
    out = LinExpr()
    for item in items:
        if isinstance(item, Var):
            out.coeffs[item.index] = out.coeffs.get(item.index, 0.0) + 1.0
        elif isinstance(item, LinExpr):
            for idx, coeff in item.coeffs.items():
                out.coeffs[idx] = out.coeffs.get(idx, 0.0) + coeff
            out.constant += item.constant
        elif isinstance(item, (int, float)):
            out.constant += float(item)
        else:
            raise TypeError(f"cannot sum a {type(item).__name__}")
    return out


class Constraint:
    """A two-sided linear constraint ``lower <= expr <= upper``.

    The expression's constant has already been folded into the bounds by
    :meth:`normalized`; single-sided constraints use infinite bounds.
    """

    __slots__ = ("expr", "lower", "upper", "name")

    def __init__(
        self, expr: LinExpr, lower: float, upper: float, name: str = "",
    ) -> None:
        self.expr = expr
        self.lower = lower
        self.upper = upper
        self.name = name

    def normalized(self) -> tuple[dict[int, float], float, float]:
        """``(coeffs, lower, upper)`` with the constant moved into bounds."""
        neg_inf = float("-inf")
        pos_inf = float("inf")
        lo = self.lower - self.expr.constant if self.lower != neg_inf else neg_inf
        hi = self.upper - self.expr.constant if self.upper != pos_inf else pos_inf
        return self.expr.coeffs, lo, hi

    def __bool__(self) -> bool:
        raise TypeError(
            "a Constraint has no truth value: write a two-sided row as "
            "Model.add_range(expr, lower, upper), not as a chained "
            "comparison, and test whether two variables are the same one "
            "with `is`, not `==`"
        )

    def __repr__(self) -> str:
        return f"Constraint({self.lower} <= {self.expr!r} <= {self.upper})"
