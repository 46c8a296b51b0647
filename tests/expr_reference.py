"""The ``Var``/``LinExpr`` operator bodies before the one-dict algebra.

:mod:`repro.milp.expr` once built every ``+``, ``-`` and comparison out
of smaller steps: a variable became a one-term ``LinExpr``, a number a
constant-only ``LinExpr``, and ``a - b`` was ``a + b * -1.0``, so one
``a >= b`` row allocated four expressions.  The library now builds one
coefficient dict and one ``LinExpr`` per operation, and must give the
same coefficient dicts (keys in the same insertion order, bitwise-equal
floats), constants and row bounds.  The bodies below are the old ones,
verbatim but for ``_as_expr``/``_coerce``/``copy`` becoming module
functions; :func:`reference_algebra` patches them onto the classes.  The
algebra differential tests and ``tools/check_model_differential.py``
build under both and compare.
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import ExitStack, contextmanager
from unittest import mock

from repro.milp.expr import Constraint, LinExpr, Var


def _as_expr(var: Var) -> LinExpr:
    return LinExpr({var.index: 1.0})


def _coerce(value: object) -> LinExpr:
    if isinstance(value, LinExpr):
        return value
    if isinstance(value, Var):
        return _as_expr(value)
    if isinstance(value, (int, float)):
        return LinExpr(constant=float(value))
    raise TypeError(f"cannot use {type(value).__name__} in a linear expression")


# -- Var ----------------------------------------------------------------------


def var_add(self: Var, other: object) -> LinExpr:
    return _as_expr(self) + other


def var_sub(self: Var, other: object) -> LinExpr:
    return _as_expr(self) - other


def var_rsub(self: Var, other: object) -> LinExpr:
    return (-1.0) * _as_expr(self) + other


def var_mul(self: Var, other: object) -> LinExpr:
    return _as_expr(self) * other


def var_neg(self: Var) -> LinExpr:
    return _as_expr(self) * -1.0


def var_le(self: Var, other: object) -> Constraint:
    return _as_expr(self) <= other


def var_ge(self: Var, other: object) -> Constraint:
    return _as_expr(self) >= other


def var_eq(self: Var, other: object) -> Constraint:
    return _as_expr(self) == other


# -- LinExpr ------------------------------------------------------------------


def expr_add(self: LinExpr, other: object) -> LinExpr:
    rhs = _coerce(other)
    out = LinExpr(self.coeffs, self.constant)
    for idx, coeff in rhs.coeffs.items():
        out.coeffs[idx] = out.coeffs.get(idx, 0.0) + coeff
    out.constant += rhs.constant
    return out


def expr_sub(self: LinExpr, other: object) -> LinExpr:
    return self + _coerce(other) * -1.0


def expr_rsub(self: LinExpr, other: object) -> LinExpr:
    return self * -1.0 + other


def expr_mul(self: LinExpr, other: object) -> LinExpr:
    if not isinstance(other, (int, float)):
        raise TypeError("linear expressions can only be scaled by numbers")
    scale = float(other)
    return LinExpr(
        {idx: coeff * scale for idx, coeff in self.coeffs.items()},
        self.constant * scale,
    )


def expr_neg(self: LinExpr) -> LinExpr:
    return self * -1.0


def expr_le(self: LinExpr, other: object) -> Constraint:
    diff = self - _coerce(other)
    return Constraint(diff, lower=float("-inf"), upper=0.0)


def expr_ge(self: LinExpr, other: object) -> Constraint:
    diff = self - _coerce(other)
    return Constraint(diff, lower=0.0, upper=float("inf"))


def expr_eq(self: LinExpr, other: object) -> Constraint:
    diff = self - _coerce(other)
    return Constraint(diff, lower=0.0, upper=0.0)


VAR_METHODS = {
    "__add__": var_add,
    "__radd__": var_add,
    "__sub__": var_sub,
    "__rsub__": var_rsub,
    "__mul__": var_mul,
    "__rmul__": var_mul,
    "__neg__": var_neg,
    "__le__": var_le,
    "__ge__": var_ge,
    "__eq__": var_eq,
}

EXPR_METHODS = {
    "__add__": expr_add,
    "__radd__": expr_add,
    "__sub__": expr_sub,
    "__rsub__": expr_rsub,
    "__mul__": expr_mul,
    "__rmul__": expr_mul,
    "__neg__": expr_neg,
    "__le__": expr_le,
    "__ge__": expr_ge,
    "__eq__": expr_eq,
}


@contextmanager
def reference_algebra() -> Iterator[None]:
    """Expressions built inside this block use the old operator bodies."""
    with ExitStack() as stack:
        for cls, methods in ((Var, VAR_METHODS), (LinExpr, EXPR_METHODS)):
            for name, body in methods.items():
                stack.enter_context(mock.patch.object(cls, name, body))
        yield
