"""MILP substrate: modeling layer, linearization gadgets, and solvers."""

from repro.milp.branch_and_bound import BranchAndBoundSolver
from repro.milp.expr import Constraint, LinExpr, Var, lin_sum
from repro.milp.highs import HighsSolver
from repro.milp.linearize import (
    indicator_ge,
    indicator_le,
    or_binary,
    product_binary,
    product_binary_continuous,
    product_binary_many,
)
from repro.milp.model import Model, ModelStats, RowArrays, StandardForm
from repro.milp.piecewise import ConvexPwl, PwlSegment, convex_pwl_from_samples
from repro.milp.solution import Solution, SolveStatus

__all__ = [
    "BranchAndBoundSolver",
    "Constraint",
    "ConvexPwl",
    "HighsSolver",
    "LinExpr",
    "Model",
    "ModelStats",
    "PwlSegment",
    "RowArrays",
    "Solution",
    "SolveStatus",
    "StandardForm",
    "Var",
    "convex_pwl_from_samples",
    "indicator_ge",
    "indicator_le",
    "lin_sum",
    "or_binary",
    "product_binary",
    "product_binary_continuous",
    "product_binary_many",
]
