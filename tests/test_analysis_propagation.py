"""Tests for the read-only bound propagation (repro.analysis.propagation).

Unit tests of one propagation sweep on tiny hand-built MILPs, plus a
hypothesis property: the propagated bounds never cut off the optimum of
a random feasible MILP.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.propagation import (
    PropagationState,
    propagate,
    propagated_bounds,
)
from repro.milp import BranchAndBoundSolver, SolveStatus
from repro.milp.expr import LinExpr
from repro.milp.model import Model


class TestPropagation:
    def test_tightens_implied_bounds(self):
        m = Model("prop")
        x = m.continuous("x", 0.0, 100.0)
        y = m.continuous("y", 0.0, 100.0)
        m.add(x + y <= 10, name="cap")
        m.minimize(x + y)
        state = PropagationState(m)
        tightened, _ = propagate(state)
        assert tightened >= 2
        assert state.upper[x.index] == pytest.approx(10.0)
        assert state.upper[y.index] == pytest.approx(10.0)

    def test_integer_bounds_are_rounded(self):
        m = Model("round")
        n = m.integer("n", 0.0, 10.0)
        m.add(2 * n <= 7, name="half")
        m.minimize(-1 * n)
        state = PropagationState(m)
        propagate(state)
        assert state.upper[n.index] == pytest.approx(3.0)  # floor(3.5)

    def test_removes_redundant_rows(self):
        m = Model("redundant")
        x = m.binary("x")
        y = m.binary("y")
        m.add(x + y <= 5, name="slack")  # max activity is 2
        m.minimize(x + y)
        state = PropagationState(m)
        _, removed = propagate(state)
        assert removed == 1
        assert not state.rows[0].alive

    def test_detects_interval_infeasibility(self):
        m = Model("conflict")
        x = m.binary("x")
        y = m.binary("y")
        m.add(x + y >= 3, name="impossible")
        m.minimize(x + y)
        state = PropagationState(m)
        propagate(state)
        assert state.infeasible is not None

    def test_propagated_bounds_helper_is_read_only(self):
        m = Model("helper")
        x = m.continuous("x", 0.0, 50.0)
        m.add(x <= 5, name="cap")
        m.minimize(x)
        lower, upper, total = propagated_bounds(m)
        assert upper[x.index] == pytest.approx(5.0)
        assert total >= 1
        assert m.variables[x.index].upper == 50.0  # untouched


@st.composite
def random_milp(draw):
    """A small random MILP guaranteed feasible by construction: row
    bounds are anchored around a random in-bounds assignment."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 8))
    n_rows = draw(st.integers(1, 6))
    m = Model("random")
    anchor = []
    for j in range(n):
        kind = draw(st.sampled_from(["binary", "integer", "continuous"]))
        if kind == "binary":
            var = m.binary(f"v{j}")
        elif kind == "integer":
            var = m.integer(f"v{j}", 0.0, float(rng.integers(1, 6)))
        else:
            var = m.continuous(f"v{j}", 0.0, float(rng.uniform(1.0, 8.0)))
        if var.is_integer:
            anchor.append(float(rng.integers(var.lower, var.upper + 1)))
        else:
            anchor.append(float(rng.uniform(var.lower, var.upper)))
    for i in range(n_rows):
        support = rng.choice(n, size=rng.integers(1, n + 1), replace=False)
        coeffs = {int(j): float(rng.integers(-4, 5)) or 1.0 for j in support}
        expr = LinExpr(coeffs)
        at_anchor = sum(c * anchor[j] for j, c in coeffs.items())
        lo = at_anchor - float(rng.uniform(0.0, 6.0))
        hi = at_anchor + float(rng.uniform(0.0, 6.0))
        if draw(st.booleans()):
            lo = float("-inf")
        m.add_range(expr, lo, hi, name=f"r{i}")
    obj = LinExpr(
        {j: float(rng.integers(-5, 6)) for j in range(n)},
        float(rng.integers(-3, 4)),
    )
    m.minimize(obj)
    return m


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(model=random_milp())
def test_propagated_bounds_never_cut_off_solutions(model):
    """The read-only propagation helper only ever *implies* bounds: the
    optimal assignment of the original model satisfies them."""
    raw = BranchAndBoundSolver().solve(model)
    assert raw.status == SolveStatus.OPTIMAL
    lower, upper, _ = propagated_bounds(model)
    for j, value in enumerate(raw.x):
        assert value >= lower[j] - 1e-6
        assert value <= upper[j] + 1e-6
