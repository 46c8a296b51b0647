"""Tests for the linear-expression algebra."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.milp import Constraint, LinExpr, Model, lin_sum


@pytest.fixture()
def model():
    return Model("t")


class TestVar:
    def test_binary_classification(self, model):
        assert model.binary("b").is_binary
        assert not model.continuous("c", 0, 1).is_binary
        assert not model.integer("i", 0, 2).is_binary

    def test_repr_mentions_kind(self, model):
        assert "bin" in repr(model.binary("b"))
        assert "cont" in repr(model.continuous("c"))

    def test_hashable(self, model):
        x = model.binary("x")
        y = model.binary("y")
        assert len({x, y, x}) == 2


class TestArithmetic:
    def test_add_vars(self, model):
        x, y = model.binary("x"), model.binary("y")
        expr = x + y
        assert expr.coeffs == {x.index: 1.0, y.index: 1.0}

    def test_scalar_ops(self, model):
        x = model.binary("x")
        expr = 3 * x - 1
        assert expr.coeffs == {x.index: 3.0}
        assert expr.constant == -1.0

    def test_subtraction_and_negation(self, model):
        x, y = model.binary("x"), model.binary("y")
        expr = -(x - y)
        assert expr.coeffs == {x.index: -1.0, y.index: 1.0}

    def test_rsub(self, model):
        x = model.binary("x")
        expr = 5 - x
        assert expr.coeffs == {x.index: -1.0}
        assert expr.constant == 5.0

    def test_coefficients_merge(self, model):
        x = model.binary("x")
        expr = x + 2 * x - 0.5 * x
        assert expr.coeffs == {x.index: 2.5}

    def test_expr_times_expr_rejected(self, model):
        x, y = model.binary("x"), model.binary("y")
        with pytest.raises(TypeError):
            (x + 0.0) * (y + 0.0)

    def test_invalid_operand_rejected(self, model):
        x = model.binary("x")
        with pytest.raises(TypeError):
            x + "nope"

    def test_add_term_fast_path(self, model):
        x = model.binary("x")
        expr = LinExpr()
        expr.add_term(x, 2.0)
        expr.add_term(x, 3.0)
        assert expr.coeffs == {x.index: 5.0}

    def test_copy_is_independent(self, model):
        x = model.binary("x")
        a = x + 1
        b = a.copy()
        b.add_term(x, 1.0)
        assert a.coeffs[x.index] == 1.0


class TestLinSum:
    def test_mixed_items(self, model):
        x, y = model.binary("x"), model.binary("y")
        expr = lin_sum([x, 2 * y, 3.0, x + 1])
        assert expr.coeffs == {x.index: 2.0, y.index: 2.0}
        assert expr.constant == 4.0

    def test_empty(self):
        expr = lin_sum([])
        assert expr.coeffs == {} and expr.constant == 0.0

    def test_rejects_junk(self):
        with pytest.raises(TypeError):
            lin_sum(["x"])

    @given(st.lists(st.floats(-10, 10), max_size=20))
    def test_constant_sum_matches(self, values):
        assert lin_sum(values).constant == pytest.approx(sum(values))


class TestComparisons:
    def test_le_builds_constraint(self, model):
        x = model.binary("x")
        con = x + 1 <= 3
        assert isinstance(con, Constraint)
        coeffs, lo, hi = con.normalized()
        assert hi == pytest.approx(2.0)
        assert lo == float("-inf")

    def test_ge_builds_constraint(self, model):
        x = model.binary("x")
        coeffs, lo, hi = (2 * x >= 1).normalized()
        assert lo == pytest.approx(1.0)
        assert hi == float("inf")

    def test_eq_builds_two_sided(self, model):
        x, y = model.binary("x"), model.binary("y")
        coeffs, lo, hi = (x + y == 1).normalized()
        assert lo == hi == pytest.approx(1.0)

    def test_var_vs_var(self, model):
        x, y = model.binary("x"), model.binary("y")
        coeffs, lo, hi = (x <= y).normalized()
        assert coeffs == {x.index: 1.0, y.index: -1.0}
        assert hi == 0.0


class TestConstraintTruthValue:
    """A Constraint refuses ``bool()``; ``==`` on variables builds a row."""

    def test_membership_raises(self, model):
        a, b = model.binary("a"), model.binary("b")
        with pytest.raises(TypeError, match="`is`"):
            b in [a]  # noqa: B015
        assert a in [a]  # identity short-circuits before ``==``

    def test_index_raises(self, model):
        a, b = model.binary("a"), model.binary("b")
        with pytest.raises(TypeError, match="no truth value"):
            [a].index(b)

    def test_chained_comparison_raises_instead_of_dropping_a_side(self, model):
        x, y = model.binary("x"), model.binary("y")
        with pytest.raises(TypeError, match="add_range"):
            model.add(0 <= x + y <= 1)
        assert model.constraints == []
        row = model.add_range(x + y, 0.0, 1.0)
        assert (row.lower, row.upper) == (0.0, 1.0)

    def test_model_add_points_at_add_range_and_is(self, model):
        with pytest.raises(TypeError, match="add_range") as info:
            model.add(True)
        assert "`is`" in str(info.value)
