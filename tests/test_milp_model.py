"""Tests for model assembly into standard form."""

import numpy as np
import pytest

from repro.milp import Model


@pytest.fixture()
def model():
    return Model("asm")


class TestVariables:
    def test_duplicate_names_rejected(self, model):
        model.binary("x")
        with pytest.raises(ValueError, match="duplicate"):
            model.binary("x")

    def test_crossed_bounds_rejected(self, model):
        with pytest.raises(ValueError):
            model.add_var("x", lower=2.0, upper=1.0)

    def test_indices_sequential(self, model):
        vars_ = [model.binary(f"x{i}") for i in range(5)]
        assert [v.index for v in vars_] == list(range(5))

    def test_var_by_name(self, model):
        x = model.binary("x")
        assert model.var_by_name("x") is x
        with pytest.raises(KeyError):
            model.var_by_name("y")

    def test_nan_bounds_rejected(self, model):
        with pytest.raises(ValueError, match="NaN"):
            model.add_var("x", lower=float("nan"))
        with pytest.raises(ValueError, match="NaN"):
            model.add_var("y", upper=float("nan"))


class TestForeignVariables:
    def test_add_rejects_variable_from_another_model(self, model):
        other = Model("other")
        for _ in range(3):
            other.binary(f"pad{_}")
        alien = other.binary("alien")  # index 3; `model` owns none
        with pytest.raises(ValueError, match="different model"):
            model.add(alien + 0.0 >= 1, name="bad")

    def test_add_range_rejects_foreign_expression(self, model):
        other = Model("other")
        other.binary("pad")
        alien = other.binary("alien")
        with pytest.raises(ValueError, match="different model"):
            model.add_range(alien + 0.0, 0.0, 1.0, name="bad")

    def test_objective_rejects_foreign_expression(self, model):
        other = Model("other")
        other.binary("pad")
        alien = other.binary("alien")
        with pytest.raises(ValueError, match="different model"):
            model.minimize(alien + 0.0)
        with pytest.raises(ValueError, match="different model"):
            model.maximize(alien + 0.0)

    def test_same_index_from_another_model_is_accepted(self, model):
        # Index-aliasing across models is undetectable by construction
        # checks; only out-of-range indexes can be rejected here.
        x = model.binary("x")
        other = Model("other")
        other_x = other.binary("ox")
        assert other_x.index == x.index
        model.add(other_x + 0.0 <= 1)


class TestConstraints:
    def test_add_range_rejects_crossed_bounds(self, model):
        x = model.binary("x")
        with pytest.raises(ValueError, match="lower"):
            model.add_range(x, 2.0, 1.0, name="crossed")

    def test_add_requires_constraint(self, model):
        with pytest.raises(TypeError):
            model.add(True)  # e.g. accidental `x <= x` python-level bool

    def test_add_range(self, model):
        x = model.binary("x")
        con = model.add_range(x + 0.0, 0.25, 0.75, name="rng")
        assert con.lower == 0.25 and con.upper == 0.75
        assert con.name == "rng"

    def test_named_constraint(self, model):
        x = model.binary("x")
        con = model.add(x <= 1, name="cap")
        assert con.name == "cap"


class TestObjective:
    def test_maximize_negates(self, model):
        x = model.binary("x")
        model.maximize(2 * x)
        assert model.objective.coeffs[x.index] == -2.0

    def test_minimize_var_directly(self, model):
        x = model.continuous("x", 0, 1)
        model.minimize(x)
        assert model.objective.coeffs[x.index] == 1.0


class TestStandardForm:
    def test_matrix_shape_and_content(self, model):
        x = model.binary("x")
        y = model.continuous("y", -1.0, 2.0)
        model.add(x + 2 * y <= 4)
        model.add(x - y >= -1)
        model.add(x + y == 1)
        model.minimize(x + 3 * y)
        form = model.to_standard_form()
        assert form.a_matrix.shape == (3, 2)
        np.testing.assert_allclose(form.c, [1.0, 3.0])
        np.testing.assert_allclose(form.x_lower, [0.0, -1.0])
        np.testing.assert_allclose(form.x_upper, [1.0, 2.0])
        np.testing.assert_array_equal(form.integrality, [1, 0])
        dense = form.a_matrix.toarray()
        np.testing.assert_allclose(dense[0], [1.0, 2.0])
        assert form.b_upper[0] == 4.0 and form.b_lower[0] == -np.inf
        assert form.b_lower[1] == -1.0 and form.b_upper[1] == np.inf
        assert form.b_lower[2] == form.b_upper[2] == 1.0

    def test_constant_folded_into_bounds(self, model):
        x = model.binary("x")
        model.add(x + 5 <= 7)
        form = model.to_standard_form()
        assert form.b_upper[0] == pytest.approx(2.0)

    def test_empty_model(self, model):
        form = model.to_standard_form()
        assert form.a_matrix.shape == (0, 0)

    def test_zero_coefficients_dropped(self, model):
        x, y = model.binary("x"), model.binary("y")
        model.add(x + 0 * y <= 1)
        form = model.to_standard_form()
        assert form.a_matrix.nnz == 1


class TestStats:
    def test_counts(self, model):
        x = model.binary("x")
        y = model.continuous("y", 0, 1)
        model.add(x + y <= 1)
        stats = model.stats()
        assert stats.num_vars == 2
        assert stats.num_binary == 1
        assert stats.num_constraints == 1
        assert stats.num_nonzeros == 2
        assert "2 vars" in str(stats)


class TestRowArraysFlattenOnce:
    """One read-only flattening per row count, shared by every reader."""

    def test_same_object_until_a_row_is_added(self, model):
        x, y = model.binary("x"), model.binary("y")
        model.add(x + y <= 1)
        flat = model.row_arrays()
        assert model.row_arrays() is flat
        model.to_standard_form()
        model.stats()
        assert model.row_arrays() is flat

        model.add(x - y >= 0)
        added = model.row_arrays()
        assert added is not flat and len(added.counts) == 2
        model.add_range(x + 0.0, 0.0, 1.0)
        ranged = model.row_arrays()
        assert ranged is not added and len(ranged.counts) == 3
        model._constraints.append(y <= 1)
        appended = model.row_arrays()
        assert appended is not ranged and len(appended.counts) == 4
        assert model.row_arrays() is appended

    def test_every_array_is_read_only(self, model):
        x, y = model.binary("x"), model.binary("y")
        model.add(x + 2 * y <= 3)
        flat = model.row_arrays()
        for name in ("cols", "coefs", "counts", "lower", "upper"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(flat, name)[0] = 0
        form = model.to_standard_form()
        with pytest.raises(ValueError, match="read-only"):
            form.b_upper[0] = 0.0

    def test_nonzeros_count_stored_zero_coefficients(self, model):
        x, y = model.binary("x"), model.binary("y")
        model.add(x - x <= 0)
        model.add(x + y <= 1)
        assert model.stats().num_nonzeros == 3
        assert model.to_standard_form().a_matrix.nnz == 2

    def test_standard_form_reads_variable_bounds_fresh(self, model):
        x = model.binary("x")
        model.add(x <= 1)
        first = model.to_standard_form()
        x.lower = x.upper = 1.0
        second = model.to_standard_form()
        assert (first.x_lower[0], first.x_upper[0]) == (0.0, 1.0)
        assert (second.x_lower[0], second.x_upper[0]) == (1.0, 1.0)
        assert second.b_upper is first.b_upper
