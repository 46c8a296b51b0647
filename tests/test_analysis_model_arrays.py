"""Differential tests: the array model rules against per-row loops.

The shipped model rules read one flattening of the rows
(:meth:`Model.row_arrays`) through numpy masks.  These tests hold them to
the per-row loops in ``model_rules_reference`` field for field and in
order, and hold :meth:`Model.to_standard_form` to the per-term assembly
it replaced, bit for bit, on hypothesis-drawn models that include the
corruptions a buggy encoder can produce.
"""

import importlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy import sparse

from repro.analysis import analyze_model
from repro.analysis.model_rules import DuplicateRowRule, LooseBigMRule
from repro.milp.expr import Constraint, LinExpr
from repro.milp.model import Model, StandardForm

from .model_rules_reference import reference_diagnostics
from .test_analysis_model_rules import sound_model

INF = float("inf")
NAN = float("nan")

#: The module that owns ``propagated_bounds``; patch the module itself.
PROPAGATION = importlib.import_module("repro.analysis.propagation")
MODEL_RULES = importlib.import_module("repro.analysis.model_rules")

BOUNDS = st.sampled_from([0.0, 1.0, -1.0, 2.5, 6.0, 10.0, -INF, INF])
COEFS = st.sampled_from(
    [0.0, -0.0, 1.0, -1.0, 2.0, -2.5, 5.0, -50.0, 50.0, 1e-7, 0.3]
)
RHS = st.sampled_from([0.0, 1.0, -1.0, 3.0, 6.0, -44.0, 5.0, 0.5])
CONSTANTS = st.sampled_from([0.0, 0.0, 1.0, -3.0, 45.0, 0.1])


def fields(diagnostics):
    """Everything a diagnostic carries, comparable exactly (``repr``
    keeps floats bit-exact and exposes numpy scalars)."""
    return [
        (d.rule_id, d.severity, d.message, d.location, d.hint, repr(d.data))
        for d in diagnostics
    ]


@st.composite
def drawn_models(draw):
    """Small models of every row shape, bypassing ``Model.add``'s checks
    the way a pre-validation encoder could."""
    m = Model("drawn")
    n = draw(st.integers(0, 6))
    for j in range(n):
        kind = draw(st.sampled_from(["binary", "continuous", "integer"]))
        if kind == "binary":
            m.binary(f"b{j}")
            continue
        lo, hi = sorted([draw(BOUNDS), draw(BOUNDS)])
        if kind == "continuous":
            m.continuous(f"c{j}", lo, hi)
        else:
            m.integer(f"i{j}", lo, hi)
    # NaN or crossed bounds set after construction.
    for var in m.variables:
        corrupt = draw(st.sampled_from(
            [None, None, None, None, "nan-lower", "nan-upper", "crossed"]
        ))
        if corrupt == "nan-lower":
            var.lower = NAN
        elif corrupt == "nan-upper":
            var.upper = NAN
        elif corrupt == "crossed":
            var.lower, var.upper = var.upper + 1.0, var.lower
    foreign = [-1, n, n + 3] if draw(st.integers(0, 3)) == 0 else []
    columns = list(range(n)) * 3 + foreign
    binaries = [v.index for v in m.variables if v.is_binary]
    others = [v.index for v in m.variables if not v.is_binary]
    previous: list[dict[int, float]] = []
    for i in range(draw(st.integers(0, 8))):
        shape = draw(st.sampled_from(
            ["terms", "terms", "copy", "indicator", "floor", "empty"]
        ))
        constant = draw(CONSTANTS)
        if shape == "copy" and previous:
            coeffs = dict(draw(st.sampled_from(previous)))
        elif shape == "indicator" and binaries and others:
            # c >= k - M*(1 - b), or its `<=` mirror, with M loose or
            # tight against c's bounds, as floats or as ints.
            b = draw(st.sampled_from(binaries))
            c = draw(st.sampled_from(others))
            big_m = draw(st.sampled_from([5.0, 6.0, 50.0, 50]))
            sign = draw(st.sampled_from([1.0, -1.0, 1, -1]))
            coeffs = {c: sign, b: -sign * big_m}
        elif shape == "floor" and others:
            # A one-variable row: the bound propagation can carry over
            # to an indicator row and acquit its big-M.
            c = draw(st.sampled_from(others))
            coeffs = {c: draw(st.sampled_from([1.0, -1.0]))}
        elif shape == "empty" or not columns:
            coeffs = {}
        else:
            coeffs = draw(st.dictionaries(
                st.sampled_from(columns), COEFS, max_size=4
            ))
        sense = draw(st.sampled_from(
            ["ge", "ge", "le", "le", "eq", "range", "free", "crossed", "nan"]
        ))
        rhs = draw(RHS)
        lower, upper = {
            "ge": (rhs, INF),
            "le": (-INF, rhs),
            "eq": (rhs, rhs),
            "range": (rhs, rhs + 4.0),
            "free": (-INF, INF),
            "crossed": (rhs + 1.0, rhs),
            "nan": (NAN, rhs),
        }[sense]
        name = draw(st.sampled_from(["", f"r{i}"]))
        m._constraints.append(
            Constraint(LinExpr(coeffs, constant), lower, upper, name)
        )
        previous.append(coeffs)
    if columns:
        m._objective = LinExpr(draw(st.dictionaries(
            st.sampled_from(columns), COEFS, max_size=n + 1
        )))
    return m


@settings(
    max_examples=400,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(model=drawn_models())
def test_analyze_model_matches_the_per_row_reference(model):
    # Both propagate only over well-formed models, so neither raises on
    # the drawn corruptions (foreign columns, NaN bounds).
    expected = reference_diagnostics(model)
    assert fields(analyze_model(model).diagnostics) == fields(expected)


def per_term_standard_form(model: Model) -> StandardForm:
    """The per-term standard-form assembly ``row_arrays`` replaced."""
    n = len(model.variables)
    m = len(model.constraints)
    c = np.zeros(n)
    for idx, coeff in model.objective.coeffs.items():
        c[idx] = coeff
    rows: list[int] = []
    cols: list[int] = []
    data: list[float] = []
    b_lower = np.empty(m)
    b_upper = np.empty(m)
    for i, constraint in enumerate(model.constraints):
        coeffs, lo, hi = constraint.normalized()
        b_lower[i] = lo
        b_upper[i] = hi
        for idx, coeff in coeffs.items():
            if coeff != 0.0:
                rows.append(i)
                cols.append(idx)
                data.append(coeff)
    a_matrix = sparse.csr_matrix(
        (data, (rows, cols)), shape=(m, n), dtype=float
    )
    return StandardForm(
        c=c,
        a_matrix=a_matrix,
        b_lower=b_lower,
        b_upper=b_upper,
        x_lower=np.array([v.lower for v in model.variables]),
        x_upper=np.array([v.upper for v in model.variables]),
        integrality=np.array(
            [1 if v.is_integer else 0 for v in model.variables],
            dtype=np.int8,
        ),
    )


def assert_bitwise_equal(got: StandardForm, want: StandardForm) -> None:
    def same(a, b):
        assert a.dtype == b.dtype
        assert a.shape == b.shape
        assert a.tobytes() == b.tobytes()

    for name in ("c", "b_lower", "b_upper", "x_lower", "x_upper",
                 "integrality"):
        same(getattr(got, name), getattr(want, name))
    a, b = got.a_matrix, want.a_matrix
    assert a.format == b.format == "csr"
    assert a.shape == b.shape
    assert a.has_sorted_indices == b.has_sorted_indices
    for name in ("indptr", "indices", "data"):
        same(getattr(a, name), getattr(b, name))


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(model=drawn_models())
def test_standard_form_matches_the_per_term_assembly(model):
    try:
        want = per_term_standard_form(model)
    except (IndexError, ValueError) as exc:
        with pytest.raises(type(exc)):
            model.to_standard_form()
        return
    assert_bitwise_equal(model.to_standard_form(), want)


class TestRowArrays:
    def test_flattening_keeps_insertion_order_and_zeros(self):
        m = Model()
        x = m.binary("x")
        y = m.binary("y")
        m.add(y + 2 * x <= 3)
        m._constraints.append(Constraint(LinExpr({0: 0.0}), 0.0, INF))
        m.add(x + 0.0 >= 1)
        flat = m.row_arrays()
        assert flat.cols.tolist() == [1, 0, 0, 0]
        assert flat.coefs.tolist() == [1.0, 2.0, 0.0, 1.0]
        assert flat.counts.tolist() == [2, 1, 1]
        assert flat.row_of_terms().tolist() == [0, 0, 1, 2]
        assert flat.lower.tolist() == [-INF, 0.0, 1.0]
        assert flat.upper.tolist() == [3.0, INF, INF]

    def test_foreign_column_still_raises_in_standard_form(self):
        m = Model()
        m.binary("x")
        m._constraints.append(Constraint(LinExpr({7: 1.0}), 0.0, 1.0, "a"))
        with pytest.raises(ValueError):
            m.to_standard_form()


def big_m_model():
    """``c - 50*b >= -44`` over ``c in [0, 10]``: M=50 where 6 suffices."""
    m = Model("big-m")
    b = m.binary("b")
    c = m.continuous("c", 0.0, 10.0)
    m.add(c - 50 * b >= -44, name="indicator")
    m.minimize(c + b)
    return m, c


class TestLooseBigMAcquittal:
    def test_declared_bounds_flag_the_row(self):
        m, _ = big_m_model()
        finds = list(LooseBigMRule().check(m))
        assert len(finds) == 1
        assert finds[0].data["tightest"] == 6.0

    def test_propagated_bound_acquits_it(self):
        m, c = big_m_model()
        m.add(c >= 6, name="floor")  # c >= 6 makes the row vacuous
        assert not list(LooseBigMRule().check(m))

    def test_foreign_column_reports_instead_of_raising(self):
        """A row past the last column must not reach the propagation:
        the foreign-variable error and the big-M warning are reported."""
        m, _ = big_m_model()
        m._constraints.append(
            Constraint(LinExpr({0: 1.0, 5: 1.0}), -INF, 1.0, "foreign")
        )
        report = analyze_model(m)
        assert [d.rule_id for d in report.errors] == [
            "model.foreign-variable"
        ]
        big_m = [
            d for d in report.diagnostics
            if d.rule_id == "model.loose-big-m"
        ]
        assert [d.location for d in big_m] == ["row 'indicator'"]
        assert big_m[0].data["tightest"] == 6.0

    def test_nan_integer_bound_reports_instead_of_raising(self):
        """A NaN lower bound on an integer in another row cannot be
        rounded by the propagation: report it, acquit nothing."""
        m, c = big_m_model()
        k = m.integer("k", 0.0, 5.0)
        m.add(k + c <= 12, name="other")
        m.add(c >= 6, name="floor")  # would acquit a well-formed model
        k.lower = NAN
        report = analyze_model(m)
        assert [
            (d.rule_id, d.location) for d in report.errors
        ] == [("model.variable-bounds", "var 'k'")]
        big_m = [
            d for d in report.diagnostics
            if d.rule_id == "model.loose-big-m"
        ]
        assert [d.location for d in big_m] == ["row 'indicator'"]

    def test_propagation_runs_only_for_a_declared_candidate(
        self, monkeypatch
    ):
        calls = []
        real = PROPAGATION.propagated_bounds

        def counting(model, **kwargs):
            calls.append(model.name)
            return real(model, **kwargs)

        monkeypatch.setattr(PROPAGATION, "propagated_bounds", counting)
        assert analyze_model(sound_model()).ok
        assert calls == []
        m, c = big_m_model()
        m.add(c >= 6, name="floor")
        analyze_model(m)
        assert calls == ["big-m"]


class TestDuplicateRowVerification:
    def test_hash_collisions_are_separated_exactly(self, monkeypatch):
        """With every row hashing alike, the exact comparison alone must
        still split the left-hand sides correctly."""
        m = Model()
        x = m.binary("x")
        y = m.binary("y")
        z = m.continuous("z", 0.0, 4.0)
        m.add(x + y <= 1, name="a")
        m.add(x + 2 * y <= 2, name="b")
        m.add(y + x >= 1, name="c")
        m.add(z - x <= 3, name="d")
        m.add(2 * y + x >= 1, name="e")
        m.add(-x + z + 0 * y >= 0, name="f")
        monkeypatch.setattr(
            MODEL_RULES, "_uint64_mix", lambda bits: np.zeros_like(bits)
        )
        found = list(DuplicateRowRule().check(m))
        assert [f.data["rows"] for f in found] == [[0, 2], [1, 4], [3, 5]]
        assert fields(found) == fields([
            d for d in reference_diagnostics(m)
            if d.rule_id == "model.duplicate-row"
        ])
