"""The one-dict algebra against the operator bodies it replaced.

Every ``+``, ``-``, ``*`` and comparison on ``Var``/``LinExpr`` builds its
result's coefficient dict directly; ``expr_reference`` keeps the old
bodies, which composed each operation out of smaller expressions.  Random
programs over variables, expressions, ints and floats (signed zeros and
infinities included) must give the same coefficient dicts under both —
same keys in the same insertion order, bitwise-equal floats — the same
constants, the same row bounds and the same ``TypeError``\\ s.
"""

import importlib.util
import struct
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.milp import Constraint, LinExpr, Model

from .expr_reference import reference_algebra

TOOL = Path(__file__).parent.parent / "tools" / "check_model_differential.py"
spec = importlib.util.spec_from_file_location("check_model_differential", TOOL)
check_model_differential = importlib.util.module_from_spec(spec)
sys.modules["check_model_differential"] = check_model_differential
spec.loader.exec_module(check_model_differential)

N_VARS = 3
INF = float("inf")

numbers = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, INF, -INF, 0, 1, -2]),
    st.integers(-5, 5),
    st.floats(allow_nan=False),
)
literals = st.builds(
    lambda pairs, constant: (dict(pairs), constant),
    st.lists(st.tuples(st.integers(0, N_VARS - 1), numbers.map(float)),
             max_size=4),
    numbers.map(float),
)
operand = st.one_of(
    st.tuples(st.just("reg"), st.integers(0, 15)),
    st.tuples(st.just("num"), numbers),
)
OPS = ["+", "-", "*", "neg", "<=", ">=", "=="]
programs = st.lists(
    st.tuples(st.sampled_from(OPS), operand, operand), min_size=1, max_size=16,
)


def bits(value):
    return type(value).__name__, struct.pack("<d", value)


def snapshot(value):
    """Everything observable about an operation's result, bit for bit."""
    if isinstance(value, Constraint):
        return ("row", snapshot(value.expr), bits(value.lower),
                bits(value.upper))
    assert isinstance(value, LinExpr)
    return ("expr", [(idx, bits(c)) for idx, c in value.coeffs.items()],
            bits(value.constant))


def apply(op, left, right):
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "neg":
        return -left
    if op == "<=":
        return left <= right
    if op == ">=":
        return left >= right
    return left == right


def run(program, literal):
    """The snapshot of every step; results join the register file."""
    model = Model()
    registers = [model.continuous(f"x{i}") for i in range(N_VARS)]
    registers.append(LinExpr(*literal))
    trace = []
    for op, (lkind, lval), (rkind, rval) in program:
        left = registers[lval % len(registers)] if lkind == "reg" else lval
        right = registers[rval % len(registers)] if rkind == "reg" else rval
        if lkind == "num" and (rkind == "num" or op == "neg"):
            continue  # plain arithmetic, no algebra
        try:
            result = apply(op, left, right)
        except TypeError as exc:
            trace.append(("error", str(exc)))
            continue
        trace.append(snapshot(result))
        if isinstance(result, LinExpr):
            registers.append(result)
    return trace


@settings(max_examples=400, deadline=None)
@given(programs, literals)
def test_programs_match_the_reference_algebra(program, literal):
    fast = run(program, literal)
    with reference_algebra():
        reference = run(program, literal)
    assert fast == reference


class TestEdgeCases:
    """The cases the property test must reach, pinned by name."""

    @pytest.mark.parametrize("build", [
        lambda x, y: x - x,
        lambda x, y: (x + y) - (x + y),
        lambda x, y: x - (x + 0.0),
        lambda x, y: (x + 0.0) - x,
        lambda x, y: x + -0.0,
        lambda x, y: -0.0 - x,
        lambda x, y: (x * -0.0) - -0.0,
        lambda x, y: x - INF,
        lambda x, y: INF - (x + INF),
        lambda x, y: x * INF,
        lambda x, y: (x - INF) * 0.0,
        lambda x, y: x - y <= INF,
        lambda x, y: -INF >= (y - x),
        lambda x, y: x == y,
        lambda x, y: 0 == x + y,
        lambda x, y: -x,
        lambda x, y: -(x - y),
        lambda x, y: 2 - (y - 0.5 * x),
    ])
    def test_matches_the_reference(self, build):
        def result():
            model = Model()
            x, y = model.continuous("x"), model.continuous("y")
            return snapshot(build(x, y))

        fast = result()
        with reference_algebra():
            assert fast == result()

    def test_x_minus_x_keeps_a_stored_zero(self):
        x = Model().continuous("x")
        expr = x - x
        assert list(expr.coeffs.items()) == [(x.index, 0.0)]
        assert expr.constant == 0.0

    @pytest.mark.parametrize("build", [
        lambda x: x + "nope",
        lambda x: "nope" + x,
        lambda x: x - None,
        lambda x: (x + 1) - [],
        lambda x: "nope" - (x + 1),
        lambda x: x * x,
        lambda x: (x + 1) * (x + 1),
        lambda x: x <= "nope",
        lambda x: x == None,  # noqa: E711
    ])
    def test_bad_operands_raise_the_same_error(self, build):
        def message():
            with pytest.raises(TypeError) as info:
                build(Model().continuous("x"))
            return str(info.value)

        fast = message()
        with reference_algebra():
            assert fast == message()


class TestOwnership:
    def test_results_never_alias_an_operand(self):
        model = Model()
        x, y = model.continuous("x"), model.continuous("y")
        base = x + y
        for result in (base + 0, base - 0, 0 + base, base * 1,
                       (base <= 1).expr):
            assert result is not base and result.coeffs is not base.coeffs
            result.add_term(x, 5.0)
        assert base.coeffs == {x.index: 1.0, y.index: 1.0}

    def test_constructor_still_copies(self):
        coeffs = {0: 1.0}
        expr = LinExpr(coeffs)
        coeffs[1] = 2.0
        assert expr.coeffs == {0: 1.0}


def test_registry_models_match_the_reference_algebra():
    """Every 5th problem of registry seed block 0, built under both."""
    tool = check_model_differential
    mismatched, problems, rows = tool.differential(
        tool.registry_scenarios([0], stride=5)
    )
    assert mismatched == []
    assert problems >= 20 and rows >= 5000
