"""Expression grammar: parsing, precedence, evaluation, round-trips."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracstab.errors import EvaluationError, ParseError
from fracstab.rhs_expr import (
    RESERVED_NAMES,
    evaluate,
    free_variables,
    parse_expression,
    to_source,
)
from fracstab.specfun import erf_fn, gamma_fn, mittag_leffler


def ev(src, t=0.0, y=0.0, d=0.0, params=None):
    return evaluate(parse_expression(src, params), t=t, y=y, d=d)


# source, value at t=2, y=3, d=5
PRECEDENCE_CASES = [
    ("1+2*3", 7.0),
    ("(1+2)*3", 9.0),
    ("2*3^2", 18.0),
    ("-2^2", -4.0),
    ("(-2)^2", 4.0),
    ("2^-1", 0.5),
    ("2^3^2", 512.0),          # right-associative
    ("6/3/2", 1.0),            # left-associative
    ("1-2-3", -4.0),
    ("-t^2", -4.0),
    ("t*y+d", 11.0),
    ("t*(y+d)", 16.0),
    ("--3", 3.0),
]


@pytest.mark.parametrize("src,expected", PRECEDENCE_CASES)
def test_precedence(src, expected):
    assert ev(src, t=2.0, y=3.0, d=5.0) == pytest.approx(expected, rel=1e-15)


def test_constants_and_functions():
    assert ev("pi") == pytest.approx(math.pi)
    assert ev("e") == pytest.approx(math.e)
    assert ev("exp(1)") == pytest.approx(math.e)
    assert ev("ln(e)") == pytest.approx(1.0)
    assert ev("cos(0) + sin(0)") == pytest.approx(1.0)
    assert ev("sqrt(t)", t=9.0) == pytest.approx(3.0)
    assert ev("abs(-4)") == pytest.approx(4.0)
    assert ev("erf(1)") == pytest.approx(erf_fn(1.0))
    assert ev("gamma(0.5)") == pytest.approx(gamma_fn(0.5))
    assert ev("E(0.5, 1)") == pytest.approx(mittag_leffler(0.5, 1.0))


def test_parameters_inline():
    expr = parse_expression("lam*t + mu_0", {"lam": 2.0, "mu_0": 0.5})
    assert evaluate(expr, t=3.0) == pytest.approx(6.5)
    assert free_variables(expr) == {"t"}


def test_parameter_shadowing_rejected():
    for name in ("t", "pi", "sqrt", "E"):
        with pytest.raises(ParseError):
            parse_expression("1", {name: 1.0})
    assert {"t", "y", "d", "pi", "e", "sqrt", "E"} <= RESERVED_NAMES


@pytest.mark.parametrize(
    "src",
    [
        "",
        "   ",
        "2 +",
        "(1",
        "1)",
        "1 $ 2",
        "foo(1)",
        "nonsense",
        "E(1)",
        "sqrt(1, 2)",
        "E(t, 1)",      # index must be constant
        "E(2, 1)",      # index must lie in (0, 1]
        "1 2",
    ],
)
def test_parse_errors(src):
    with pytest.raises(ParseError):
        parse_expression(src)


def test_parse_error_offset_and_context():
    with pytest.raises(ParseError) as info:
        parse_expression("1 + $")
    assert info.value.offset == 4


def test_evaluate_arrays():
    expr = parse_expression("t^2 + y")
    t = np.array([0.0, 1.0, 2.0])
    out = evaluate(expr, t=t, y=1.0)
    np.testing.assert_allclose(out, [1.0, 2.0, 5.0])
    # a constant expression still answers array input with an array
    const = evaluate(parse_expression("0.5 * 3"), t=t, y=1.0)
    assert isinstance(const, np.ndarray)
    np.testing.assert_array_equal(const, [1.5, 1.5, 1.5])
    assert evaluate(parse_expression("2"), t=1.0) == 2.0


def test_evaluation_errors():
    with pytest.raises(EvaluationError):
        ev("ln(t)", t=0.0)
    with pytest.raises(EvaluationError):
        ev("sqrt(-1)")
    with pytest.raises(EvaluationError):
        ev("1/t", t=0.0)
    with pytest.raises(EvaluationError):
        ev("exp(1000)")


def test_evaluation_error_carries_location():
    expr = parse_expression("ln(t)")
    with pytest.raises(EvaluationError) as info:
        evaluate(expr, t=np.array([1.0, 0.5, 0.0]))
    assert info.value.at_t == 0.0


def test_free_variables():
    assert free_variables(parse_expression("1 + pi")) == set()
    assert free_variables(parse_expression("t*y + d")) == {"t", "y", "d"}
    assert free_variables(parse_expression("cos(t) + cos(t)")) == {"t"}


def test_to_source_round_trip_fixed():
    for src, _ in PRECEDENCE_CASES:
        expr = parse_expression(src)
        again = parse_expression(to_source(expr))
        for t in (0.5, 2.0):
            assert evaluate(again, t=t, y=3.0, d=5.0) == pytest.approx(
                evaluate(expr, t=t, y=3.0, d=5.0), rel=1e-15
            )


# random expression trees over total operations only, so every tree
# evaluates without domain errors
_leaf = st.one_of(
    st.floats(min_value=-3.0, max_value=3.0).map(lambda v: format(v, ".3g")),
    st.sampled_from(["t", "y", "d", "pi"]),
)


_expr_src = st.recursive(
    _leaf,
    lambda inner: st.one_of(
        st.tuples(inner, inner, st.sampled_from(["+", "-", "*"])).map(
            lambda abc: f"({abc[0]} {abc[2]} {abc[1]})"
        ),
        inner.map(lambda a: f"(-{a})"),
        inner.map(lambda a: f"cos({a})"),
        inner.map(lambda a: f"sin({a})"),
    ),
    max_leaves=12,
)


@given(_expr_src, st.floats(min_value=-2.0, max_value=2.0))
@settings(max_examples=120, deadline=None)
def test_to_source_round_trip_random(src, t):
    expr = parse_expression(src)
    again = parse_expression(to_source(expr))
    lhs = evaluate(expr, t=t, y=0.5, d=-0.5)
    rhs = evaluate(again, t=t, y=0.5, d=-0.5)
    assert rhs == pytest.approx(lhs, rel=1e-14, abs=1e-14)
