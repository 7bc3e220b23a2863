"""Expression grammar: parsing, precedence, evaluation, round-trips."""

import inspect
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracstab import rhs_expr
from fracstab.errors import EvaluationError, ParseError
from fracstab.rhs_expr import (
    MAX_DEPTH,
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


@pytest.mark.parametrize(
    "src,first_bad",
    [
        ("gamma(0.55 - t)", 6),  # gamma refuses 0.55 - 0.6 < 0
        ("E(0.5, 60*t)", 9),     # 60 * 0.9 = 54 exceeds the series bound 50
    ],
)
def test_special_function_error_names_the_failing_node(src, first_bad):
    t = np.linspace(0.0, 1.0, 11)
    with pytest.raises(EvaluationError) as info:
        evaluate(parse_expression(src), t=t)
    assert info.value.at_t == t[first_bad]


def test_special_functions_are_looked_up_when_called(monkeypatch):
    calls = dict.fromkeys(("mittag_leffler_many", "erf_fn", "gamma_fn"), 0)
    for name in calls:
        def counting(*args, name=name, original=getattr(rhs_expr, name)):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(rhs_expr, name, counting)
    expr = parse_expression("E(0.5, t) + erf(t) + gamma(t + 1)")
    evaluate(expr, t=np.linspace(0.0, 1.0, 5))
    assert all(calls.values()), calls


def test_free_variables():
    assert free_variables(parse_expression("1 + pi")) == set()
    assert free_variables(parse_expression("t*y + d")) == {"t", "y", "d"}
    assert free_variables(parse_expression("cos(t) + cos(t)")) == {"t"}


def test_free_variables_under_unary_minus():
    assert free_variables(parse_expression("-y")) == {"y"}
    assert free_variables(parse_expression("t - -d")) == {"t", "d"}


def test_bad_index_for_e_is_a_parse_error():
    with pytest.raises(ParseError, match="bad index for E"):
        parse_expression("E(1/0, t)")


# one level of each construct around a leaf: ``MAX_DEPTH - 1`` of them
# make an expression exactly ``MAX_DEPTH`` levels deep
NESTINGS = {
    "parentheses": lambda k: "(" * k + "y" + ")" * k,
    "calls": lambda k: "sin(" * k + "y" + ")" * k,
    "signs": lambda k: "-" * k + "y",
    "powers": lambda k: "^".join(["y"] * (k + 1)),
    "sum": lambda k: "+".join(["y"] * (k + 1)),
    "product": lambda k: "*".join(["y"] * (k + 1)),
}


@pytest.mark.parametrize("shape", sorted(NESTINGS))
def test_nesting_is_bounded(shape):
    deepest = NESTINGS[shape](MAX_DEPTH - 1)
    expr = parse_expression(deepest)
    # parsing and every walk of the tree take at most seven frames a level
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 7 * MAX_DEPTH)
    try:
        parse_expression(deepest)
        free_variables(expr)
        to_source(expr)
        evaluate(expr, np.full(3, 0.5), np.full(3, 0.5), np.zeros(3))
    finally:
        sys.setrecursionlimit(saved)
    for levels in (MAX_DEPTH, 10 * MAX_DEPTH):
        with pytest.raises(ParseError, match=f"nested deeper than {MAX_DEPTH} levels"):
            parse_expression(NESTINGS[shape](levels))


def test_nesting_refusal_points_at_the_level_past_the_bound():
    with pytest.raises(ParseError) as info:
        parse_expression("(" * MAX_DEPTH + "y" + ")" * MAX_DEPTH)
    assert info.value.offset == MAX_DEPTH
    # a chain is measured once it ends, and E's index before it is folded
    index = "E(" + "+".join(["0.001"] * (MAX_DEPTH + 1))
    with pytest.raises(ParseError) as info:
        parse_expression(index + ", t)")
    assert info.value.offset == len(index)


def test_to_source_keeps_string_and_value_of_negative_parameters():
    # an inlined negative number renders as (-2.0), which re-parses to
    # Neg(Num(2.0)): the same string and value, not the same tree
    expr = parse_expression("c*t", {"c": -2.0})
    src = to_source(expr)
    assert src == "((-2.0) * t)"
    again = parse_expression(src)
    assert to_source(again) == src
    assert again != expr
    assert evaluate(again, t=1.5) == evaluate(expr, t=1.5) == -3.0


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


# pairs of a source and the same expression in numpy calls, over every
# numpy-backed operator and function on domains where none refuses
_T = np.linspace(0.1, 2.0, 17)
_Y = np.linspace(-1.5, 1.5, 17)
_D = np.sin(np.linspace(0.0, 3.0, 17))
_const = st.floats(min_value=-3.0, max_value=3.0)

_numpy_leaf = st.one_of(
    _const.map(lambda v: (f"({v!r})", lambda env: v)),
    st.sampled_from("tyd").map(lambda name: (name, lambda env: env[name])),
)


def _numpy_extend(inner):
    binary = {"+": np.add, "-": np.subtract, "*": np.multiply}
    return st.one_of(
        st.tuples(inner, inner, st.sampled_from(sorted(binary))).map(
            lambda abo: (
                f"({abo[0][0]} {abo[2]} {abo[1][0]})",
                lambda env: binary[abo[2]](abo[0][1](env), abo[1][1](env)),
            )
        ),
        st.tuples(inner, inner).map(
            lambda ab: (
                f"({ab[0][0]} / ({ab[1][0]} * {ab[1][0]} + 1))",
                lambda env: np.divide(
                    ab[0][1](env),
                    np.add(np.multiply(ab[1][1](env), ab[1][1](env)), 1.0),
                ),
            )
        ),
        st.tuples(inner, st.floats(min_value=-1.0, max_value=1.0)).map(
            lambda ac: (
                f"((abs({ac[0][0]}) + 1) ^ ({ac[1]!r}))",
                lambda env: np.power(np.add(np.abs(ac[0][1](env)), 1.0), ac[1]),
            )
        ),
        inner.map(lambda a: (f"(-{a[0]})", lambda env: np.negative(a[1](env)))),
        inner.map(lambda a: (f"exp(sin({a[0]}))", lambda env: np.exp(np.sin(a[1](env))))),
        inner.map(
            lambda a: (
                f"ln(abs({a[0]}) + 1)",
                lambda env: np.log(np.add(np.abs(a[1](env)), 1.0)),
            )
        ),
        inner.map(lambda a: (f"cos({a[0]})", lambda env: np.cos(a[1](env)))),
        inner.map(lambda a: (f"sqrt(abs({a[0]}))", lambda env: np.sqrt(np.abs(a[1](env))))),
    )


@given(st.recursive(_numpy_leaf, _numpy_extend, max_leaves=12))
@settings(max_examples=200, derandomize=True, deadline=None)
def test_evaluation_matches_numpy_bit_for_bit(pair):
    src, reference = pair
    env = {"t": _T, "y": _Y, "d": _D}
    out = evaluate(parse_expression(src), **env)
    assert np.array_equal(out, np.broadcast_to(reference(env), out.shape)), src
