"""Expression language for right-hand sides ``f(t, y, d)``.

Problem files state their dynamics as text in a small closed grammar:
numbers, the variables ``t`` (abscissa), ``y`` (state) and ``d`` (the
fractional derivative of the state, for implicit right-hand sides), the
constants ``pi`` and ``e``, the arithmetic operators ``+ - * / ^`` with
conventional precedence (``^`` right-associative, binding tighter than
unary minus), and the functions ``exp``, ``ln``, ``cos``, ``sin``,
``sqrt``, ``abs``, ``erf``, ``gamma`` and the two-argument ``E(mu, z)``
Mittag-Leffler call.

Named parameters are inlined as numeric literals while parsing, so an
``Expr`` is self-contained: evaluation needs no environment beyond the
three variables.  Trees are frozen dataclasses; parsing and evaluation
are pure.  ``to_source`` renders the canonical fully parenthesised form,
which re-parses to the same tree.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Mapping, Union

import numpy as np

from .errors import (
    ConvergenceError,
    DomainError,
    EvaluationError,
    ParseError,
    RangeError,
)
from .specfun import erf_fn, gamma_fn, mittag_leffler_many

__all__ = [
    "Num",
    "Var",
    "Neg",
    "BinOp",
    "Call",
    "Expr",
    "RESERVED_NAMES",
    "parse_expression",
    "evaluate",
    "to_source",
    "free_variables",
]


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    func: str
    args: tuple["Expr", ...]


Expr = Union[Num, Var, Neg, BinOp, Call]

_VARIABLES = ("t", "y", "d")
_CONSTANTS = {"pi": math.pi, "e": math.e}
_FUNCTIONS = {
    "exp": 1,
    "ln": 1,
    "cos": 1,
    "sin": 1,
    "sqrt": 1,
    "abs": 1,
    "erf": 1,
    "gamma": 1,
    "E": 2,
}

#: Names a parameter may not shadow: variables, constants, functions.
RESERVED_NAMES = frozenset(_VARIABLES) | frozenset(_CONSTANTS) | frozenset(_FUNCTIONS)

_TOKEN_RE = re.compile(
    r"(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^(),])"
)


def _tokenize(src: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(src):
        if src[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            raise ParseError(src, pos, f"unexpected character {src[pos]!r}")
        tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(src)))
    return tokens


class _Parser:
    """Recursive descent over the token list; grammar levels low to high:

    sum     := product (('+' | '-') product)*
    product := unary (('*' | '/') unary)*
    unary   := '-' unary | power
    power   := atom ('^' unary)?
    atom    := number | name | name '(' sum (',' sum)* ')' | '(' sum ')'
    """

    def __init__(self, src: str, parameters: Mapping[str, float]):
        self.src = src
        self.tokens = _tokenize(src)
        self.pos = 0
        self.parameters = parameters

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, symbol: str, reason: str) -> None:
        kind, text, offset = self.peek()
        if kind != "op" or text != symbol:
            raise ParseError(self.src, offset, reason)
        self.advance()

    def at_op(self, *symbols: str) -> bool:
        kind, text, _ = self.peek()
        return kind == "op" and text in symbols

    def parse(self) -> Expr:
        node = self.sum()
        kind, text, offset = self.peek()
        if kind != "end":
            raise ParseError(self.src, offset, f"unexpected {text!r} after expression")
        return node

    def sum(self) -> Expr:
        node = self.product()
        while self.at_op("+", "-"):
            _, op, _ = self.advance()
            node = BinOp(op, node, self.product())
        return node

    def product(self) -> Expr:
        node = self.unary()
        while self.at_op("*", "/"):
            _, op, _ = self.advance()
            node = BinOp(op, node, self.unary())
        return node

    def unary(self) -> Expr:
        if self.at_op("-"):
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Expr:
        node = self.atom()
        if self.at_op("^"):
            self.advance()
            # right associative; the exponent may carry its own sign
            return BinOp("^", node, self.unary())
        return node

    def atom(self) -> Expr:
        kind, text, offset = self.advance()
        if kind == "num":
            return Num(float(text))
        if kind == "name":
            if self.at_op("("):
                return self.call(text, offset)
            if text in self.parameters:
                return Num(float(self.parameters[text]))
            if text in _CONSTANTS:
                return Num(_CONSTANTS[text])
            if text in _VARIABLES:
                return Var(text)
            raise ParseError(self.src, offset, f"unknown identifier {text!r}")
        if kind == "op" and text == "(":
            node = self.sum()
            self.expect_op(")", "expected ')' to close '('")
            return node
        raise ParseError(self.src, offset, "expected a number, name, or '('")

    def call(self, name: str, offset: int) -> Expr:
        if name not in _FUNCTIONS:
            raise ParseError(self.src, offset, f"unknown function {name!r}")
        self.expect_op("(", "expected '(' after function name")
        args = [self.sum()]
        while self.at_op(","):
            self.advance()
            args.append(self.sum())
        self.expect_op(")", "expected ')' to close the argument list")
        arity = _FUNCTIONS[name]
        if len(args) != arity:
            raise ParseError(
                self.src,
                offset,
                f"{name} takes {arity} argument{'s' if arity > 1 else ''}, got {len(args)}",
            )
        if name == "E":
            args[0] = Num(self.ml_index(args[0], offset))
        return Call(name, tuple(args))

    def ml_index(self, node: Expr, offset: int) -> float:
        """Fold the first argument of E; it must be a known constant in (0, 1]."""
        if free_variables(node):
            raise ParseError(
                self.src, offset, "the first argument of E must be constant"
            )
        try:
            mu = float(evaluate(node, t=0.0))
        except EvaluationError as exc:
            raise ParseError(self.src, offset, f"bad index for E: {exc}") from exc
        if not (0.0 < mu <= 1.0):
            raise ParseError(
                self.src, offset, f"the index of E must lie in (0, 1], got {mu!r}"
            )
        return mu


def parse_expression(
    src: str, parameters: Mapping[str, float] | None = None
) -> Expr:
    """Parse ``src`` into an expression tree.

    Parameters
    ----------
    src : str
        Expression text; must be nonempty.
    parameters : mapping, optional
        Named constants to inline as literals.  Names must not shadow the
        variables, the built-in constants, or the function names, and the
        values must be finite.

    Raises
    ------
    ParseError
        On any lexical or syntactic problem; carries the byte offset.
    """
    if parameters is None:
        parameters = {}
    for pname, pval in parameters.items():
        if pname in _VARIABLES or pname in _CONSTANTS or pname in _FUNCTIONS:
            raise ParseError(src, 0, f"parameter {pname!r} shadows a reserved name")
        if not math.isfinite(float(pval)):
            raise ParseError(src, 0, f"parameter {pname!r} has a non-finite value")
    if not src.strip():
        raise ParseError(src, 0, "empty expression")
    return _Parser(src, parameters).parse()


# ---------------------------------------------------------------------------
# evaluation

def _first_bad_t(env: dict, bad) -> float | None:
    t = env.get("t")
    if t is None:
        return None
    if np.ndim(bad) == 0:
        return float(np.ravel(t)[0]) if np.ndim(t) else float(t)
    idx = int(np.argmax(bad))
    if np.ndim(t):
        return float(np.ravel(t)[idx])
    return float(t)


def _check_finite(value, env: dict, what: str):
    bad = ~np.isfinite(value)
    if np.any(bad):
        raise EvaluationError(f"{what} produced a non-finite value", _first_bad_t(env, bad))
    return value


def _eval(node: Expr, env: dict):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return env[node.name]
    if isinstance(node, Neg):
        return -_eval(node.operand, env)
    if isinstance(node, BinOp):
        left = _eval(node.left, env)
        right = _eval(node.right, env)
        with np.errstate(all="ignore"):
            if node.op == "+":
                return _check_finite(left + right, env, "addition")
            if node.op == "-":
                return _check_finite(left - right, env, "subtraction")
            if node.op == "*":
                return _check_finite(left * right, env, "multiplication")
            if node.op == "/":
                bad = np.equal(right, 0.0)
                if np.any(bad):
                    raise EvaluationError("division by zero", _first_bad_t(env, bad))
                return _check_finite(left / right, env, "division")
            return _check_finite(np.power(left, right), env, "power")
    return _eval_call(node, env)


def _eval_call(node: Call, env: dict):
    arg = _eval(node.args[-1], env)
    name = node.func
    with np.errstate(all="ignore"):
        if name == "exp":
            return _check_finite(np.exp(arg), env, "exp")
        if name == "ln":
            bad = np.less_equal(arg, 0.0)
            if np.any(bad):
                raise EvaluationError("ln of a nonpositive value", _first_bad_t(env, bad))
            return np.log(arg)
        if name == "cos":
            return np.cos(arg)
        if name == "sin":
            return np.sin(arg)
        if name == "sqrt":
            bad = np.less(arg, 0.0)
            if np.any(bad):
                raise EvaluationError("sqrt of a negative value", _first_bad_t(env, bad))
            return np.sqrt(arg)
        if name == "abs":
            return np.abs(arg)
        if name == "erf":
            return _elementwise(erf_fn, arg)
        if name == "gamma":
            try:
                return _elementwise(gamma_fn, arg)
            except DomainError as exc:
                raise EvaluationError(str(exc), _first_bad_t(env, True)) from exc
        # E(mu, z); mu was folded to a literal while parsing
        try:
            return mittag_leffler_many(node.args[0].value, arg)
        except (DomainError, RangeError, ConvergenceError) as exc:
            raise EvaluationError(str(exc), _first_bad_t(env, True)) from exc


def _elementwise(fn, arg) -> np.ndarray:
    """A scalar special function applied to every entry of ``arg``."""
    arr = np.asarray(arg, dtype=float)
    return np.array([fn(float(z)) for z in arr.ravel()]).reshape(arr.shape)


def evaluate(expr: Expr, t, y=0.0, d=0.0):
    """Evaluate ``expr`` at ``(t, y, d)``.

    Accepts floats or equal-shaped numpy arrays; with array input the
    result is an array.  Evaluation is deterministic: identical inputs
    give bit-identical outputs.

    Raises
    ------
    EvaluationError
        On domain violations or non-finite intermediates, carrying the
        offending abscissa when it is known.
    """
    env = {"t": t, "y": y, "d": d}
    out = _eval(expr, env)
    if np.ndim(out) == 0:
        # a constant expression broadcasts like any other
        shape = np.broadcast_shapes(np.shape(t), np.shape(y), np.shape(d))
        return np.full(shape, float(out)) if shape else float(out)
    return np.asarray(out, dtype=float)


# ---------------------------------------------------------------------------
# canonical form and queries

def _render(node: Expr) -> str:
    if isinstance(node, Num):
        if node.value < 0.0 or math.copysign(1.0, node.value) < 0.0:
            return f"(-{float(-node.value)!r})"
        return repr(float(node.value))
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        return f"(-{_render(node.operand)})"
    if isinstance(node, BinOp):
        return f"({_render(node.left)} {node.op} {_render(node.right)})"
    inner = ", ".join(_render(a) for a in node.args)
    return f"{node.func}({inner})"


def to_source(expr: Expr) -> str:
    """Render the canonical fully parenthesised form.

    The canonical form is a fixed point: parsing it and rendering again
    reproduces the same string (and the same tree).
    """
    return _render(expr)


def free_variables(expr: Expr) -> frozenset[str]:
    """The set of variable names that occur in ``expr``."""
    if isinstance(expr, Var):
        return frozenset((expr.name,))
    if isinstance(expr, Neg):
        return free_variables(expr.operand)
    if isinstance(expr, BinOp):
        return free_variables(expr.left) | free_variables(expr.right)
    if isinstance(expr, Call):
        out: frozenset[str] = frozenset()
        for a in expr.args:
            out |= free_variables(a)
        return out
    return frozenset()
