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
three variables.  Trees are named tuples, immutable and compared by
value; parsing and evaluation are pure.  ``to_source`` renders the
canonical fully parenthesised form, which re-parses to the same string
and value, if not always the same tree.
"""

from __future__ import annotations

import math
import re
from typing import Callable, Mapping, NamedTuple, Union

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
    "MAX_DEPTH",
]


class Num(NamedTuple):
    value: float


class Var(NamedTuple):
    name: str


class Neg(NamedTuple):
    operand: "Expr"


class BinOp(NamedTuple):
    op: str
    left: "Expr"
    right: "Expr"


class Call(NamedTuple):
    func: str
    args: tuple["Expr", ...]


Expr = Union[Num, Var, Neg, BinOp, Call]

_VARIABLES = ("t", "y", "d")
_CONSTANTS = {"pi": math.pi, "e": math.e}

#: Most levels an expression may nest: ``y`` is one, and each parenthesis,
#: call, minus sign or power around it adds one, as does each operator of
#: a chain such as ``y + y + y`` to the tree.  Parsing takes up to six
#: Python frames a level and each walk of a tree (``evaluate``,
#: ``to_source``, ``free_variables``) up to two, so deeper input is refused
#: well before the default recursion limit of 1000.
MAX_DEPTH = 100


class _Rule(NamedTuple):
    """One operator or function.  ``apply`` takes the evaluated arguments;
    entries of the last one where ``refuses(arg, 0.0)`` holds are refused
    with ``refusal``, and a non-finite result with "<overflow> produced a
    non-finite value".  Special functions are looked up when called."""

    apply: Callable
    arity: int = 1
    refuses: Callable | None = None
    refusal: str = ""
    overflow: str | None = None


_RULES = {
    "+": _Rule(np.add, 2, overflow="addition"),
    "-": _Rule(np.subtract, 2, overflow="subtraction"),
    "*": _Rule(np.multiply, 2, overflow="multiplication"),
    "/": _Rule(np.divide, 2, np.equal, "division by zero", "division"),
    "^": _Rule(np.power, 2, overflow="power"),
    "exp": _Rule(np.exp, overflow="exp"),
    "ln": _Rule(np.log, refuses=np.less_equal, refusal="ln of a nonpositive value"),
    "cos": _Rule(np.cos),
    "sin": _Rule(np.sin),
    "sqrt": _Rule(np.sqrt, refuses=np.less, refusal="sqrt of a negative value"),
    "abs": _Rule(np.abs),
    "erf": _Rule(lambda z: _elementwise(erf_fn, z)),
    "gamma": _Rule(lambda z: _elementwise(gamma_fn, z)),
    # E(mu, z); mu was folded to a literal while parsing
    "E": _Rule(lambda mu, z: mittag_leffler_many(mu, z), 2),
}
_FUNCTIONS = {name: rule.arity for name, rule in _RULES.items() if name.isidentifier()}

# what a special function raises for an argument it cannot evaluate
_SPECIAL_ERRORS = (DomainError, RangeError, ConvergenceError)

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
        self.depth = 0  # active unary levels, which every recursion passes

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

    def check_depth(self, depth: int) -> None:
        if depth > MAX_DEPTH:
            raise ParseError(self.src, self.peek()[2], f"nested deeper than {MAX_DEPTH} levels")

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
        self.check_depth(_tree_depth(node))
        return node

    def product(self) -> Expr:
        node = self.unary()
        while self.at_op("*", "/"):
            _, op, _ = self.advance()
            node = BinOp(op, node, self.unary())
        return node

    def unary(self) -> Expr:
        self.depth += 1
        self.check_depth(self.depth)
        if self.at_op("-"):
            self.advance()
            node = Neg(self.unary())
        else:
            node = self.power()
        self.depth -= 1
        return node

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
        if pname in RESERVED_NAMES:
            raise ParseError(src, 0, f"parameter {pname!r} shadows a reserved name")
        if not math.isfinite(float(pval)):
            raise ParseError(src, 0, f"parameter {pname!r} has a non-finite value")
    if not src.strip():
        raise ParseError(src, 0, "empty expression")
    return _Parser(src, parameters).parse()


def _children(node: Expr) -> tuple:
    if isinstance(node, Neg):
        return (node.operand,)
    if isinstance(node, BinOp):
        return (node.left, node.right)
    return node.args if isinstance(node, Call) else ()


def _tree_depth(expr: Expr) -> int:
    """The number of levels of ``expr``'s tree, counted without recursion."""
    depth, level = 0, [expr]
    while level:
        depth += 1
        level = [child for node in level for child in _children(node)]
    return depth


# ---------------------------------------------------------------------------
# evaluation

def _t_at(env: dict, index) -> float:
    """The abscissa of entry ``index`` of the evaluated arrays."""
    t = env["t"]
    return float(np.ravel(t)[index]) if np.ndim(t) else float(t)


def _refuse(bad, reason: str, env: dict) -> None:
    if np.any(bad):
        raise EvaluationError(reason, _t_at(env, np.argmax(bad)))


def _first_failing_t(rule: _Rule, args: list, env: dict, kind: type) -> float:
    """Where the shortest prefix of the last argument ends that ``rule``
    refuses with a ``kind`` error: the first node at which it appears."""
    head, last = args[:-1], np.ravel(args[-1])
    lo, hi = 0, last.size  # last[:lo] gives no kind error, last[:hi] does
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            rule.apply(*head, last[:mid])
            lo = mid
        except kind:
            hi = mid
        except _SPECIAL_ERRORS:
            lo = mid
    return _t_at(env, hi - 1)


def _eval(node: Expr, env: dict):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return env[node.name]
    if isinstance(node, Neg):
        return -_eval(node.operand, env)
    if isinstance(node, BinOp):
        rule, operands = _RULES[node.op], (node.left, node.right)
    else:
        rule, operands = _RULES[node.func], node.args
    args = [_eval(a, env) for a in operands]
    if rule.refuses is not None:
        _refuse(rule.refuses(args[-1], 0.0), rule.refusal, env)
    try:
        value = rule.apply(*args)
    except _SPECIAL_ERRORS as exc:
        raise EvaluationError(str(exc), _first_failing_t(rule, args, env, type(exc))) from exc
    if rule.overflow is not None:
        _refuse(~np.isfinite(value), f"{rule.overflow} produced a non-finite value", env)
    return value


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
    with np.errstate(all="ignore"):
        out = _eval(expr, {"t": t, "y": y, "d": d})
    if np.ndim(out) == 0:
        # a constant expression broadcasts like any other
        shape = np.broadcast_shapes(np.shape(t), np.shape(y), np.shape(d))
        return np.full(shape, float(out)) if shape else float(out)
    return np.asarray(out, dtype=float)


# ---------------------------------------------------------------------------
# canonical form and queries

def to_source(expr: Expr) -> str:
    """Render the canonical fully parenthesised form.

    Parsing it and rendering again gives the same string and value, but not
    always the same tree: an inlined negative parameter renders as
    ``(-2.0)``, which parses back as the negation of ``2.0``.
    """
    if isinstance(expr, Num):
        if expr.value < 0.0 or math.copysign(1.0, expr.value) < 0.0:
            return f"(-{float(-expr.value)!r})"
        return repr(float(expr.value))
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, Neg):
        return f"(-{to_source(expr.operand)})"
    if isinstance(expr, BinOp):
        return f"({to_source(expr.left)} {expr.op} {to_source(expr.right)})"
    return f"{expr.func}({', '.join(to_source(a) for a in expr.args)})"


def free_variables(expr: Expr) -> frozenset[str]:
    """The set of variable names that occur in ``expr``."""
    if isinstance(expr, Var):
        return frozenset((expr.name,))
    return frozenset().union(*map(free_variables, _children(expr)))
