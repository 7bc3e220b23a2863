"""Command-line surface: problem files, subcommands, CSV emission.

Problems arrive as JSON documents naming the reparametrisation, the
orders, the interval, the initial datum, the right-hand side expression,
and optionally Lipschitz constants, a comparison function, and named
parameters substituted into the expressions.  Five subcommands cover
special-function evaluation, solving, certification, the perturbation
harness, and the operator oracle suite.

Exit codes: 0 success, 2 input or validation problem, 3 the iteration
did not converge, 4 certification failed, 5 an oracle or certified bound
failed.  All CSV output uses '.' decimals and 15 significant digits and
is byte-deterministic for identical invocations.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import re
import sys
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import TextIO

from .errors import (
    DomainError,
    EstimationError,
    FracstabError,
    NonConvergenceError,
    ParseError,
    SchemaError,
)
from .fraccalc import run_operator_checks
from .psi_space import PSI_KINDS, FracOrder, Mesh, PsiMap, build_mesh, default_grading
from .rhs_expr import Expr, RESERVED_NAMES, free_variables, parse_expression
from .solver import (
    CauchyProblem,
    Solution,
    certify_unique,
    estimate_lipschitz,
    picard_solve,
)
from .specfun import erf_fn, gamma_fn, mittag_leffler
from .stability import (
    PERTURBATION_SHAPES,
    PerturbationSpec,
    StabilityCertificate,
    lambda_phi_in_force,
    perturb_and_check,
    report_to_csv,
)

# numpy after the package's own modules, which load it already, so that the
# import order, and with it each request's peak memory, stays as it was
import numpy as np

__all__ = ["ProblemFile", "load_problem", "problem_from_dict", "main"]

_TOP_KEYS = {
    "psi", "alpha", "beta", "a", "T", "y_a", "rhs",
    "lipschitz", "phi", "lambda_phi", "parameters",
}
_REQUIRED_KEYS = ("psi", "alpha", "beta", "a", "T", "y_a", "rhs")


@dataclass(frozen=True)
class ProblemFile:
    """A validated problem document plus its optional stability extras."""

    problem: CauchyProblem
    phi: Expr | None
    lambda_phi: float | None


def _number(value, key: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(key, "expected a number")
    try:
        out = float(value)
    except OverflowError:  # an integer beyond double range
        raise SchemaError(key, "must be finite") from None
    if not math.isfinite(out):
        raise SchemaError(key, "must be finite")
    return out


def _string(value, key: str) -> str:
    if not isinstance(value, str):
        raise SchemaError(key, "expected a string")
    return value


def _object(value, key: str, keys) -> dict:
    """``value`` as an object holding only ``keys``; nested members go by ``key.name``."""
    if not isinstance(value, dict):
        what = "a JSON object" if key == "document" else "an object"
        raise SchemaError(key, f"expected {what}")
    prefix = "" if key == "document" else f"{key}."
    for name in value:
        if name not in keys:
            raise SchemaError(prefix + name, "unknown key")
    return value


def _expression(data: dict, key: str, parameters: dict[str, float]) -> Expr:
    """The expression text under ``key``, parsed; a parse error names the key."""
    try:
        return parse_expression(_string(data[key], key), parameters)
    except ParseError as err:
        raise SchemaError(key, f"{err.reason} (offset {err.offset})") from err


def _build(cls, *args, **kwargs):
    """Construct a library object; its keyed domain errors name the field."""
    try:
        return cls(*args, **kwargs)
    except DomainError as err:
        raise SchemaError(err.key, str(err)) from err


def problem_from_dict(data) -> ProblemFile:
    """Validate a decoded problem document and build the problem."""
    _object(data, "document", _TOP_KEYS)
    for key in _REQUIRED_KEYS:
        if key not in data:
            raise SchemaError(key, "missing required key")

    raw_psi = _object(data["psi"], "psi", ("kind", "rho"))
    rho = _number(raw_psi["rho"], "psi.rho") if "rho" in raw_psi else 1.0
    psi = _build(PsiMap, raw_psi.get("kind"), rho)
    alpha = _number(data["alpha"], "alpha")
    beta = _number(data["beta"], "beta")
    order = _build(FracOrder, alpha, beta)
    a = _number(data["a"], "a")
    T = _number(data["T"], "T")
    y_a = _number(data["y_a"], "y_a")

    parameters: dict[str, float] = {}
    raw_params = data.get("parameters", {})
    if not isinstance(raw_params, dict):
        raise SchemaError("parameters", "expected an object")
    for name, value in raw_params.items():
        if not name.isidentifier():
            raise SchemaError(f"parameters.{name}", "not a usable name")
        if name in RESERVED_NAMES:
            raise SchemaError(f"parameters.{name}", "shadows a reserved name")
        parameters[name] = _number(value, f"parameters.{name}")

    rhs = _expression(data, "rhs", parameters)

    lipschitz = None
    if "lipschitz" in data:
        raw_lip = _object(data["lipschitz"], "lipschitz", ("k", "l"))
        if "k" not in raw_lip or "l" not in raw_lip:
            # half a pair would silently assert the other slope is zero
            raise SchemaError("lipschitz", "k and l must be given together")
        k = _number(raw_lip["k"], "lipschitz.k")
        l = _number(raw_lip["l"], "lipschitz.l")
        lipschitz = (k, l)

    phi = None
    if "phi" in data:
        phi = _expression(data, "phi", parameters)
        if free_variables(phi) - {"t"}:
            raise SchemaError("phi", "may only depend on t")

    lambda_phi = None
    if "lambda_phi" in data:
        if phi is None:
            raise SchemaError("lambda_phi", "requires phi")
        lambda_phi = _number(data["lambda_phi"], "lambda_phi")
        if lambda_phi <= 0.0:
            raise SchemaError("lambda_phi", "must be positive")

    problem = _build(
        CauchyProblem, psi=psi, order=order, a=a, T=T, y_a=y_a,
        rhs=rhs, lipschitz=lipschitz,
    )
    return ProblemFile(problem=problem, phi=phi, lambda_phi=lambda_phi)


def load_problem(path: str) -> ProblemFile:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except UnicodeDecodeError as err:
        raise SchemaError("document", f"not UTF-8: {err}") from err
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as err:  # syntax, huge integers, deep nesting
        raise SchemaError("document", f"not valid JSON: {err}") from err
    return problem_from_dict(data)


# ---------------------------------------------------------------------------
# shared command helpers

def _num15(x: float) -> str:
    return format(x, ".15g")


@contextmanager
def _output(path: str | None) -> Iterator[TextIO]:
    """The stream a command writes its CSV to: the file ``path``, created
    here, or stdout, flushed at the end so that a closed pipe or a full
    disk fails the write itself."""
    if path is None:
        yield sys.stdout
        sys.stdout.flush()
    else:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            yield handle


def _drop_unwritable_stdout() -> None:
    """Point stdout at the null device when its pending bytes cannot be
    written (a closed pipe, a full disk), so that the interpreter's last
    flush does not report the failure a second time."""
    try:
        sys.stdout.flush()
    except OSError:
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)


def _note(message: str) -> None:
    print(message, file=sys.stderr)


def _grading_from(arg: str, order: FracOrder) -> float:
    if arg == "auto":
        return default_grading(order)
    try:
        return float(arg)
    except ValueError:
        raise DomainError(f"grade must be a number or 'auto', got {arg!r}") from None


def _usable_lipschitz(p: CauchyProblem) -> tuple[CauchyProblem, str | None]:
    """The problem with the constants in force, and where they come from.

    Declared constants stay; otherwise an advisory estimate is put on the
    problem.  The source is ``None`` when neither is usable.
    """
    if p.lipschitz is not None:
        return p, "declared"
    try:
        k, l = estimate_lipschitz(p)
    except (EstimationError, DomainError) as err:
        _note(f"note: Lipschitz estimation failed: {err}")
        return p, None
    if not l < 1.0:
        _note(f"note: estimated l = {_num15(l)} is not below 1; constants unusable")
        return p, None
    return replace(p, lipschitz=(k, l)), "estimated"


def _lambda_phi(pf: ProblemFile, mesh: Mesh) -> tuple[float, float, bool | None]:
    """``lambda_phi_in_force``, with a warning when the estimate takes over."""
    lam_hat, lam_used, sound = lambda_phi_in_force(
        pf.problem, pf.phi, pf.lambda_phi, mesh
    )
    if sound is False:
        _note(
            f"warning: declared lambda_phi = {_num15(pf.lambda_phi)} is below "
            f"the mesh estimate {_num15(lam_hat)}; using the estimate"
        )
    return lam_hat, lam_used, sound


# ---------------------------------------------------------------------------
# subcommands

#: The ``specfun`` subcommand's functions and their arities.
_SPECFUNS = {"gamma": (gamma_fn, 1), "erf": (erf_fn, 1), "ml": (mittag_leffler, 2)}


def cmd_specfun(args) -> int:
    fn, arity = _SPECFUNS[args.function]
    if len(args.values) != arity:
        _note(f"error: {args.function} takes {arity} argument(s)")
        return 2
    print(format(fn(*args.values), ".12g"))
    return 0


#: Rows that ``solution_to_csv`` formats, and writes, at a time.
CSV_CHUNK_ROWS = 256


def solution_to_csv(sol: Solution, p: CauchyProblem, stream: TextIO) -> None:
    """Nodewise CSV of the solve, written to ``stream`` ``CSV_CHUNK_ROWS``
    rows at a time.

    ``y_weighted`` is the stored representation; ``y`` is the plain value
    where it exists.  When the solution blows up at t = a the first row's
    ``g`` and ``y`` carry the finite weighted limits and ``limit_flag``
    is 1 there.
    """
    mesh = sol.y.mesh
    w = p.order.weight
    g, y_weighted = sol.g.values, sol.y.values
    y, flags = y_weighted, "0" * (mesh.n + 1)  # limit_flag, one character a row
    if w > 0.0:
        # Python's scalar power: numpy's array power differs in the last bit;
        # the scale is 1 at t = a, where the row keeps its weighted limits
        powers = (x ** (-w) for x in map(float, mesh.offsets[1:]))
        scale = np.fromiter(itertools.chain([1.0], powers), float, mesh.n + 1)
        g, y = g * scale, y_weighted * scale
        flags = "1" + "0" * mesh.n
    columns = (mesh.nodes, mesh.psi_nodes, g, y_weighted, y)
    row = "{:.15g},{:.15g},{:.15g},{:.15g},{:.15g},{}\n".format
    stream.write("t,psi_t,g,y_weighted,y,limit_flag\n")
    for lo in range(0, mesh.n + 1, CSV_CHUNK_ROWS):
        hi = lo + CSV_CHUNK_ROWS
        stream.write("".join(map(row, *(c[lo:hi].tolist() for c in columns), flags[lo:hi])))


def cmd_solve(args) -> int:
    pf = load_problem(args.problem)
    p = pf.problem
    mesh = build_mesh(p.psi, p.a, p.T, args.n, _grading_from(args.grade, p.order))
    p, source = _usable_lipschitz(p)
    sol = picard_solve(p, mesh, max_iter=args.max_iter)
    with _output(args.out) as stream:
        solution_to_csv(sol, p, stream)
    update = sol.update_norms[-1]
    _note(f"iterations: {sol.iterations}")
    _note(f"final update norm: {_num15(update)}")
    if source is None:
        _note("contraction factor: unavailable")
        return 0
    # the factor and the bound come from the constants, not from the solve
    factor = certify_unique(p).factor
    _note(f"contraction factor: {_num15(factor)} ({source})")
    if factor < 1.0:
        _note(f"a posteriori bound: {_num15(update * factor / (1.0 - factor))}")
    return 0


def cmd_certify(args) -> int:
    pf = load_problem(args.problem)
    p, source = _usable_lipschitz(pf.problem)
    if source is None:
        _note("error: no usable Lipschitz constants; declare them in the file")
        return 2
    unique = certify_unique(p)
    k, l = p.lipschitz
    info: dict[str, object] = {
        "certified": unique.certified,
        "ratio": unique.ratio,
        "factor": unique.factor,
        "k": k,
        "l": l,
        "lipschitz_source": source,
    }
    if unique.certified:
        info["c_f_uh"] = StabilityCertificate.ulam_hyers(p).c_f
        if pf.phi is not None:
            # lambda_phi is estimated on a mesh of the default solve size
            mesh = build_mesh(p.psi, p.a, p.T, 256, default_grading(p.order))
            lam_hat, lam_used, sound = _lambda_phi(pf, mesh)
            info["lambda_phi_hat"] = lam_hat
            info["lambda_phi_used"] = lam_used
            if pf.lambda_phi is not None:
                info["lambda_phi_declared"] = pf.lambda_phi
                info["lambda_phi_sound"] = sound
            info["c_f_uhr"] = StabilityCertificate.ulam_hyers_rassias(
                p, pf.phi, lam_used
            ).c_f
    if args.json:
        print(json.dumps(info, indent=2, sort_keys=True))
    else:
        print(f"ratio: {_num15(unique.ratio)}")
        print(f"factor: {_num15(unique.factor)}")
        print(f"verdict: {'certified' if unique.certified else 'not certified'}")
        print(f"constants: k={_num15(k)}, l={_num15(l)} ({source})")
        if unique.certified:
            print(f"c_f (plain): {_num15(info['c_f_uh'])}")
            if pf.phi is not None:
                print(f"lambda_phi estimate: {_num15(info['lambda_phi_hat'])}")
                if pf.lambda_phi is not None:
                    tag = "sound" if info["lambda_phi_sound"] else "too small"
                    print(
                        f"lambda_phi declared: {_num15(pf.lambda_phi)} ({tag})"
                    )
                print(f"c_f (comparison-weighted): {_num15(info['c_f_uhr'])}")
    return 0 if unique.certified else 4


def cmd_perturb(args) -> int:
    pf = load_problem(args.problem)
    # the options are refused before any numeric work
    spec = PerturbationSpec(
        epsilon=args.epsilon, shape=args.shape, trials=args.trials, seed=args.seed
    )
    spec.check_shape(pf.phi)
    p, source = _usable_lipschitz(pf.problem)
    if source is None:
        _note("error: no usable Lipschitz constants; declare them in the file")
        return 2
    unique = certify_unique(p)
    if not unique.certified:
        _note(f"not certified: ratio {_num15(unique.ratio)} is not below 1")
        return 4
    mesh = build_mesh(p.psi, p.a, p.T, args.n, default_grading(p.order))
    if pf.phi is not None:
        _, lam_used, _ = _lambda_phi(pf, mesh)
        cert = StabilityCertificate.ulam_hyers_rassias(p, pf.phi, lam_used)
    else:
        cert = StabilityCertificate.ulam_hyers(p)
    report = perturb_and_check(p, cert, spec, mesh)
    with _output(args.out) as stream:
        stream.write(report_to_csv(report))
    _note(
        f"{cert.kind}: c_f={_num15(cert.c_f)} max_ratio={_num15(report.max_ratio)} "
        f"verdict={'pass' if report.passed else 'fail'}"
    )
    return 0 if report.passed else 5


def cmd_verify_ops(args) -> int:
    psi = "logarithm" if args.psi == "log" else args.psi
    families = PSI_KINDS if psi is None else (psi,)
    try:
        n_list = tuple(int(part) for part in args.n_list.split(",") if part)
    except ValueError:
        _note(f"error: bad --n-list {args.n_list!r}")
        return 2
    if not n_list:
        _note("error: --n-list is empty")
        return 2
    report = run_operator_checks(families=families, n_list=n_list)
    print(f"{'family':<10} {'check':<28} {'n':>5}  residual")
    for row in report.rows:
        print(f"{row.family:<10} {row.check:<28} {row.n:>5}  {row.residual:.3e}")
    if report.slopes:
        print()
        print(f"{'family':<10} {'check':<28} slope")
        for (fam, check), slope in sorted(report.slopes.items()):
            print(f"{fam:<10} {check:<28} {slope:.3f}")
    for note in report.notes:
        print(f"note: {note}")
    for failure in report.failures:
        print(f"FAIL: {failure}")
    if args.report is not None:
        with _output(args.report) as stream:
            stream.write("family,check,n,residual\n")
            for row in report.rows:
                stream.write(f"{row.family},{row.check},{row.n},{_num15(row.residual)}\n")
            stream.write("\nfamily,check,slope\n")
            for (fam, check), slope in sorted(report.slopes.items()):
                stream.write(f"{fam},{check},{_num15(slope)}\n")
    return 0 if report.passed else 5


# ---------------------------------------------------------------------------
# parser wiring

class _Parser(argparse.ArgumentParser):
    """Reads ``-1e-3`` and ``-inf`` as negative numbers, not options:
    argparse's own pattern knows only ``-2`` and ``-2.5``.  Subcommand
    parsers inherit it."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-((\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf|infinity|nan)$", re.IGNORECASE
        )


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fracstab",
        description="Solve and certify weighted fractional Cauchy problems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fun = sub.add_parser("specfun", help="evaluate a special function")
    p_fun.add_argument("function", choices=_SPECFUNS)
    p_fun.add_argument("values", type=float, nargs="+")
    p_fun.set_defaults(func=cmd_specfun)

    p_solve = sub.add_parser("solve", help="solve a problem file to CSV")
    p_solve.add_argument("problem")
    p_solve.add_argument("--n", type=int, default=256)
    p_solve.add_argument("--max-iter", type=int, default=200)
    p_solve.add_argument("--grade", default="auto")
    p_solve.add_argument("--out", default=None)
    p_solve.set_defaults(func=cmd_solve)

    p_cert = sub.add_parser("certify", help="print the uniqueness/stability certificate")
    p_cert.add_argument("problem")
    p_cert.add_argument("--json", action="store_true")
    p_cert.set_defaults(func=cmd_certify)

    p_pert = sub.add_parser("perturb", help="run the perturbation harness")
    p_pert.add_argument("problem")
    p_pert.add_argument("--n", type=int, default=256)
    p_pert.add_argument("--epsilon", type=float, default=0.01)
    p_pert.add_argument("--trials", type=int, default=20)
    p_pert.add_argument("--seed", type=int, default=0)
    p_pert.add_argument("--shape", choices=PERTURBATION_SHAPES, default="random_bounded")
    p_pert.add_argument("--out", default=None)
    p_pert.set_defaults(func=cmd_perturb)

    p_ops = sub.add_parser("verify-ops", help="run the operator oracle suite")
    p_ops.add_argument("--n-list", default="64,128,256,512")
    p_ops.add_argument("--psi", choices=sorted((*PSI_KINDS, "log")), default=None)
    p_ops.add_argument("--report", default=None)
    p_ops.set_defaults(func=cmd_verify_ops)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe or a full disk fails here, not at exit
        return code
    except NonConvergenceError as err:
        _note(f"error: {err}")
        return 3
    except (FracstabError, OSError) as err:
        _note(f"error: {err}")
        _drop_unwritable_stdout()
        return 2


if __name__ == "__main__":
    sys.exit(main())
