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
import json
import math
import sys
from dataclasses import dataclass, replace

from .errors import (
    CertificationError,
    DomainError,
    EstimationError,
    FracstabError,
    NonConvergenceError,
    ParseError,
    SchemaError,
)
from .fraccalc import run_operator_checks
from .psi_space import PSI_KINDS, FracOrder, Mesh, PsiMap, build_mesh
from .rhs_expr import Expr, RESERVED_NAMES, free_variables, parse_expression
from .solver import (
    CauchyProblem,
    Solution,
    certify_unique,
    default_grading,
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
    out = float(value)
    if not math.isfinite(out):
        raise SchemaError(key, "must be finite")
    return out


def _string(value, key: str) -> str:
    if not isinstance(value, str):
        raise SchemaError(key, "expected a string")
    return value


def _build(cls, *args, **kwargs):
    """Construct a library object; its keyed domain errors name the field."""
    try:
        return cls(*args, **kwargs)
    except DomainError as err:
        raise SchemaError(err.key, str(err)) from err


def problem_from_dict(data) -> ProblemFile:
    """Validate a decoded problem document and build the problem."""
    if not isinstance(data, dict):
        raise SchemaError("document", "expected a JSON object")
    for key in data:
        if key not in _TOP_KEYS:
            raise SchemaError(key, "unknown key")
    for key in _REQUIRED_KEYS:
        if key not in data:
            raise SchemaError(key, "missing required key")

    raw_psi = data["psi"]
    if not isinstance(raw_psi, dict):
        raise SchemaError("psi", "expected an object")
    for key in raw_psi:
        if key not in ("kind", "rho"):
            raise SchemaError(f"psi.{key}", "unknown key")
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

    try:
        rhs = parse_expression(_string(data["rhs"], "rhs"), parameters)
    except ParseError as err:
        raise SchemaError("rhs", f"{err.reason} (offset {err.offset})") from err

    lipschitz = None
    if "lipschitz" in data:
        raw_lip = data["lipschitz"]
        if not isinstance(raw_lip, dict):
            raise SchemaError("lipschitz", "expected an object")
        for key in raw_lip:
            if key not in ("k", "l"):
                raise SchemaError(f"lipschitz.{key}", "unknown key")
        if "k" not in raw_lip or "l" not in raw_lip:
            # half a pair would silently assert the other slope is zero
            raise SchemaError("lipschitz", "k and l must be given together")
        k = _number(raw_lip["k"], "lipschitz.k")
        l = _number(raw_lip["l"], "lipschitz.l")
        lipschitz = (k, l)

    phi = None
    if "phi" in data:
        try:
            phi = parse_expression(_string(data["phi"], "phi"), parameters)
        except ParseError as err:
            raise SchemaError("phi", f"{err.reason} (offset {err.offset})") from err
        extra = free_variables(phi) - {"t"}
        if extra:
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
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise SchemaError("document", f"not valid JSON: {err}") from err
    return problem_from_dict(data)


# ---------------------------------------------------------------------------
# shared command helpers

def _num15(x: float) -> str:
    return format(x, ".15g")


def _write_out(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


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
    except (EstimationError, NonConvergenceError, DomainError) as err:
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

def cmd_specfun(args) -> int:
    arity = {"gamma": 1, "erf": 1, "ml": 2}[args.function]
    if len(args.values) != arity:
        _note(f"error: {args.function} takes {arity} argument(s)")
        return 2
    if args.function == "gamma":
        value = gamma_fn(args.values[0])
    elif args.function == "erf":
        value = erf_fn(args.values[0])
    else:
        value = mittag_leffler(args.values[0], args.values[1])
    print(format(value, ".12g"))
    return 0


def solution_to_csv(sol: Solution, p: CauchyProblem) -> str:
    """Nodewise CSV of the solve.

    ``y_weighted`` is the stored representation; ``y`` is the plain value
    where it exists.  When the solution blows up at t = a the first row's
    ``g`` and ``y`` carry the finite weighted limits and ``limit_flag``
    is 1 there.
    """
    mesh = sol.y.mesh
    w = p.order.weight
    dx = mesh.offsets
    lines = ["t,psi_t,g,y_weighted,y,limit_flag"]
    for i in range(mesh.n + 1):
        if w > 0.0 and i > 0:
            g_val = sol.g.values[i] * dx[i] ** (-w)
            y_val = sol.y.values[i] * dx[i] ** (-w)
        else:
            g_val = sol.g.values[i]
            y_val = sol.y.values[i]
        flag = 1 if (w > 0.0 and i == 0) else 0
        lines.append(
            f"{_num15(mesh.nodes[i])},{_num15(mesh.psi_nodes[i])},"
            f"{_num15(g_val)},{_num15(sol.y.values[i])},{_num15(y_val)},{flag}"
        )
    return "\n".join(lines) + "\n"


def cmd_solve(args) -> int:
    pf = load_problem(args.problem)
    p = pf.problem
    mesh = build_mesh(p.psi, p.a, p.T, args.n, _grading_from(args.grade, p.order))
    p, source = _usable_lipschitz(p)
    sol = picard_solve(p, mesh, max_iter=args.max_iter)
    _write_out(solution_to_csv(sol, p), args.out)
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
    spec = PerturbationSpec(
        epsilon=args.epsilon, shape=args.shape, trials=args.trials, seed=args.seed
    )
    report = perturb_and_check(p, cert, spec, mesh)
    _write_out(report_to_csv(report), args.out)
    _note(
        f"{cert.kind}: c_f={_num15(cert.c_f)} max_ratio={_num15(report.max_ratio)} "
        f"verdict={'pass' if report.passed else 'fail'}"
    )
    return 0 if report.passed else 5


_PSI_ALIASES = {
    "identity": "identity",
    "log": "logarithm",
    "logarithm": "logarithm",
    "power": "power",
}


def cmd_verify_ops(args) -> int:
    if args.psi is None:
        families = PSI_KINDS
    else:
        families = (_PSI_ALIASES[args.psi],)
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
        lines = ["family,check,n,residual"]
        for row in report.rows:
            lines.append(
                f"{row.family},{row.check},{row.n},{_num15(row.residual)}"
            )
        lines.append("")
        lines.append("family,check,slope")
        for (fam, check), slope in sorted(report.slopes.items()):
            lines.append(f"{fam},{check},{_num15(slope)}")
        _write_out("\n".join(lines) + "\n", args.report)
    return 0 if report.passed else 5


# ---------------------------------------------------------------------------
# parser wiring

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracstab",
        description="Solve and certify weighted fractional Cauchy problems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fun = sub.add_parser("specfun", help="evaluate a special function")
    p_fun.add_argument("function", choices=("gamma", "erf", "ml"))
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
    p_ops.add_argument("--psi", choices=tuple(_PSI_ALIASES), default=None)
    p_ops.add_argument("--report", default=None)
    p_ops.set_defaults(func=cmd_verify_ops)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NonConvergenceError as err:
        _note(f"error: {err}")
        return 3
    except CertificationError as err:
        _note(f"error: {err}")
        return 4
    except (FracstabError, OSError) as err:
        _note(f"error: {err}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
