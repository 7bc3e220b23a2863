"""Operator mutation audit of the certificate path.

    python3 tools/mutants.py

Each mutant flips one operator in one of the functions of ``TARGETS``:
``+`` and ``-``, ``*`` and ``/``, ``<`` and ``<=``, ``>`` and ``>=`` (also in
augmented assignments such as ``+=``).  For every mutant the script writes
the mutated module into a temporary copy of the tree (``src/`` itself is
never touched) and runs the four test files of ``SELECTION`` there, with
``-x`` and a timeout of ``TIMEOUT`` seconds.  A mutant that fails the
selection or runs out of time is killed.

Then it prints each survivor as ``file:line:operator`` with its
expression, and exits 1 if any mutant survived.  There is no allow list:
a survivor is killed by a new test, or the code it mutates is deleted
when no output depends on it.

The full audit runs one pytest session per mutant, about three minutes
for its 74 mutants on a 2-vCPU x86_64 VM, so it is run by hand, never by
the test suite.  Standard library only.
"""

from __future__ import annotations

import ast
import bisect
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "fracstab"

#: Module of the package -> qualified names of the functions mutated there.
TARGETS = {
    "solver.py": ("certify_unique", "picard_solve", "_reconstruct_y", "_lift_weighted"),
    "stability.py": (
        "StabilityCertificate.ulam_hyers", "StabilityCertificate.ulam_hyers_rassias",
        "_phi_values", "estimate_lambda_phi", "lambda_phi_in_force", "perturb_and_check",
        "_draw_perturbation", "_smooth_noise",
    ),
}
SELECTION = ("tests/test_stability.py", "tests/test_solver.py", "tests/test_cli.py",
             "tests/test_acceptance.py")
#: Seconds one run of the selection may take before its mutant counts as killed.
TIMEOUT = 600.0

_FLIP = {"+": "-", "-": "+", "*": "/", "/": "*", "<": "<=", "<=": "<", ">": ">=", ">=": ">"}
_BINARY = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/"}
_COMPARE = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">="}


class Mutant(NamedTuple):
    function: str
    line: int
    old: str  # the operator as written, e.g. "<=" or "+="
    new: str
    expression: str  # the source of the mutated node, on one line
    source: str  # the whole mutated module


def _functions(tree: ast.Module):
    """(qualified name, node) of every top-level function and method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{item.name}", item


def _sites(node: ast.AST):
    """(operator, its flip, node before it, node after it) for each
    mutable operator of ``node``."""
    if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
        op = _BINARY[type(node.op)]
        yield op, _FLIP[op], node.left, node.right
    elif isinstance(node, ast.AugAssign) and type(node.op) in _BINARY:
        op = _BINARY[type(node.op)]
        yield op + "=", _FLIP[op] + "=", node.target, node.value
    elif isinstance(node, ast.Compare):
        operands = [node.left, *node.comparators]
        for k, op in enumerate(node.ops):
            if type(op) in _COMPARE:
                op = _COMPARE[type(op)]
                yield op, _FLIP[op], operands[k], operands[k + 1]


def mutants(source: str, functions) -> list[Mutant]:
    """Every single-operator mutant of ``functions`` (qualified names) in ``source``.

    The operator is replaced in the text between its two operands, so the
    mutant keeps every other byte and every line number of the module.
    """
    data = source.encode()
    starts = [0]
    for line in data.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))

    def offset(line: int, col: int) -> int:  # ast columns count UTF-8 bytes
        return starts[line - 1] + col

    wanted = set(functions)
    tree = ast.parse(source)
    found = {name: node for name, node in _functions(tree) if name in wanted}
    missing = wanted - set(found)
    if missing:
        raise LookupError(f"no function named {', '.join(sorted(missing))}")
    out = []
    for name in functions:
        for node in ast.walk(found[name]):
            for op, new, left, right in _sites(node):
                lo = offset(left.end_lineno, left.end_col_offset)
                hi = offset(right.lineno, right.col_offset)
                gap = re.sub(rb"#[^\n]*", lambda m: b" " * len(m.group()), data[lo:hi])
                hits = [m.start() for m in re.finditer(re.escape(op.encode()), gap)]
                if len(hits) != 1:
                    raise ValueError(f"line {node.lineno}: cannot place {op!r} in {gap!r}")
                at = lo + hits[0]
                text = (data[:at] + new.encode() + data[at + len(op):]).decode()
                expression = " ".join(ast.get_source_segment(source, node).split())
                line = bisect.bisect_right(starts, at)
                out.append(Mutant(name, line, op, new, expression, text))
    out.sort(key=lambda m: m.line)
    return out


def _pytest(tree: Path, tests: list[str]) -> str:
    """'passed', 'failed' or 'timeout' for one run of the selection in ``tree``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        proc = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True,
                              timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return "timeout"
    if proc.returncode == 0:
        return "passed"
    if proc.returncode in (1, 2):  # failed, or interrupted by a collection error
        return "failed"
    raise SystemExit(f"pytest exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")


def main() -> int:
    plan = [(file, m) for file, names in TARGETS.items()
            for m in mutants((ROOT / PACKAGE / file).read_text(encoding="utf-8"), names)]
    survivors = []
    with tempfile.TemporaryDirectory(prefix="mutants-") as scratch:
        tree = Path(scratch) / "tree"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis"))
        if _pytest(tree, list(SELECTION)) != "passed":
            raise SystemExit("the selection fails on the unmutated tree")
        for k, (file, m) in enumerate(plan, 1):
            path = tree / PACKAGE / file
            original = path.read_text(encoding="utf-8")
            path.write_text(m.source, encoding="utf-8")
            try:
                verdict = _pytest(tree, list(SELECTION))
            finally:
                path.write_text(original, encoding="utf-8")
            print(f"[{k}/{len(plan)}] {file}:{m.line}:{m.old}->{m.new} {verdict}",
                  file=sys.stderr, flush=True)
            if verdict == "passed":
                survivors.append((file, m))

    for file, m in survivors:
        print(f"{PACKAGE / file}:{m.line}:{m.old}->{m.new}  {m.function}: {m.expression}")
    print(f"{len(plan)} mutants, {len(plan) - len(survivors)} killed, "
          f"{len(survivors)} survived")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
