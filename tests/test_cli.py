"""Problem-file loading, subcommand behavior, and exit codes."""

import io
import json
import math
import os
import subprocess
import sys
import tracemalloc

import jsonschema
import pytest

from fracstab import fraccalc
from fracstab.cli import (
    CSV_CHUNK_ROWS, _num15, _usable_lipschitz, load_problem, main, problem_from_dict,
    solution_to_csv,
)
from fracstab.errors import SchemaError
from fracstab.psi_space import PSI_KINDS, build_mesh, default_grading
from fracstab.rhs_expr import MAX_DEPTH
from fracstab.solver import certify_unique, picard_solve

from conftest import PROBLEMS, ROOT, load_example

BASE_DOC = {
    "psi": {"kind": "identity"},
    "alpha": 0.5,
    "beta": 1.0,
    "a": 0.0,
    "T": 1.0,
    "y_a": 1.0,
    "rhs": "0.5*y",
}


def mutate(**changes):
    doc = {k: (v.copy() if isinstance(v, dict) else v) for k, v in BASE_DOC.items()}
    for key, value in changes.items():
        if value is _DROP:
            doc.pop(key, None)
        else:
            doc[key] = value
    return doc


_DROP = object()

REJECTIONS = [
    (["not", "an", "object"], "document"),
    (mutate(volume=1.0), "volume"),
    (mutate(rhs=_DROP), "rhs"),
    (mutate(psi=[1, 2]), "psi"),
    (mutate(psi={"kind": "spiral"}), "psi.kind"),
    (mutate(psi={"kind": "identity", "frequency": 2.0}), "psi.frequency"),
    (mutate(psi={"kind": "power", "rho": -1.0}), "psi.rho"),
    (mutate(alpha=1.5), "alpha"),
    (mutate(alpha=True), "alpha"),
    (mutate(beta="half"), "beta"),
    (mutate(T=-1.0), "T"),
    (mutate(y_a=None), "y_a"),
    (mutate(rhs=17), "rhs"),
    (mutate(rhs="0.5*"), "rhs"),
    (mutate(rhs="0.5*z"), "rhs"),
    (mutate(lipschitz={"k": 0.1}), "lipschitz"),
    (mutate(lipschitz={"k": 0.1, "l": 1.0}), "lipschitz.l"),
    (mutate(lipschitz={"k": -0.1, "l": 0.0}), "lipschitz.k"),
    (mutate(lipschitz={"k": 0.1, "l": 0.1, "m": 0.1}), "lipschitz.m"),
    (mutate(parameters={"t": 1.0}), "parameters.t"),
    (mutate(parameters={"1x": 1.0}), "parameters.1x"),
    (mutate(parameters={"c": "fast"}), "parameters.c"),
    (mutate(phi="y + 1"), "phi"),
    (mutate(lambda_phi=1.0), "lambda_phi"),
    (mutate(phi="t", lambda_phi=0.0), "lambda_phi"),
    (mutate(psi={"kind": "logarithm"}, a=0.5, T=2.0), "a"),
    (mutate(beta=1.5), "beta"),
    (mutate(T=0.0), "T"),
    (mutate(psi={"kind": "power", "rho": 2.0}, a=-1.0), "a"),
    (mutate(psi={}), "psi.kind"),
]


@pytest.mark.parametrize("doc,key", REJECTIONS)
def test_schema_rejections_name_the_key(doc, key):
    with pytest.raises(SchemaError) as info:
        problem_from_dict(doc)
    assert info.value.key == key
    assert f"key '{key}'" in str(info.value)


def test_document_must_be_valid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{ nope")
    with pytest.raises(SchemaError) as info:
        load_problem(str(path))
    assert info.value.key == "document"


@pytest.mark.parametrize(
    "key,name,digits",
    # 1 and 400 zeros lies beyond double range; 5000 digits pass Python's
    # integer string conversion limit, which json.loads enforces
    [("T", "T", 400), ("parameters.lam", "lam", 400), ("document", "T", 5000)],
)
def test_numbers_json_cannot_hold_as_doubles_are_refused(capsys, tmp_path, key, name, digits):
    text = json.dumps(mutate(T=0, parameters={"lam": 0}))
    path = tmp_path / "huge.json"
    path.write_text(text.replace(f'"{name}": 0', f'"{name}": 1' + "0" * digits))
    assert main(["solve", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    reason = "not valid JSON: " if key == "document" else "must be finite\n"
    assert captured.err.startswith(f"error: key '{key}': {reason}")
    assert len(captured.err.splitlines()) == 1


def test_document_nested_past_the_recursion_limit_is_refused(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    assert main(["solve", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: key 'document': not valid JSON: ")
    assert len(captured.err.splitlines()) == 1


def test_document_must_be_utf8(capsys, tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b"\xff")
    assert main(["solve", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: key 'document': not UTF-8: ")
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize(
    "doc,key,reason",
    [
        (["not", "an", "object"], "document", "expected a JSON object"),
        (mutate(volume=1.0), "volume", "unknown key"),
        (mutate(psi=[1, 2]), "psi", "expected an object"),
        (mutate(psi={"kind": "identity", "frequency": 2.0}), "psi.frequency", "unknown key"),
        (mutate(parameters=[1.0]), "parameters", "expected an object"),
        (mutate(lipschitz=[0.1, 0.0]), "lipschitz", "expected an object"),
        (mutate(lipschitz={"k": 0.1, "l": 0.1, "m": 0.1}), "lipschitz.m", "unknown key"),
        (mutate(rhs="0.5*"), "rhs", "expected a number, name, or '(' (offset 4)"),
        (mutate(phi="sqrt(t"), "phi", "expected ')' to close the argument list (offset 6)"),
    ],
)
def test_schema_rejections_give_the_reason(doc, key, reason):
    with pytest.raises(SchemaError) as info:
        problem_from_dict(doc)
    assert str(info.value) == f"key '{key}': {reason}"


def test_json_nan_is_not_a_number(tmp_path):
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(BASE_DOC).replace('"alpha": 0.5', '"alpha": NaN'))
    with pytest.raises(SchemaError) as info:
        load_problem(str(path))
    assert str(info.value) == "key 'alpha': must be finite"


def test_all_bundled_problems_load():
    for i in range(1, 8):
        pf = load_problem(str(PROBLEMS / f"example{i}.json"))
        assert pf.problem.T > pf.problem.a
        assert pf.problem.lipschitz is not None
    ex3 = load_problem(str(PROBLEMS / "example3.json"))
    assert ex3.problem.psi.kind == "logarithm"
    ex5 = load_problem(str(PROBLEMS / "example5.json"))
    assert ex5.phi is not None and ex5.lambda_phi is not None
    ex7 = load_problem(str(PROBLEMS / "example7.json"))
    assert ex7.problem.psi.kind == "power"
    assert ex7.problem.order.beta == 1.0


def test_bundled_problems_match_published_schema():
    schema = json.loads((ROOT / "docs" / "problem.schema.json").read_text())
    validator = jsonschema.Draft202012Validator(schema)
    for i in range(1, 8):
        doc = json.loads((PROBLEMS / f"example{i}.json").read_text())
        validator.validate(doc)
    # the schema rejects the same malformed documents the loader does
    for doc in (
        mutate(volume=1.0),
        mutate(rhs=_DROP),
        mutate(lambda_phi=1.0),
        mutate(lipschitz={"k": 0.1}),
    ):
        assert not validator.is_valid(doc)
    # the schema and the library list the same reparametrisations
    kinds = schema["properties"]["psi"]["properties"]["kind"]["enum"]
    assert tuple(kinds) == PSI_KINDS


def test_specfun_command(capsys):
    assert main(["specfun", "gamma", "0.5"]) == 0
    assert capsys.readouterr().out.strip() == "1.77245385091"
    assert main(["specfun", "ml", "0.5", "1"]) == 0
    assert capsys.readouterr().out.strip() == "5.00898008076"
    assert main(["specfun", "erf", "1"]) == 0
    assert capsys.readouterr().out.strip() == "0.84270079295"


def test_specfun_erf_far_argument(capsys):
    for z in ("1e308", "377907250.05459607"):
        assert main(["specfun", "erf", z]) == 0
        assert capsys.readouterr().out == "1\n"


def test_specfun_negative_values_with_exponent(capsys):
    # argparse's own pattern takes "-1e308" for an option
    assert main(["specfun", "erf", "-1e308"]) == 0
    assert capsys.readouterr().out == "-1\n"
    assert main(["specfun", "ml", "0.5", "-1e-3"]) == 0
    assert capsys.readouterr().out == "0.998872620081\n"
    assert main(["specfun", "erf", "-.5E+0"]) == 0
    assert capsys.readouterr().out == "-0.520499877813\n"
    # a non-finite value reaches the function's own check
    assert main(["specfun", "erf", "-inf"]) == 2
    assert capsys.readouterr().err == "error: erf_fn requires a finite argument, got -inf\n"


def test_negative_exponent_option_value_reaches_validation(capsys):
    code = main(["perturb", str(PROBLEMS / "example1.json"), "--epsilon", "-1e-3"])
    assert code == 2
    assert capsys.readouterr().err == "error: epsilon must be positive, got -0.001\n"


def test_package_runs_as_module():
    # `python -m fracstab` goes through the package's __main__ without the
    # runpy warning that re-executing an already imported module gives
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "fracstab",
         "specfun", "gamma", "0.5"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "1.77245385091"


def test_specfun_overflowing_series_exits_cleanly():
    # at z = 30 the partial sums overflow and the Kahan step meets inf - inf;
    # the finiteness check reports it, and numpy prints no warning
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "fracstab",
         "specfun", "ml", "0.5", "30"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    (line,) = proc.stderr.splitlines()
    assert line.startswith("error: ") and "Traceback" not in proc.stderr


def test_specfun_error_paths(capsys):
    assert main(["specfun", "gamma", "1", "2"]) == 2
    assert main(["specfun", "gamma", "-1"]) == 2
    assert main(["specfun", "ml", "0.5", "100"]) == 2
    # the alternating series cancels every digit at -6; refused, not printed
    assert main(["specfun", "ml", "0.5", "-6"]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("x,shown", [("1e-320", "1e-320"), ("172", "172.0")])
def test_specfun_gamma_overflow_exits_two(capsys, x, shown):
    # gamma(x) passes the largest double above x = 171.62 and, as about
    # 1/x, below x = 5.6e-309
    assert main(["specfun", "gamma", x]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: gamma_fn({shown}) overflows double precision\n"


def test_rhs_gamma_overflow_names_gamma(capsys, tmp_path):
    # grading 130 puts the first node past a at 256**-130 = 2**-1040, where
    # gamma(t) overflows; the error names gamma_fn, not the product
    path = tmp_path / "gamma.json"
    path.write_text(json.dumps(mutate(
        beta=0.0, rhs="0.01*gamma(t)*y", lipschitz={"k": 0.05, "l": 0.0},
    )))
    assert main(["solve", str(path), "--n", "256", "--grade", "130"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: gamma_fn(8.487983164e-314) overflows double precision"
        " (at t = 8.487983164e-314)\n"
    )


def test_solve_csv_shape(capsys, tmp_path):
    out = tmp_path / "sol.csv"
    code = main([
        "solve", str(PROBLEMS / "example1.json"), "--n", "16",
        "--out", str(out),
    ])
    assert code == 0
    err = capsys.readouterr().err
    assert "iterations:" in err and "contraction factor:" in err
    lines = out.read_text().splitlines()
    assert lines[0] == "t,psi_t,g,y_weighted,y,limit_flag"
    assert len(lines) == 18
    first = lines[1].split(",")
    assert first[0] == "0" and first[-1] == "1"    # singular start flagged
    assert float(first[4]) == pytest.approx(0.5641895835477563, rel=1e-12)
    last = lines[-1].split(",")
    assert last[-1] == "0"


def test_solve_on_a_single_interval(capsys, tmp_path):
    # n = 1 leaves the weighted lift one node to extrapolate from
    out = tmp_path / "one.csv"
    assert main([
        "solve", str(PROBLEMS / "example1.json"), "--n", "1", "--out", str(out),
    ]) == 0
    capsys.readouterr()
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert len(rows) == 2
    assert all(math.isfinite(float(v)) for row in rows for v in row[:5])


def test_solve_regular_problem_has_no_flags(capsys, tmp_path):
    out = tmp_path / "sol2.csv"
    assert main([
        "solve", str(PROBLEMS / "example2.json"), "--n", "8",
        "--out", str(out),
    ]) == 0
    capsys.readouterr()
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert all(row[-1] == "0" for row in rows)
    # gamma = 1: stored and plain values coincide
    assert all(row[3] == row[4] for row in rows)


def test_solve_input_errors(capsys, tmp_path):
    assert main(["solve", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(mutate(alpha=2.0)))
    assert main(["solve", str(bad)]) == 2
    assert main([
        "solve", str(PROBLEMS / "example1.json"), "--grade", "steep",
    ]) == 2
    capsys.readouterr()


def test_solve_error_names_the_failing_node(capsys, tmp_path):
    # gamma's argument 0.55 - t first turns negative at node 14 of 16, at
    # t = (14/16)^4 on example 1's mesh, not at the first node
    doc = json.loads((PROBLEMS / "example1.json").read_text())
    doc["rhs"] = "0.1*gamma(0.55 - t)*y"
    path = tmp_path / "gamma.json"
    path.write_text(json.dumps(doc))
    assert main(["solve", str(path), "--n", "16"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: gamma_fn requires a finite x > 0, got -0.0361816406")
    at_t = float(captured.err.rsplit("(at t = ", 1)[1].rstrip(")\n"))
    assert at_t == pytest.approx((14 / 16) ** 4, rel=1e-12)


def test_solve_oversized_n_exits_two(capsys):
    # refused before the mesh allocates anything, however large n is
    for n in (20000, 2**61):
        assert main([
            "solve", str(PROBLEMS / "example1.json"), "--n", str(n),
        ]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: n = {n} needs ")
        assert captured.err.endswith(" byte ceiling\n")


def test_solve_too_steep_grading_exits_two():
    # refused when the mesh is built, before numpy meets a zero-width cell
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    for i in (5, 7):
        proc = subprocess.run(
            [sys.executable, "-m", "fracstab", "solve",
             str(PROBLEMS / f"example{i}.json"), "--n", "256", "--grade", "300"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == (
            "error: grading 300 is too steep for n = 256: "
            "the first cells have zero width\n"
        )
    # steep but valid: the weighted table never exponentiates the cells next
    # to psi(a), which take incomplete beta integrals, so numpy stays quiet
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "fracstab", "solve",
         str(PROBLEMS / "example5.json"), "--n", "256", "--grade", "130"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Warning" not in proc.stderr


def _cli_env(**extra) -> dict:
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return env


def _solved(index: int, n: int):
    p = load_example(index).problem
    return picard_solve(p, build_mesh(p.psi, p.a, p.T, n, default_grading(p.order))), p


def _csv(sol, p) -> str:
    """The solve's CSV as ``solution_to_csv`` writes it to a stream."""
    stream = io.StringIO()
    solution_to_csv(sol, p, stream)
    return stream.getvalue()


def _csv_in_one_piece(sol, p) -> str:
    """The solve's CSV formatted from whole arrays, without chunks."""
    mesh, w = sol.y.mesh, p.order.weight
    g, y_weighted = sol.g.values.tolist(), sol.y.values.tolist()
    y, flags = y_weighted, [0] * len(g)
    if w > 0.0:
        scale = [x ** (-w) for x in mesh.offsets[1:].tolist()]
        g = g[:1] + [v * s for v, s in zip(g[1:], scale)]
        y = y[:1] + [v * s for v, s in zip(y[1:], scale)]
        flags[0] = 1
    rows = map("{:.15g},{:.15g},{:.15g},{:.15g},{:.15g},{}".format,
               mesh.nodes.tolist(), mesh.psi_nodes.tolist(), g, y_weighted, y, flags)
    return "t,psi_t,g,y_weighted,y,limit_flag\n" + "\n".join(rows) + "\n"


CHUNK_SIZES = [1, 2, CSV_CHUNK_ROWS - 1, CSV_CHUNK_ROWS, CSV_CHUNK_ROWS + 1, 2048]


@pytest.mark.parametrize("n", CHUNK_SIZES)
@pytest.mark.parametrize("index", [7, 4, 5])  # plain, then two weighted problems
def test_streamed_csv_equals_the_returned_string(capsys, tmp_path, index, n):
    sol, p = _solved(index, n)
    text = _csv(sol, p)
    assert text == _csv_in_one_piece(sol, p)
    rows = text.splitlines()[1:]
    assert len(rows) == n + 1
    # the row at t = a comes once, and only a weighted problem flags it
    flags = [row.rsplit(",", 1)[1] for row in rows]
    assert flags == ["1" if p.order.weight > 0.0 else "0"] + ["0"] * n

    args = ["solve", str(PROBLEMS / f"example{index}.json"), "--n", str(n)]
    out = tmp_path / "sol.csv"
    assert main(args) == 0
    stdout = capsys.readouterr().out
    assert main(args + ["--out", str(out)]) == 0
    capsys.readouterr()
    assert stdout == out.read_text(encoding="utf-8") == text


@pytest.mark.parametrize("chunk", [1, 3])
@pytest.mark.parametrize("index", [7, 5])
def test_small_chunks_keep_the_bytes(monkeypatch, index, chunk):
    # every row boundary is a chunk boundary, or every third one is
    sol, p = _solved(index, 10)
    expected = _csv_in_one_piece(sol, p)
    monkeypatch.setattr("fracstab.cli.CSV_CHUNK_ROWS", chunk)
    assert _csv(sol, p) == expected


class _Discard:
    def write(self, text: str) -> int:
        return len(text)


def test_csv_writing_memory_is_bounded():
    # tracemalloc peak of writing an n = 2048 solution to a discarding stream:
    # 712 KB (example 7) and 844 KB (example 5) when the whole text was built
    # first; 103 KB and 151 KB in chunks of 256 rows from columns decided
    # once, whose scaled copies add about 25 bytes per node (305 KB for
    # example 5 at n = 8192)
    for index in (7, 5):
        sol, p = _solved(index, 2048)
        tracemalloc.start()
        try:
            solution_to_csv(sol, p, _Discard())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 350_000, (index, peak)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", ["", "1"])
@pytest.mark.parametrize("sink", ["closed pipe", "full device"])
@pytest.mark.parametrize("n", [4, 2048])
def test_lost_output_exits_with_one_error_line(sink, unbuffered, n):
    # a closed pipe fails the first write, or the interpreter's last flush
    # when the rows fit in stdout's buffer; either is one error line
    env = _cli_env(PYTHONUNBUFFERED=unbuffered)
    argv = [sys.executable, "-m", "fracstab", "solve",
            str(PROBLEMS / "example7.json"), "--n", str(n)]
    if sink == "closed pipe":
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(argv, stdout=write_end, stderr=subprocess.PIPE,
                                  text=True, env=env, timeout=60)
        finally:
            os.close(write_end)
        error = "error: [Errno 32] Broken pipe"
    else:
        with open("/dev/full", "w") as full:
            proc = subprocess.run(argv, stdout=full, stderr=subprocess.PIPE,
                                  text=True, env=env, timeout=60)
        error = "error: [Errno 28] No space left on device"
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == error + "\n"


def _without_constants(tmp_path, **changes):
    doc = json.loads((PROBLEMS / "example1.json").read_text())
    del doc["lipschitz"]
    doc.update(changes)
    path = tmp_path / "estimated.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_certify_estimates_missing_constants(capsys, tmp_path):
    assert main(["certify", _without_constants(tmp_path), "--json"]) == 0
    info = json.loads(capsys.readouterr().out)
    declared = json.loads((PROBLEMS / "example1.json").read_text())["lipschitz"]
    assert info["lipschitz_source"] == "estimated"
    assert info["certified"] is True
    assert info["k"] == pytest.approx(declared["k"], abs=1e-3)
    assert info["l"] == pytest.approx(declared["l"], abs=1e-4)


def test_estimated_constants_leave_numpy_ma_unimported(tmp_path):
    # numpy.ma is slow to import and estimating the constants needs none of
    # it, so a certify without declared constants never loads it
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    script = (
        "import sys\n"
        "from fracstab.cli import main\n"
        "code = main(['certify', sys.argv[1]])\n"
        "print(code, 'numpy.ma' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, _without_constants(tmp_path)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "(estimated)" in proc.stdout
    assert proc.stdout.splitlines()[-1] == "0 False"


def test_solve_reports_estimated_factor(capsys, tmp_path):
    assert main(["solve", _without_constants(tmp_path), "--n", "32"]) == 0
    err = capsys.readouterr().err.splitlines()
    factor = [line for line in err if line.startswith("contraction factor:")]
    assert len(factor) == 1 and factor[0].endswith(" (estimated)")


@pytest.mark.parametrize("declared", [True, False])
def test_solve_summary_reads_the_constants(capsys, tmp_path, declared):
    # factor and bound come from the constants in force, not from the solve
    path = str(PROBLEMS / "example1.json") if declared else _without_constants(tmp_path)
    assert main(["solve", path, "--n", "32"]) == 0
    err = capsys.readouterr().err.splitlines()
    p, source = _usable_lipschitz(load_problem(path).problem)
    assert source == ("declared" if declared else "estimated")
    sol = picard_solve(p, build_mesh(p.psi, p.a, p.T, 32, default_grading(p.order)))
    u, q = sol.update_norms[-1], certify_unique(p).factor
    assert err == [
        f"iterations: {sol.iterations}",
        f"final update norm: {_num15(u)}",
        f"contraction factor: {_num15(q)} ({source})",
        f"a posteriori bound: {_num15(u * q / (1.0 - q))}",
    ]


def test_weighted_problem_with_huge_initial_datum_exits_two(tmp_path):
    # y_a * (psi(t) - psi(a))**(gamma - 1) overflows next to t = a; the rhs
    # evaluation reports it as one error line, with no numpy warning first
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    doc = json.loads((PROBLEMS / "example1.json").read_text())
    for y_a in (1e308, -1e308):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(dict(doc, y_a=y_a)))
        for command in ("solve", "perturb"):
            proc = subprocess.run(
                [sys.executable, "-W", "error::RuntimeWarning", "-m", "fracstab",
                 command, str(path), "--n", "32"],
                capture_output=True, text=True, env=env, timeout=60,
            )
            assert proc.returncode == 2, proc.stderr
            assert proc.stdout == ""
            lines = proc.stderr.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error:")
            assert "Warning" not in proc.stderr


OVERFLOWS = [
    # a psi-span that does not fit in double precision names the key T
    (mutate(a=-1e308, T=1e308), "solve", 2, "error: key 'T': psi(T) - psi(a) overflows"),
    (mutate(a=-1e308, T=1e308, lipschitz={"k": 0.1, "l": 0.0}), "certify", 2,
     "error: key 'T': psi(T) - psi(a) overflows"),
    (mutate(psi={"kind": "power", "rho": 2.0}, T=1e200), "solve", 2,
     "error: key 'T': psi(1e+200) overflows"),
    # span**(alpha + 1) overflows in a plain table from a span of about 3.2e205
    (mutate(T=1e300, rhs="0*y"), "solve", 2, "error: a psi-span of 1e+300 is too wide"),
    (mutate(T=1e205, rhs="0*y"), "solve", 0, None),
    # a Picard seed or sweep that overflows does not converge
    (mutate(y_a=1e308, rhs="y"), "solve", 3, "error: no convergence after 1 iterations"),
    (mutate(beta=0.0, y_a=1e308, rhs="y"), "solve", 3, "error: no convergence after 0 iterations"),
    (mutate(beta=0.0, T=1e300, rhs="y"), "solve", 3, "error: no convergence after"),
    # so does an integral, or the y it makes, that overflows, for either command
    (mutate(T=1e20, rhs="1e300 + 0*y", lipschitz={"k": 0.0, "l": 0.0}), "solve", 3,
     "error: no convergence after 1 iterations"),
    (mutate(T=1e20, rhs="1e300 + 0*y", lipschitz={"k": 0.0, "l": 0.0}), "perturb", 3,
     "error: no convergence after 1 iterations"),
    (mutate(y_a=1.5e308, rhs="1e308 + 0*t"), "solve", 3,
     "error: no convergence after 1 iterations"),
]


@pytest.mark.parametrize("doc,command,code,error", OVERFLOWS)
def test_overflowing_problems_exit_with_one_error_line(tmp_path, doc, command, code, error):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(doc))
    extra = ["--n", "32"] if command == "solve" else []
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "fracstab",
         command, str(path), *extra],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == code, proc.stderr
    errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
    if error is None:
        assert errors == []
    else:
        assert len(errors) == 1 and errors[0].startswith(error), proc.stderr
    assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr


def test_certify_refuses_estimate_with_l_above_one(capsys, tmp_path):
    path = _without_constants(tmp_path, rhs="1.5*d", parameters={})
    assert main(["certify", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "estimated l = 1.5" in captured.err
    assert "is not below 1; constants unusable" in captured.err
    assert "error: no usable Lipschitz constants" in captured.err


def test_failed_lipschitz_estimate(capsys, tmp_path):
    # y = 1 solves it, but the padded sampling box reaches y > 2, where
    # ln(2 - y) is undefined: solve runs without a factor, perturb refuses
    path = tmp_path / "ln.json"
    path.write_text(json.dumps(mutate(rhs="0.2*ln(2 - y)")))
    note = "note: Lipschitz estimation failed: right-hand side not evaluable"
    assert main(["solve", str(path), "--n", "32"]) == 0
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert err[0].startswith(note)
    assert err[-1] == "contraction factor: unavailable"
    assert captured.out.startswith("t,psi_t,g,y_weighted,y,limit_flag\n")
    assert main(["perturb", str(path), "--n", "32"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 2 and err[0].startswith(note)
    assert err[1] == "error: no usable Lipschitz constants; declare them in the file"


def test_solve_nonconvergence_exit(capsys, tmp_path):
    runaway = tmp_path / "runaway.json"
    runaway.write_text(json.dumps(mutate(rhs="30*y")))
    assert main(["solve", str(runaway), "--n", "16", "--max-iter", "5"]) == 3
    capsys.readouterr()


def test_certify_json_frozen(capsys):
    assert main(["certify", str(PROBLEMS / "example1.json"), "--json"]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["certified"] is True
    assert info["ratio"] == pytest.approx(0.31400159841825265, rel=1e-13)
    assert info["c_f_uh"] == pytest.approx(1.7693494064794517, rel=1e-13)
    assert info["lipschitz_source"] == "declared"


def test_certify_uses_declared_lambda_phi_when_sound(capsys):
    assert main(["certify", str(PROBLEMS / "example5.json"), "--json"]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["lambda_phi_sound"] is True
    assert info["lambda_phi_used"] == info["lambda_phi_declared"]
    assert info["c_f_uhr"] == pytest.approx(1.2627608627618012, rel=1e-12)


def test_certify_text_reports_declared_lambda_phi(capsys):
    path = str(PROBLEMS / "example5.json")
    assert main(["certify", path, "--json"]) == 0
    info = json.loads(capsys.readouterr().out)
    assert main(["certify", path]) == 0
    lines = capsys.readouterr().out.splitlines()
    num = {key: format(value, ".15g") for key, value in info.items()
           if isinstance(value, float)}
    assert lines[-4:] == [
        f"c_f (plain): {num['c_f_uh']}",
        f"lambda_phi estimate: {num['lambda_phi_hat']}",
        f"lambda_phi declared: {num['lambda_phi_declared']} (sound)",
        f"c_f (comparison-weighted): {num['c_f_uhr']}",
    ]


def test_certify_uses_the_estimate_when_lambda_phi_is_not_declared(capsys, tmp_path):
    doc = json.loads((PROBLEMS / "example5.json").read_text())
    del doc["lambda_phi"]
    path = tmp_path / "undeclared.json"
    path.write_text(json.dumps(doc))
    assert main(["certify", str(path), "--json"]) == 0
    captured = capsys.readouterr()
    info = json.loads(captured.out)
    assert "lambda_phi_declared" not in info and "lambda_phi_sound" not in info
    assert info["lambda_phi_used"] == info["lambda_phi_hat"]
    assert info["lambda_phi_hat"] == pytest.approx(0.8862213323756123, rel=1e-9)
    assert captured.err == ""


def test_certify_falls_back_on_unsound_lambda_phi(capsys):
    assert main(["certify", str(PROBLEMS / "example7.json"), "--json"]) == 0
    captured = capsys.readouterr()
    info = json.loads(captured.out)
    assert info["lambda_phi_sound"] is False
    assert info["lambda_phi_used"] == pytest.approx(
        info["lambda_phi_hat"], rel=1e-15
    )
    assert "warning" in captured.err


def test_certify_refuses_ratio_exactly_one(capsys, tmp_path):
    # alpha = 1, k = 1, l = 0 on [0, 1]: the ratio k / gamma(2) is exactly 1,
    # on the contraction boundary, so it is not certified
    doc = mutate(alpha=1.0, rhs="y", lipschitz={"k": 1.0, "l": 0.0})
    cert = certify_unique(problem_from_dict(doc).problem)
    assert cert.ratio == 1.0 and not cert.certified
    path = tmp_path / "boundary.json"
    path.write_text(json.dumps(doc))
    assert main(["certify", str(path)]) == 4
    assert "not certified" in capsys.readouterr().out


def test_certify_not_certified_exit(capsys, tmp_path):
    hot = tmp_path / "hot.json"
    hot.write_text(json.dumps(mutate(lipschitz={"k": 5.0, "l": 0.1})))
    assert main(["certify", str(hot)]) == 4
    out = capsys.readouterr().out
    assert "not certified" in out and "ratio" in out


def test_certify_golden_files_current(capsys):
    # the frozen certificates in problems/golden must match a fresh run
    for i in range(1, 8):
        golden = ROOT / "problems" / "golden" / f"example{i}.certificate.json"
        assert main([
            "certify", str(PROBLEMS / f"example{i}.json"), "--json",
        ]) == 0
        assert capsys.readouterr().out == golden.read_text()


def test_perturb_deterministic_and_exit_codes(capsys, tmp_path):
    out1, out2 = tmp_path / "p1.csv", tmp_path / "p2.csv"
    args = [
        "perturb", str(PROBLEMS / "example1.json"), "--n", "32",
        "--trials", "3", "--epsilon", "0.01",
    ]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    assert b"verdict,pass" in out1.read_bytes()


def test_perturb_seed_chooses_the_trials(capsys, tmp_path):
    args = [
        "perturb", str(PROBLEMS / "example1.json"), "--n", "32", "--trials", "3",
    ]
    outs = [tmp_path / f"p{k}.csv" for k in range(3)]
    assert main(args + ["--out", str(outs[0])]) == 0
    assert main(args + ["--seed", "1", "--out", str(outs[1])]) == 0
    assert main(args + ["--seed", "1", "--out", str(outs[2])]) == 0
    capsys.readouterr()
    assert outs[1].read_bytes() == outs[2].read_bytes()

    def seeds(path):
        rows = path.read_text().split("\n\n")[0].splitlines()[1:]
        return [row.split(",")[1] for row in rows]

    default, seeded = seeds(outs[0]), seeds(outs[1])
    assert len(default) == len(seeded) == 3
    assert all(a != b for a, b in zip(default, seeded))


def test_perturb_refuses_a_negative_seed(capsys):
    args = ["perturb", str(PROBLEMS / "example1.json"), "--n", "32", "--trials", "2"]
    assert main(args + ["--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: seed must be >= 0, got -1\n"


@pytest.mark.parametrize("option,error", [
    (["--seed", "-1"], "error: seed must be >= 0, got -1"),
    (["--epsilon", "0"], "error: epsilon must be positive, got 0.0"),
    (["--trials", "0"], "error: need at least one trial, got 0"),
    (["--shape", "constant"], "error: constant shape breaks the weighted envelope "
                              "near t = a; use phi_scaled or random_bounded"),
])
def test_perturb_refuses_its_options_before_any_numeric_work(tmp_path, option, error):
    # example 5 is weighted: its lambda_phi estimate would build and store
    # an n = 2048 table, which a refused request must not do
    proc = subprocess.run(
        [sys.executable, "-m", "fracstab", "perturb",
         str(PROBLEMS / "example5.json"), "--n", "2048", *option],
        capture_output=True, text=True, env=_cli_env(XDG_CACHE_HOME=str(tmp_path)),
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == error + "\n"
    assert [path for path in tmp_path.rglob("*") if path.is_file()] == []


def _nested(shape: str, levels: int, leaf: str) -> str:
    """An expression ``levels`` deep: ``leaf`` in parentheses, or a sum of ``leaf``s."""
    if shape == "parentheses":
        return "(" * (levels - 1) + leaf + ")" * (levels - 1)
    return " + ".join([leaf] * (levels - 1))


@pytest.mark.parametrize("shape", ["parentheses", "sum"])
def test_expressions_nest_up_to_the_bound(capsys, tmp_path, shape):
    path = tmp_path / "nested.json"
    lipschitz = {"k": 0.5, "l": 0.0}
    path.write_text(json.dumps(mutate(rhs=_nested(shape, MAX_DEPTH, "0.005*y"))))
    assert main(["solve", str(path), "--n", "32"]) == 0
    path.write_text(json.dumps(
        mutate(phi=_nested(shape, MAX_DEPTH, "0.01*t"), lipschitz=lipschitz)
    ))
    assert main(["perturb", str(path), "--n", "32", "--trials", "1"]) == 0
    capsys.readouterr()
    # one level past the bound, and as deep as a parse once ran out of stack
    for levels in (MAX_DEPTH + 1, 601):
        for key, doc in (
            ("rhs", mutate(rhs=_nested(shape, levels, "0.005*y"))),
            ("phi", mutate(phi=_nested(shape, levels, "0.01*t"), lipschitz=lipschitz)),
        ):
            path.write_text(json.dumps(doc))
            assert main(["solve", str(path), "--n", "32"]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(
                f"error: key '{key}': nested deeper than {MAX_DEPTH} levels (offset "
            )
            assert len(captured.err.splitlines()) == 1


def test_perturb_bound_violation_exits_five(capsys, tmp_path):
    weak = tmp_path / "weak.json"
    weak.write_text(json.dumps(mutate(
        rhs="(1/20)*E(0.5, sqrt(t))*y + (1/10)*d",
        beta=0.0,
        lipschitz={"k": 0.01, "l": 0.0},
    )))
    assert main([
        "perturb", str(weak), "--n", "32", "--trials", "1",
        "--shape", "constant",
    ]) == 5
    assert "verdict,fail" in capsys.readouterr().out


def test_perturb_failed_refinement_exits_five(capsys, tmp_path):
    # the rhs is singular at a node of the doubled mesh only, so both
    # trials refine and fail there: error rows, not a traceback
    doc = mutate(
        rhs="0.1*y + 1e-9/(t - 0.0012359619140625)",
        lipschitz={"k": 0.0001, "l": 0.0},
    )
    path = tmp_path / "singular.json"
    path.write_text(json.dumps(doc))
    assert main([
        "perturb", str(path), "--n", "8", "--trials", "2", "--shape", "constant",
    ]) == 5
    rows = capsys.readouterr().out.split("\n")[1:3]
    assert [row.rsplit(",", 1)[1] for row in rows] == ["error", "error"]


def test_perturb_unbuildable_doubled_mesh_gives_error_rows(capsys, tmp_path):
    # alpha = 0.01 grades the mesh with 200: n = 32 is fine, but the doubled
    # n = 64 has zero-width first cells, so each refinement is an error row
    doc = mutate(alpha=0.01, lipschitz={"k": 0.001, "l": 0.0})
    path = tmp_path / "steep.json"
    path.write_text(json.dumps(doc))
    assert main([
        "perturb", str(path), "--n", "32", "--trials", "2", "--shape", "constant",
    ]) == 5
    rows = capsys.readouterr().out.split("\n")[1:3]
    assert [row.rsplit(",", 1)[1] for row in rows] == ["error", "error"]


def test_perturb_not_certified_exits_four(capsys, tmp_path):
    hot = tmp_path / "hot.json"
    hot.write_text(json.dumps(mutate(lipschitz={"k": 5.0, "l": 0.1})))
    assert main(["perturb", str(hot), "--n", "16", "--trials", "1"]) == 4
    capsys.readouterr()


def test_verify_ops_command(capsys, tmp_path):
    assert main(["verify-ops", "--n-list", "48", "--psi", "identity"]) == 0
    out = capsys.readouterr().out
    assert "constant_exactness" in out and "single n" in out

    report = tmp_path / "ops.csv"
    assert main([
        "verify-ops", "--n-list", "32,64", "--psi", "log",
        "--report", str(report),
    ]) == 0
    capsys.readouterr()
    text = report.read_text()
    assert text.startswith("family,check,n,residual\n")
    assert "family,check,slope" in text
    assert "logarithm" in text
    # one row per check, then the slopes in sorted order
    checks = fraccalc.run_operator_checks(families=("logarithm",), n_list=(32, 64))
    rows = [f"{r.family},{r.check},{r.n},{_num15(r.residual)}" for r in checks.rows]
    slopes = [f"{f},{c},{_num15(s)}" for (f, c), s in sorted(checks.slopes.items())]
    assert text == "\n".join(
        ["family,check,n,residual", *rows, "", "family,check,slope", *slopes]
    ) + "\n"


def test_verify_ops_reports_a_failed_ceiling(capsys, monkeypatch):
    monkeypatch.setitem(
        fraccalc._CEILINGS, "constant_exactness", (0.0, "relative error on ones {:.3e} > 0")
    )
    assert main(["verify-ops", "--n-list", "16", "--psi", "identity"]) == 5
    assert "FAIL: identity/constant_exactness: relative error on ones" in (
        capsys.readouterr().out
    )


def test_verify_ops_refuses_an_oversized_n_before_any_table(tmp_path):
    # n = 20000 is over the table ceiling; the checks at the smaller n once
    # ran, and filled the store with their tables, before the refusal
    proc = subprocess.run(
        [sys.executable, "-m", "fracstab", "verify-ops", "--n-list", "64,128,256,512,20000"],
        capture_output=True, text=True, env=_cli_env(XDG_CACHE_HOME=str(tmp_path)),
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1
    assert proc.stderr.startswith("error: n = 20000 needs 3200320008 bytes per quadrature table")
    assert [path for path in tmp_path.rglob("*") if path.is_file()] == []


def test_verify_ops_bad_inputs(capsys):
    assert main(["verify-ops", "--n-list", "three"]) == 2
    assert main(["verify-ops", "--n-list", ""]) == 2
    assert main(["verify-ops", "--n-list", "2"]) == 2
    capsys.readouterr()


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2
    capsys.readouterr()
