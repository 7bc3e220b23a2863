"""Problem-file loading, subcommand behavior, and exit codes."""

import json
import os
import subprocess
import sys

import jsonschema
import pytest

from fracstab.cli import (
    _num15, _usable_lipschitz, load_problem, main, problem_from_dict,
)
from fracstab.errors import SchemaError
from fracstab.psi_space import PSI_KINDS, build_mesh
from fracstab.solver import certify_unique, default_grading, picard_solve

from conftest import PROBLEMS, ROOT

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


def test_specfun_error_paths(capsys):
    assert main(["specfun", "gamma", "1", "2"]) == 2
    assert main(["specfun", "gamma", "-1"]) == 2
    assert main(["specfun", "ml", "0.5", "100"]) == 2
    # the alternating series cancels every digit at -6; refused, not printed
    assert main(["specfun", "ml", "0.5", "-6"]) == 2
    assert capsys.readouterr().out == ""


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


def test_certify_refuses_estimate_with_l_above_one(capsys, tmp_path):
    path = _without_constants(tmp_path, rhs="1.5*d", parameters={})
    assert main(["certify", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "estimated l = 1.5" in captured.err
    assert "is not below 1; constants unusable" in captured.err
    assert "error: no usable Lipschitz constants" in captured.err


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
    assert info["c_f_uh"] == pytest.approx(1.5924144658315067, rel=1e-13)
    assert info["lipschitz_source"] == "declared"


def test_certify_uses_declared_lambda_phi_when_sound(capsys):
    assert main(["certify", str(PROBLEMS / "example5.json"), "--json"]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["lambda_phi_sound"] is True
    assert info["lambda_phi_used"] == info["lambda_phi_declared"]
    assert info["c_f_uhr"] == pytest.approx(1.199622819623711, rel=1e-12)


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


def test_certify_falls_back_on_unsound_lambda_phi(capsys):
    assert main(["certify", str(PROBLEMS / "example7.json"), "--json"]) == 0
    captured = capsys.readouterr()
    info = json.loads(captured.out)
    assert info["lambda_phi_sound"] is False
    assert info["lambda_phi_used"] == pytest.approx(
        info["lambda_phi_hat"], rel=1e-15
    )
    assert "warning" in captured.err


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
