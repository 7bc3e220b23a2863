"""The public records: keyword construction, immutability, equality, repr,
and copies that run the constructor's checks again."""

import copy
import math
import pickle

import numpy as np
import pytest

from fracstab.cli import ProblemFile
from fracstab.errors import DomainError, FracstabError
from fracstab.fraccalc import OperatorCheckReport, OperatorCheckRow
from fracstab.psi_space import FracOrder, GridFunction, Mesh, PsiMap, build_mesh
from fracstab.rhs_expr import BinOp, Call, Neg, Num, Var, parse_expression
from fracstab.solver import CauchyProblem, Solution, UniquenessCertificate
from fracstab.stability import (
    PerturbationReport,
    PerturbationSpec,
    StabilityCertificate,
    TrialResult,
)

_PSI = PsiMap(kind="identity")
_MESH = build_mesh(_PSI, 0.0, 1.0, 4)
_U = GridFunction(mesh=_MESH, values=np.ones(5), weight_exp=0.0)
_PROBLEM = CauchyProblem(
    psi=_PSI, order=FracOrder(alpha=0.5, beta=0.5), a=0.0, T=1.0, y_a=1.0,
    rhs=parse_expression("0.5*y"), lipschitz=(0.5, 0.0),
)
_ROW = TrialResult(
    trial=0, seed=1, shape="zero", epsilon=0.1, deviation=0.0, bound=1.0,
    ratio=0.0, verdict="pass",
)

# every public record, built by keyword with its defaults left out
RECORDS = [
    _PSI,
    FracOrder(alpha=0.5, beta=0.5),
    _MESH,
    _U,
    Num(value=1.0),
    Var(name="t"),
    Neg(operand=Num(value=1.0)),
    BinOp(op="+", left=Var(name="t"), right=Num(value=1.0)),
    Call(func="exp", args=(Var(name="t"),)),
    _PROBLEM,
    Solution(g=_U, y=_U, iterations=1, update_norms=(0.0,)),
    UniquenessCertificate(certified=True, ratio=0.5, factor=0.5, base=0.5),
    StabilityCertificate(c_f=2.0),
    PerturbationSpec(epsilon=0.1),
    _ROW,
    PerturbationReport(
        kind="ulam_hyers", epsilon=0.1, c_f=2.0, allowance=0.05, mesh_n=4,
        rows=(_ROW,), max_ratio=0.0, max_deviation=0.0, passed=True,
    ),
    OperatorCheckRow(family="identity", check="power_rule", n=4, residual=0.0),
    OperatorCheckReport(rows=(), slopes={}, passed=True),
    ProblemFile(problem=_PROBLEM, phi=None, lambda_phi=None),
]


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_records_refuse_assignment(record):
    cls = type(record)
    field = (cls._fields if isinstance(record, tuple) else cls.__slots__)[0]
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = None
    assert getattr(record, field) is before


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_records_copy_and_pickle(record):
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is type(record) and repr(twin) == repr(record)


def test_record_defaults():
    assert PsiMap("identity").rho == 1.0
    spec = PerturbationSpec(0.1)
    assert (spec.shape, spec.trials, spec.seed) == ("random_bounded", 20, 0)
    assert StabilityCertificate(2.0).phi is None
    assert _ROW.refined is False
    assert OperatorCheckReport((), {}, True)[3:] == ((), ())
    assert _PROBLEM.with_lipschitz(None).lipschitz is None


def test_validated_records_compare_by_value():
    assert PsiMap("power", 2.0) == PsiMap(kind="power", rho=2.0)
    assert PsiMap("power", 2.0) != PsiMap("power", 3.0)
    assert hash(FracOrder(0.5, 0.5)) == hash(FracOrder(alpha=0.5, beta=0.5))
    assert FracOrder(0.5, 0.5) != PsiMap("identity")
    same = CauchyProblem(
        PsiMap("identity"), FracOrder(0.5, 0.5), 0.0, 1.0, 1.0,
        parse_expression("0.5*y"), (0.5, 0.0),
    )
    assert same == _PROBLEM and hash(same) == hash(_PROBLEM)
    assert _PROBLEM.with_lipschitz((0.25, 0.0)) != _PROBLEM


def test_with_lipschitz_checks_the_constants_again():
    copy = _PROBLEM.with_lipschitz((1, 0))
    assert copy.lipschitz == (1.0, 0.0) and type(copy.lipschitz[0]) is float
    assert copy.span == _PROBLEM.span and copy.rhs is _PROBLEM.rhs
    with pytest.raises(DomainError) as info:
        _PROBLEM.with_lipschitz((0.5, 1.0))
    assert info.value.key == "lipschitz.l"
    assert _PROBLEM.lipschitz == (0.5, 0.0)


# the records whose constructors check their arguments, with their reprs
VALIDATED = {
    "PsiMap(kind='identity', rho=1.0)": _PSI,
    "FracOrder(alpha=0.5, beta=0.5)": FracOrder(alpha=0.5, beta=0.5),
    "Mesh(psi=PsiMap(kind='identity', rho=1.0), a=0.0, T=1.0, n=4, grading=1.0)": _MESH,
    "GridFunction(mesh=Mesh(psi=PsiMap(kind='identity', rho=1.0), a=0.0, T=1.0, "
    "n=4, grading=1.0), weight_exp=0.0)": _U,
    "CauchyProblem(psi=PsiMap(kind='identity', rho=1.0), "
    "order=FracOrder(alpha=0.5, beta=0.5), a=0.0, T=1.0, y_a=1.0, "
    "rhs=BinOp(op='*', left=Num(value=0.5), right=Var(name='y')), "
    "lipschitz=(0.5, 0.0))": _PROBLEM,
    "PerturbationSpec(epsilon=0.1, shape='random_bounded', trials=20, seed=0)":
        PerturbationSpec(epsilon=0.1),
}
_VALIDATED_IDS = [type(r).__name__ for r in VALIDATED.values()]


@pytest.mark.parametrize("text,record", VALIDATED.items(), ids=_VALIDATED_IDS)
def test_validated_record_repr(text, record):
    assert repr(record) == text


@pytest.mark.parametrize("record", VALIDATED.values(), ids=_VALIDATED_IDS)
def test_validated_record_rebuilds_from_its_arguments(record):
    cls, args = record.__reduce__()
    assert cls is type(record)
    twin = cls(*args)
    assert repr(twin) == repr(record)
    if cls is GridFunction:
        assert twin != record and twin.mesh is record.mesh
        np.testing.assert_array_equal(twin.values, record.values)
    else:
        assert twin == record and hash(twin) == hash(record)
    if cls is CauchyProblem:
        assert twin.span == record.span


@pytest.mark.parametrize(
    "record,field,bad",
    [(_PSI, "kind", "spline"), (FracOrder(0.5, 0.5), "alpha", 2.0), (_MESH, "grading", 0.5),
     (_U, "weight_exp", 1.0), (_PROBLEM, "y_a", math.inf), (PerturbationSpec(0.1), "epsilon", -0.1)],
    ids=_VALIDATED_IDS,
)
def test_copies_run_the_constructor_checks_again(record, field, bad):
    broken = copy.copy(record)
    object.__setattr__(broken, field, bad)
    for make_copy in (copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))):
        with pytest.raises(FracstabError, match=repr(bad)):
            make_copy(broken)


def test_validated_records_share_one_frozen_protocol():
    for cls in (PsiMap, FracOrder, Mesh, GridFunction, CauchyProblem, PerturbationSpec):
        own = {"__setattr__", "__delattr__", "__reduce__"} & set(vars(cls))
        assert not own, f"{cls.__name__} defines {sorted(own)}"


def test_grid_functions_compare_by_identity():
    twin = GridFunction(_MESH, np.ones(5))
    assert twin != _U and not twin == _U and twin == twin
    assert hash(twin) == object.__hash__(twin) and len({twin, _U}) == 2


def test_perturbation_specs_compare_by_value():
    spec = PerturbationSpec(0.1, "zero", 3, 7)
    same = PerturbationSpec(epsilon=0.1, shape="zero", trials=3, seed=7)
    assert spec == same and hash(spec) == hash(same) and len({spec, same}) == 1
    assert spec != PerturbationSpec(0.1, "zero", 3, 8)
    assert spec != (0.1, "zero", 3, 7)


@pytest.mark.parametrize(
    "field,value", [("trials", 2.5), ("trials", 3.0), ("trials", True), ("seed", 1.5),
                    ("seed", False), ("seed", "1")],
)
def test_perturbation_counts_must_be_integers(field, value):
    with pytest.raises(DomainError, match=f"^{field} must be an integer, got {value!r}$"):
        PerturbationSpec(0.1, **{field: value})


def test_perturbation_counts_may_be_numpy_integers():
    spec = PerturbationSpec(0.1, trials=np.int64(3), seed=np.uint32(7))
    assert spec == PerturbationSpec(0.1, trials=3, seed=7)


def test_meshes_compare_and_hash_by_their_arguments():
    same = build_mesh(PsiMap("identity"), 0, 1, np.int64(4), grading=1)
    assert same == _MESH and not same != _MESH and hash(same) == hash(_MESH)
    assert len({same, _MESH}) == 1
    assert _MESH != build_mesh(_PSI, 0.0, 1.0, 8)
    assert _MESH != build_mesh(_PSI, 0.0, 1.0, 4, grading=2.0)
    assert _MESH != build_mesh(PsiMap("power", 2.0), 0.0, 1.0, 4)
    assert _MESH != (_PSI, 0.0, 1.0, 4, 1.0)


def test_mesh_copies_rebuild_read_only_arrays_with_the_same_bits():
    mesh = build_mesh(PsiMap("logarithm"), 1.0, math.e, 16, grading=2.5)
    for twin in (copy.copy(mesh), copy.deepcopy(mesh), pickle.loads(pickle.dumps(mesh))):
        assert twin == mesh
        for name in ("nodes", "psi_nodes", "offsets"):
            array = getattr(twin, name)
            assert array.flags.writeable is False
            assert array.tobytes() == getattr(mesh, name).tobytes()


_BAD_MESHES = [
    (_PSI, 1.0, 1.0, 4, 1.0), (_PSI, 0.0, 1.0, 2.5, 1.0), (_PSI, 0.0, 1.0, True, 1.0),
    (_PSI, 0.0, 1.0, 0, 1.0), (_PSI, 0.0, 1.0, 4, 0.5), (_PSI, 0.0, 1.0, 4, math.nan),
    (_PSI, 0.0, 1.0, 20000, 1.0), (PsiMap("logarithm"), 0.0, 1.0, 4, 1.0),
    (_PSI, -1e308, 1e308, 8, 1.0), (PsiMap("logarithm"), 1.0, math.e, 256, 300.0),
]


@pytest.mark.parametrize("args", _BAD_MESHES, ids=range(len(_BAD_MESHES)))
def test_mesh_refuses_what_build_mesh_refuses(args):
    with pytest.raises(DomainError) as built:
        build_mesh(*args)
    with pytest.raises(DomainError) as direct:
        Mesh(*args)
    assert str(direct.value) == str(built.value)
