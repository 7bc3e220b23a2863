"""The public records: keyword construction, immutability, value equality."""

import copy
import pickle

import numpy as np
import pytest

from fracstab.cli import ProblemFile
from fracstab.errors import DomainError
from fracstab.fraccalc import OperatorCheckReport, OperatorCheckRow
from fracstab.psi_space import FracOrder, GridFunction, PsiMap, build_mesh
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
    assert repr(_PSI) == "PsiMap(kind='identity', rho=1.0)"


def test_with_lipschitz_checks_the_constants_again():
    copy = _PROBLEM.with_lipschitz((1, 0))
    assert copy.lipschitz == (1.0, 0.0) and type(copy.lipschitz[0]) is float
    assert copy.span == _PROBLEM.span and copy.rhs is _PROBLEM.rhs
    with pytest.raises(DomainError) as info:
        _PROBLEM.with_lipschitz((0.5, 1.0))
    assert info.value.key == "lipschitz.l"
    assert _PROBLEM.lipschitz == (0.5, 0.0)
