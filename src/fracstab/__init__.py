"""Weighted-space solver and stability workbench for generalized fractional
Cauchy problems with reparametrised kernels."""

from .cli import ProblemFile, load_problem, problem_from_dict
from .errors import (
    CertificationError,
    ContractError,
    ConvergenceError,
    DomainError,
    EstimationError,
    EvaluationError,
    FracstabError,
    NonConvergenceError,
    ParseError,
    RangeError,
    SchemaError,
)
from .fraccalc import (
    FracIntegralOperator,
    OperatorCheckReport,
    OperatorCheckRow,
    hilfer_derivative,
    run_operator_checks,
)
from .psi_space import (
    FracOrder,
    GridFunction,
    Mesh,
    PsiMap,
    build_mesh,
    default_grading,
)
from .rhs_expr import (
    evaluate,
    free_variables,
    parse_expression,
    to_source,
)
from .solver import (
    CauchyProblem,
    Solution,
    UniquenessCertificate,
    certify_unique,
    estimate_lipschitz,
    picard_solve,
)
from .specfun import erf_fn, gamma_fn, mittag_leffler
from .stability import (
    PerturbationReport,
    PerturbationSpec,
    StabilityCertificate,
    TrialResult,
    estimate_lambda_phi,
    lambda_phi_in_force,
    perturb_and_check,
    report_to_csv,
)

__version__ = "0.1.0"
