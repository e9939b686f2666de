"""Quadratic programs with triangular fuzzy coefficients.

The solver decomposes a fuzzy QP by level cuts into a lower and an upper
crisp parametric QP per level, solves each by projected gradient descent,
and assembles the membership curve of the fuzzy optimal objective.
"""
from .cuts import lower_qp, upper_qp
from .fuzzy import Interval, TriangularFuzzyNumber, alpha_cut, membership
from .problem import (
    CrispQP,
    FuzzyQP,
    ParseError,
    ProblemError,
    StructureError,
    ValidationError,
    parse_problem,
    serialize_problem,
    validate,
)
from .projector import InfeasibleError, UnboundedError
from .solver import (
    QpSolution,
    SolverOptions,
    gradient,
    lipschitz_constant,
    objective,
    project,
    solve_oracle,
    solve_pg,
)
from .sweep import (
    AlphaRecord,
    CurveShapeError,
    MembershipCurve,
    check_invertible,
    membership_of_objective,
    solve_fqp,
)

__version__ = "0.1.0"

__all__ = [
    "AlphaRecord",
    "CrispQP",
    "CurveShapeError",
    "FuzzyQP",
    "InfeasibleError",
    "Interval",
    "MembershipCurve",
    "ParseError",
    "ProblemError",
    "QpSolution",
    "SolverOptions",
    "StructureError",
    "TriangularFuzzyNumber",
    "UnboundedError",
    "ValidationError",
    "alpha_cut",
    "check_invertible",
    "gradient",
    "lipschitz_constant",
    "lower_qp",
    "membership",
    "membership_of_objective",
    "objective",
    "parse_problem",
    "project",
    "serialize_problem",
    "solve_fqp",
    "solve_oracle",
    "solve_pg",
    "upper_qp",
    "validate",
]
