"""Alpha-grid sweep: solve both endpoint QPs per level and assemble the
membership curve of the fuzzy optimal objective.

Every requested level is solved even after the lower and upper values
coincide; the coincidence level is reported as a flag so downstream
consumers still see the whole curve.  At alpha = 1 both endpoints are one
instance, the crisp core (cuts), solved once for both bounds, which there
coincide exactly.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .cuts import lower_qp, upper_qp
from .fuzzy import check_alpha
from .problem import CrispQP, FuzzyQP
from .projector import InfeasibleError, UnboundedError
from .solver import QpSolution, SolverOptions, solve_pg

COINCIDENCE_TOL = 1e-6


class CurveShapeError(ValueError):
    """A membership branch is not monotone, so the curve cannot be inverted."""


@dataclass(frozen=True)
class AlphaRecord:
    """Lower/upper objective bounds at one level, with solver diagnostics."""

    alpha: float
    z_lower: float
    z_upper: float
    x_lower: np.ndarray
    x_upper: np.ndarray
    lower_diag: QpSolution
    upper_diag: QpSolution

    @property
    def coincides(self) -> bool:
        return abs(self.z_lower - self.z_upper) <= COINCIDENCE_TOL


@dataclass(frozen=True)
class MembershipCurve:
    """Records sorted ascending by alpha plus the first coincidence level."""

    records: tuple[AlphaRecord, ...]
    coincidence_alpha: float | None

    @property
    def alphas(self) -> np.ndarray:
        return np.array([r.alpha for r in self.records])

    @property
    def z_lower(self) -> np.ndarray:
        return np.array([r.z_lower for r in self.records])

    @property
    def z_upper(self) -> np.ndarray:
        return np.array([r.z_upper for r in self.records])

    @property
    def coincided(self) -> bool:
        return self.coincidence_alpha is not None


def solve_fqp(
    p: FuzzyQP,
    alphas: Sequence[float],
    opts: SolverOptions | None = None,
) -> MembershipCurve:
    """Solve the lower and upper endpoint QP at every requested level; at
    alpha = 1 they are one instance, the crisp core, solved once.

    Levels are sorted ascending and deduplicated.  An infeasible endpoint
    instance raises InfeasibleError, and one that looks unbounded below
    UnboundedError, naming the level and endpoint.
    """
    opts = opts or SolverOptions()
    if len(alphas) == 0:
        raise ValueError("alphas must be nonempty")
    grid = sorted({check_alpha(a) for a in alphas})

    records = []
    coincidence_alpha = None
    for alpha in grid:
        lo_q = lower_qp(p, alpha)
        lo = _solve_endpoint(lo_q, opts, "lower", alpha)
        up_q = upper_qp(p, alpha)
        if up_q is lo_q:
            # its own x, so that writing to one side's argmin leaves the other's
            up = replace(lo, x=lo.x.copy())
        else:
            up = _solve_endpoint(up_q, opts, "upper", alpha)
        record = AlphaRecord(
            alpha=alpha,
            z_lower=lo.z,
            z_upper=up.z,
            x_lower=lo.x,
            x_upper=up.x,
            lower_diag=lo,
            upper_diag=up,
        )
        if coincidence_alpha is None and record.coincides:
            coincidence_alpha = alpha
        records.append(record)
    return MembershipCurve(records=tuple(records), coincidence_alpha=coincidence_alpha)


def _solve_endpoint(q: CrispQP, opts: SolverOptions, endpoint: str, alpha: float) -> QpSolution:
    """solve_pg(q, opts), an InfeasibleError or UnboundedError naming the
    level and the endpoint."""
    try:
        return solve_pg(q, opts)
    except InfeasibleError as e:
        raise InfeasibleError(
            f"{endpoint} endpoint QP infeasible at alpha={alpha:.10g}: {e}",
            e.certificate,
        ) from e
    except UnboundedError as e:
        raise UnboundedError(f"{endpoint} endpoint QP unbounded at alpha={alpha:.10g}: {e}") from e


def check_invertible(curve: MembershipCurve, slack: float = 1e-9) -> None:
    """Raise CurveShapeError unless the lower branch is nondecreasing and
    the upper branch nonincreasing in alpha (within solver-noise slack)."""
    if np.any(np.diff(curve.z_lower) < -slack):
        raise CurveShapeError("lower branch is not nondecreasing in alpha")
    if np.any(np.diff(curve.z_upper) > slack):
        raise CurveShapeError("upper branch is not nonincreasing in alpha")


def membership_of_objective(curve: MembershipCurve, z: float) -> float:
    """Invert the curve: grade of an objective value in the fuzzy optimum.

    Interpolates the level piecewise-linearly along the lower branch
    (ascending objective values) and the upper branch (descending), and
    returns 0 outside the level-0 interval.  Requires a grid that spans
    alpha = 0 to alpha = 1 and monotone branches.
    """
    alphas = curve.alphas
    if len(alphas) < 2 or alphas[0] != 0.0 or alphas[-1] != 1.0:
        raise ValueError("curve must contain at least the levels alpha=0 and alpha=1")
    check_invertible(curve)
    z_lo = curve.z_lower
    z_up = curve.z_upper

    z = float(z)
    mu = 0.0
    if z_lo[0] <= z <= z_lo[-1]:
        mu = max(mu, float(np.interp(z, z_lo, alphas)))
    if z_up[-1] <= z <= z_up[0]:
        mu = max(mu, float(np.interp(z, z_up[::-1], alphas[::-1])))
    # The apex is only resolved to solver accuracy, so grade values within
    # the coincidence tolerance of it as fully contained.
    apex_lo = min(z_lo[-1], z_up[-1]) - COINCIDENCE_TOL
    apex_hi = max(z_lo[-1], z_up[-1]) + COINCIDENCE_TOL
    if apex_lo <= z <= apex_hi:
        mu = max(mu, float(alphas[-1]))
    return mu
