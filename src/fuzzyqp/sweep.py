"""Alpha-grid sweep: solve both endpoint QPs per level and assemble the
membership curve of the fuzzy optimal objective.

Every requested level is solved even after the lower and upper values
coincide; the coincidence level is reported as a flag so downstream
consumers still see the whole curve.  At alpha = 1 both endpoints are one
instance, the crisp core (cuts), solved once for both bounds, which there
coincide exactly.

The levels do not depend on each other, so the runs of every endpoint are
stepped side by side (solver._pg_lanes), in blocks of levels whose stacked
lane data stays within LANE_BLOCK_BYTES, and each endpoint is judged as
solve_pg judges its runs (solver._finish): every record has the bytes of
solve_pg on its endpoint.  An endpoint whose set-up, runs or judgement
raised is solved again by solve_pg (_solve_endpoint), the first such in
level order, lower before upper, so a sweep raises what solving the
endpoints one at a time would.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .cuts import lower_qp, upper_qp
from .fuzzy import check_alpha
from .problem import CrispQP, FuzzyQP
from .projector import InfeasibleError, UnboundedError
from .solver import QpSolution, SolverOptions, _finish, _pg_lanes, _setup, solve_pg

COINCIDENCE_TOL = 1e-6
# The stacked lane data of one block of a sweep's endpoints (_levels), in bytes.
LANE_BLOCK_BYTES = 1 << 22


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
    for alpha, lo, up in _levels(p, grid, opts):
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


def _levels(p: FuzzyQP, grid: list, opts: SolverOptions):
    """(alpha, lower solution, upper solution) for each level of grid in turn.

    The endpoints are set up level by level (_setup) and solved a block at a
    time, every run of a block side by side (_pg_lanes); a block's stacked
    lane data stays within LANE_BLOCK_BYTES, one endpoint at least.
    """
    block, size = [], 0
    for alpha in grid:
        lo_q = lower_qp(p, alpha)
        up_q = upper_qp(p, alpha)
        level = (alpha, [_set_up(q, opts) for q in ((lo_q,) if up_q is lo_q else (lo_q, up_q))])
        cost = sum(_lane_bytes(*endpoint) for endpoint in level[1])
        if block and size + cost > LANE_BLOCK_BYTES:
            yield from _solve_block(block, opts)
            block, size = [], 0
        block.append(level)
        size += cost
    yield from _solve_block(block, opts)


def _set_up(q: CrispQP, opts: SolverOptions) -> tuple:
    """(q, _setup(q, opts)), the set-up None where it raises."""
    try:
        return q, _setup(q, opts)
    except Exception:
        return q, None


def _lane_bytes(q: CrispQP, set_up) -> int:
    """The bytes of an endpoint's lanes in _pg_lanes' stacks: per start, Q,
    G = [A; -I] and its tops, and c, x and y."""
    n, r = q.n, q.m + q.n
    return 0 if set_up is None else 8 * len(set_up[3]) * (n * n + r * (n + 1) + 3 * n)


def _solve_block(block: list, opts: SolverOptions):
    """_levels' solutions of a block of levels, each (alpha, endpoints): every
    run side by side, then each endpoint judged (_finish).  An endpoint whose
    set-up, runs or judgement raised is solved again, in order, by
    _solve_endpoint, which raises as a one-at-a-time sweep would."""
    runs = iter(_pg_lanes([endpoint for _, level in block for endpoint in level], opts))
    for alpha, level in block:
        solutions = []
        for name, (q, set_up) in zip(("lower", "upper"), level):
            solution, ran = None, next(runs)
            if ran is not None:  # None where the set-up or a run raised
                try:
                    solution = _finish(q, ran, *set_up[:3])
                except Exception:
                    pass
            if solution is None:
                solution = _solve_endpoint(q, opts, name, alpha)
            solutions.append(solution)
        lo = solutions[0]
        # the core's upper side takes its own x, so that writing to one argmin leaves the other
        up = solutions[1] if len(solutions) == 2 else replace(lo, x=lo.x.copy())
        yield alpha, lo, up


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
