"""Alpha-grid sweep: solve both endpoint QPs per level and assemble the
membership curve of the fuzzy optimal objective.

Every requested level is solved even after the lower and upper values
coincide; the coincidence level is reported as a flag so downstream
consumers still see the whole curve.  At alpha = 1 both endpoints are one
instance, the crisp core (cuts), solved once for both bounds, which there
coincide exactly.

The levels do not depend on each other, so they are solved in blocks of
levels: the endpoints of a block are set up at once (solver._setups), the
runs of every endpoint are stepped side by side (solver._pg_lanes), and
each endpoint is judged as solve_pg judges its runs (solver._finish): every
record has the bytes of solve_pg on its endpoint.  A block holds at most
LANE_BLOCK_BYTES, each endpoint's whole footprint counted: its crisp QP,
its set-up and its lanes (_footprint); an endpoint's set-up is released as
soon as it is judged.  solve_pg (_solve_endpoint) solves each endpoint
that the lanes do not serve, one whose b lies near the float range, whose
starts are not vectors of its n or whose set-up raised, and each one whose
runs or judgement raised, in level order, lower before upper, so a sweep
raises what solving the endpoints one at a time would.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .cuts import lower_qp, upper_qp
from .fuzzy import check_alpha
from .problem import CrispQP, FuzzyQP
from .projector import InfeasibleError, UnboundedError
from .solver import QpSolution, SolverOptions, _finish, _pg_lanes, _setups, solve_pg

COINCIDENCE_TOL = 1e-6
# The bytes one block of a sweep's endpoints may hold: each one's crisp QP,
# set-up and lanes (_footprint).
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

    The endpoints are solved a block of levels at a time (_solve_block), a
    block holding as many levels as fit in LANE_BLOCK_BYTES, each endpoint
    counted with one lane (_footprint), one level at least.
    """
    block, size = [], 0
    for alpha in grid:
        lo_q = lower_qp(p, alpha)
        up_q = upper_qp(p, alpha)
        level = (alpha, (lo_q,) if up_q is lo_q else (lo_q, up_q))
        cost = sum(_footprint(q, 1) for q in level[1])
        if block and size + cost > LANE_BLOCK_BYTES:
            yield from _solve_block(block, opts)
            block, size = [], 0
        block.append(level)
        size += cost
    yield from _solve_block(block, opts)


def _footprint(q: CrispQP, lanes: int) -> int:
    """The bytes an endpoint holds in a block, with the given number of lanes:
    its crisp QP's c, Q, A and b, its set-up's G = [A; -I], h and tops, and
    per lane, in _pg_lanes' stacks, Q, G, the tops and the rows' excesses, and
    c, x and y."""
    n, m = q.n, q.m
    r = m + n
    return 8 * (n + n * n + m * n + m + r * (n + 2) + lanes * (n * n + r * (n + 2) + 3 * n))


def _solve_block(block: list, opts: SolverOptions):
    """_levels' solutions of a block of levels, each (alpha, endpoints).

    Every endpoint is set up at once (_setups), and its runs are stepped side
    by side (_pg_lanes) with those of the endpoints next to it, in groups
    (_groups) whose lanes keep the block within LANE_BLOCK_BYTES.  Each
    endpoint is judged (_finish) once its group has run, and its set-up is
    then released.  An endpoint that the lanes do not serve (_setups gave
    None), or whose runs or judgement raised, is solved, in order, by
    _solve_endpoint, which raises as a one-at-a-time sweep would.
    """
    qs = [q for _, level in block for q in level]
    set_ups = _setups(qs, opts)
    tags = [(name, alpha) for alpha, level in block for name, _ in zip(("lower", "upper"), level)]
    solutions = []
    for group in _groups(qs, set_ups):
        for e, ran in zip(group, _pg_lanes([(qs[e], set_ups[e]) for e in group], opts)):
            solution = None
            if ran is not None:  # None where the lanes did not serve it or a run raised
                try:
                    solution = _finish(qs[e], ran, *set_ups[e][:3])
                except Exception:
                    pass
            solutions.append(solution or _solve_endpoint(qs[e], opts, *tags[e]))
            set_ups[e] = None
    solutions = iter(solutions)
    for alpha, level in block:
        lo = next(solutions)
        # the core's upper side takes its own x, so that writing to one argmin leaves the other
        up = next(solutions) if len(level) == 2 else replace(lo, x=lo.x.copy())
        yield alpha, lo, up


def _groups(qs: list, set_ups: list) -> list:
    """The indices of a block's endpoints in runs of neighbours whose lanes, one
    per start, fit in LANE_BLOCK_BYTES beside every endpoint's crisp QP and
    set-up (_footprint), one endpoint at least."""
    size = base = sum(_footprint(q, 0) for q in qs)
    groups = [[]]
    for e, (q, set_up) in enumerate(zip(qs, set_ups)):
        cost = _footprint(q, len(set_up[3]) if set_up else 0) - _footprint(q, 0)
        if groups[-1] and size + cost > LANE_BLOCK_BYTES:
            groups.append([])
            size = base
        groups[-1].append(e)
        size += cost
    return groups


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
