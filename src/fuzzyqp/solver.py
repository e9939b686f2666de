"""Crisp QP solving: projected gradient descent plus an enumeration oracle.

The main path (solve_pg) is fixed-step projected gradient with step 1/K,
where K is the spectral norm of Q (the gradient's Lipschitz constant).
One eigvalsh per crisp QP gives both K and whether Q is PSD.
The feasible set {Ax <= b, x >= 0} is an intersection of halfspaces, so
each projection runs Dykstra's alternating scheme with the closed-form
single-halfspace projection as the inner primitive; Dykstra converges to
the exact Euclidean projection onto the intersection.

solve_oracle independently enumerates active-set candidates (stationarity
systems over every subset of the m + n constraints), which yields the
global optimum for convex instances of modest size and serves as the
verification route for solve_pg.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable

import numpy as np

from .problem import CrispQP

UNBOUNDED_LIMIT = 1e8
FEAS_TOL = 1e-8
ORACLE_MAX_N = 8


class InfeasibleError(RuntimeError):
    """The feasible polyhedron is empty (or was not reachable numerically)."""


class UnboundedError(RuntimeError):
    """Iterates diverged; the instance looks unbounded below."""


@dataclass(frozen=True)
class SolverOptions:
    """Tuning knobs for solve_pg and project.

    multistart is an optional explicit list of start points; when None,
    indefinite instances use the origin plus 8 pseudorandom points drawn
    from `seed` and projected onto the feasible set.  Convex instances
    always run a single start (the first multistart point if given, else
    the origin).
    """

    tol: float = 1e-9
    max_iter: int = 100_000
    multistart: tuple[tuple[float, ...], ...] | None = None
    projection_tol: float = 1e-10
    projection_max_sweeps: int = 10_000
    seed: int = 0

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.projection_tol <= 0:
            raise ValueError("projection_tol must be positive")
        if self.projection_max_sweeps < 1:
            raise ValueError("projection_max_sweeps must be >= 1")
        if self.multistart is not None:
            pts = tuple(tuple(float(v) for v in p) for p in self.multistart)
            if not pts:
                raise ValueError("multistart must contain at least one point")
            object.__setattr__(self, "multistart", pts)


@dataclass(frozen=True)
class QpSolution:
    """Solver outcome: argmin, value, and diagnostics.

    stationarity is the fixed-point residual ||x - P(x - step * grad)||_inf
    of the projected-gradient map at x; convex records whether Q was PSD
    within tolerance.
    """

    x: np.ndarray
    z: float
    iterations: int
    converged: bool
    stationarity: float
    convex: bool


def objective(q: CrispQP, x) -> float:
    """c'x + (1/2) x'Qx."""
    x = np.asarray(x, dtype=float)
    if x.shape != (q.n,):
        raise ValueError(f"x must have shape ({q.n},), got {x.shape}")
    return float(q.c @ x + 0.5 * (x @ q.Q @ x))


def gradient(q: CrispQP, x) -> np.ndarray:
    """c + Qx."""
    x = np.asarray(x, dtype=float)
    if x.shape != (q.n,):
        raise ValueError(f"x must have shape ({q.n},), got {x.shape}")
    return q.c + q.Q @ x


def lipschitz_constant(Q) -> float:
    """Spectral norm of a symmetric matrix; 1.0 for the zero matrix.

    Computed by eigvalsh, not by power iteration: one decomposition per
    crisp QP gives both K and convexity (see is_convex).
    """
    return _spectrum(Q)[0]


def is_convex(Q) -> bool:
    """Whether the symmetric matrix Q is PSD within a small relative tolerance."""
    return _spectrum(Q)[1]


def _spectrum(Q) -> tuple[float, bool]:
    """(K, convex) from one eigvalsh: the spectral norm and PSD-ness of Q.

    The zero matrix gets K = 1.0 and counts as convex.
    """
    Q = np.asarray(Q, dtype=float)
    if not Q.any():
        return 1.0, True
    eig = np.linalg.eigvalsh(Q)
    psd_tol = 1e-10 * max(1.0, float(np.max(np.abs(Q))))
    return float(np.max(np.abs(eig))), float(eig[0]) >= -psd_tol


def _step_rule(q: CrispQP) -> tuple[float, bool]:
    """(step, convex): step 1/K, or 1/max(||c||, 1) when Q = 0 (an LP)."""
    K, convex = _spectrum(q.Q)
    if not q.Q.any():
        K = max(float(np.linalg.norm(q.c)), 1.0)
    return 1.0 / K, convex


def _stationarity(q: CrispQP, x: np.ndarray, step: float, opts: SolverOptions) -> float:
    """Fixed-point residual ||x - P(x - step * grad)||_inf of the PG map."""
    return float(np.max(np.abs(x - project(x - step * gradient(q, x), q.A, q.b, opts))))


def project(x, A, b, opts: SolverOptions | None = None) -> np.ndarray:
    """Euclidean projection of x onto {y: Ay <= b, y >= 0} via Dykstra.

    Already-feasible points are returned unchanged.  If the sweep budget
    runs out with the constraint violation no longer shrinking the
    intersection is empty and InfeasibleError is raised; a violation that
    is still shrinking signals a hard geometry instead and raises a plain
    RuntimeError suggesting a larger budget.
    """
    opts = opts or SolverOptions()
    x = np.asarray(x, dtype=float).copy()
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    n = x.shape[0]
    if A.size == 0:
        A = A.reshape(0, n)
    if A.shape[1] != n or b.shape != (A.shape[0],):
        raise ValueError("A, b dimensions do not match x")

    norms2 = np.einsum("ij,ij->i", A, A)
    degenerate = norms2 == 0.0
    if np.any(degenerate & (b < 0.0)):
        raise InfeasibleError("constraint row with zero coefficients and negative bound")
    keep = ~degenerate
    A, b, norms2 = A[keep], b[keep], norms2[keep]
    m = A.shape[0]

    if (m == 0 or np.all(A @ x <= b)) and np.all(x >= 0.0):
        return x

    # Dykstra over the m halfspaces and the nonnegative orthant.  The stop
    # criterion watches the corrections too: the iterate alone can stall
    # transiently (pinned on a face while corrections accumulate), and for
    # an empty intersection the iterate settles on the nearest-point cycle
    # while corrections grow without bound.
    def violation(pt):
        return max(
            float(np.max(A @ pt - b)) if m else 0.0,
            float(np.max(-pt)),
            0.0,
        )

    corrections = np.zeros((m + 1, n))
    converged = False
    mid_violation = None
    midpoint = max(1, opts.projection_max_sweeps // 2)
    for sweep in range(opts.projection_max_sweeps):
        x_sweep = x.copy()
        corr_sweep = corrections.copy()
        for i in range(m):
            w = x + corrections[i]
            viol = A[i] @ w - b[i]
            y = w - (viol / norms2[i]) * A[i] if viol > 0.0 else w
            corrections[i] = w - y
            x = y
        w = x + corrections[m]
        y = np.maximum(w, 0.0)
        corrections[m] = w - y
        x = y
        delta = max(
            float(np.max(np.abs(x - x_sweep))),
            float(np.max(np.abs(corrections - corr_sweep))),
        )
        if delta <= opts.projection_tol:
            converged = True
            break
        if sweep == midpoint:
            mid_violation = violation(x)

    if converged:
        return x
    residual = violation(x)
    if residual <= FEAS_TOL:
        return x
    shrinking = mid_violation is not None and residual < 0.9 * mid_violation
    if not shrinking:
        raise InfeasibleError(
            f"projection did not converge in {opts.projection_max_sweeps} sweeps "
            f"and the violation is not shrinking ({residual:.3e}); "
            "the polyhedron looks empty"
        )
    raise RuntimeError(
        f"projection still converging after {opts.projection_max_sweeps} sweeps "
        f"(violation {residual:.3e}); raise projection_max_sweeps for this geometry"
    )


def _default_starts(q: CrispQP, opts: SolverOptions) -> list[np.ndarray]:
    rng = np.random.default_rng(opts.seed)
    scale = max(1.0, float(np.max(np.abs(q.b))) if q.b.size else 1.0)
    random_pts = rng.uniform(0.0, scale, size=(8, q.n))
    return [np.zeros(q.n), *random_pts]


def _pg_run(q, x0, step, opts, callback):
    x = x0
    if callback is not None:
        callback(x)
    for k in range(opts.max_iter):
        y = x - step * gradient(q, x)
        x_new = project(y, q.A, q.b, opts)
        if callback is not None:
            callback(x_new)
        if np.max(np.abs(x_new)) > UNBOUNDED_LIMIT:
            raise UnboundedError(
                f"iterate magnitude exceeded {UNBOUNDED_LIMIT:.0e}; "
                "instance appears unbounded below"
            )
        if np.max(np.abs(x_new - x)) <= opts.tol:
            return x_new, k + 1, True
        x = x_new
    return x, opts.max_iter, False


def solve_pg(
    q: CrispQP,
    opts: SolverOptions | None = None,
    callback: Callable[[np.ndarray], None] | None = None,
) -> QpSolution:
    """Fixed-step projected gradient descent on a crisp QP.

    The step is 1/K with K the spectral norm of Q (for Q = 0 the instance
    is an LP and the step falls back to 1/max(||c||, 1)).  A PSD Q runs a
    single start; an indefinite Q runs every multistart point and the best
    objective among converged runs is returned, ties broken toward the
    lexicographically smallest argmin.  Non-convergence is reported via
    the converged flag, never hidden.
    """
    opts = opts or SolverOptions()
    step, convex = _step_rule(q)

    if opts.multistart is not None:
        starts = [np.asarray(p, dtype=float) for p in opts.multistart]
    else:
        starts = _default_starts(q, opts)
    if convex:
        starts = starts[:1]

    best = None
    for x0 in starts:
        if x0.shape != (q.n,):
            raise ValueError(f"start point must have shape ({q.n},), got {x0.shape}")
        x0 = project(x0, q.A, q.b, opts)
        x, iters, converged = _pg_run(q, x0, step, opts, callback)
        z = objective(q, x)
        run = (x, z, iters, converged)
        if best is None or _better_run(run, best):
            best = run

    x, z, iters, converged = best
    return QpSolution(
        x=x, z=z, iterations=iters, converged=converged,
        stationarity=_stationarity(q, x, step, opts), convex=convex,
    )


def _better_run(run, best) -> bool:
    _, z, _, converged = run
    _, z_best, _, conv_best = best
    if converged != conv_best:
        return converged
    if abs(z - z_best) > 1e-12:
        return z < z_best
    return tuple(run[0]) < tuple(best[0])


def solve_oracle(q: CrispQP, opts: SolverOptions | None = None) -> QpSolution:
    """Independent small-scale solve by enumerating active-set candidates.

    For every subset S of the m + n constraints (rows of A and the bounds
    x_j >= 0) with |S| <= n, the equality-constrained stationarity system

        [Q  E']  [x ]   [-c]
        [E  0 ]  [mu] = [ d]

    is solved, where E x = d pins the members of S.  Feasible solutions
    are kept (vertices arise as the |S| = n systems) and the one with the
    least objective wins.  For PSD Q this is the global optimum; for
    indefinite Q it is the best stationary/vertex point.  Singular
    subsets are skipped.
    """
    opts = opts or SolverOptions()
    n, m = q.n, q.m
    if n > ORACLE_MAX_N:
        raise ValueError(f"enumeration oracle supports n <= {ORACLE_MAX_N}, got n = {n}")

    # Constraint catalogue: index i < m is row i of A, index m + j is x_j >= 0.
    def constraint_row(idx):
        if idx < m:
            return q.A[idx], q.b[idx]
        e = np.zeros(n)
        e[idx - m] = 1.0
        return e, 0.0

    candidates = []
    examined = 0
    for size in range(0, n + 1):
        for subset in combinations(range(m + n), size):
            E = np.empty((size, n))
            d = np.empty(size)
            for r, idx in enumerate(subset):
                E[r], d[r] = constraint_row(idx)
            kkt = np.zeros((n + size, n + size))
            kkt[:n, :n] = q.Q
            kkt[:n, n:] = E.T
            kkt[n:, :n] = E
            rhs = np.concatenate([-q.c, d])
            examined += 1
            try:
                sol = np.linalg.solve(kkt, rhs)
            except np.linalg.LinAlgError:
                continue
            if not np.all(np.isfinite(sol)):
                continue
            if np.max(np.abs(kkt @ sol - rhs)) > 1e-8 * (1.0 + np.max(np.abs(rhs))):
                continue
            x = sol[:n]
            if np.all(x >= -1e-9) and np.all(q.A @ x <= q.b + 1e-9):
                candidates.append((x, objective(q, x)))

    if not candidates:
        raise InfeasibleError("no feasible stationary or vertex candidate found")

    best_x, best_z = candidates[0]
    for x, z in candidates[1:]:
        if z < best_z - 1e-12 or (abs(z - best_z) <= 1e-12 and tuple(x) < tuple(best_x)):
            best_x, best_z = x, z

    step, convex = _step_rule(q)
    return QpSolution(
        x=best_x, z=best_z, iterations=examined, converged=True,
        stationarity=_stationarity(q, best_x, step, opts), convex=convex,
    )
