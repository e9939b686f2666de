"""Crisp QP solving: projected gradient descent plus an enumeration oracle.

The main path (solve_pg) is fixed-step projected gradient with step 1/K,
where K is the spectral norm of Q (the gradient's Lipschitz constant).
One eigvalsh per crisp QP gives both K and whether Q is PSD.
Each step projects onto the feasible set {Ax <= b, x >= 0} exactly, by a
dual active-set method (Goldfarb-Idnani) warm-started from the previous
step's active set; an empty set is reported with a Farkas certificate.

solve_oracle independently enumerates active-set candidates (stationarity
systems over every subset of the m + n constraints), which yields the
global optimum for convex instances of modest size and serves as the
verification route for solve_pg.
"""
from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass
from itertools import combinations, compress
from typing import Callable

import numpy as np

from .problem import CrispQP

UNBOUNDED_LIMIT = 1e8
ORACLE_MAX_N = 8


class InfeasibleError(RuntimeError):
    """The feasible polyhedron is empty.

    certificate, when known, is a Farkas vector mu >= 0 over the rows of
    [A; -I] (the m rows of A, then the n bounds -x <= 0) with
    A'mu_A - mu_I = 0 and b'mu_A < 0.
    """

    def __init__(self, message: str, certificate: np.ndarray | None = None):
        super().__init__(message)
        self.certificate = certificate


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

    projection_tol and projection_max_sweeps are still validated but no
    longer change any result: projections are exact and finite.
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


def _stationarity(q: CrispQP, x: np.ndarray, step: float,
                  warm: _Projector | None = None) -> float:
    """Fixed-point residual ||x - P(x - step * grad)||_inf of the PG map."""
    y = project(x - step * gradient(q, x), q.A, q.b, _warm=warm)
    return float(np.max(np.abs(x - y)))


def project(x, A, b, opts: SolverOptions | None = None,
            _warm: _Projector | None = None) -> np.ndarray:
    """Exact Euclidean projection of x onto {y: Ay <= b, y >= 0}.

    Already-feasible points are returned unchanged.  Otherwise the
    projection's dual is solved by a finite active-set method (see
    _Projector), so the result satisfies the KKT conditions up to
    rounding.  An empty polyhedron raises InfeasibleError carrying a
    Farkas certificate.  opts is accepted for compatibility; no option
    changes the result.  _warm is a _Projector built from the same A and
    b, which carries the active set from one call to the next.
    """
    if _warm is not None:
        return x if _feasible(x, A, b) else _warm(x)
    x = np.asarray(x, dtype=float).copy()
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    n = x.shape[0]
    if A.size == 0:
        A = A.reshape(0, n)
    if A.shape[1] != n or b.shape != (A.shape[0],):
        raise ValueError("A, b dimensions do not match x")
    return x if _feasible(x, A, b) else _Projector(A, b)(x)


def _feasible(x: np.ndarray, A: np.ndarray, b: np.ndarray) -> bool:
    """Ax <= b and x >= 0, exactly."""
    return (A @ x - b).max(initial=0.0) <= 0.0 and x.min() >= 0.0


class _Projector:
    """Projection onto {y: Ay <= b, y >= 0} for one (A, b), warm across calls.

    With G = [A; -I] and h = [b; 0] (rows of A scaled to unit norm, zero
    rows dropped) the projection of x is y = x - G'mu, where mu >= 0
    minimises (1/2)||x - G'mu||^2 + h'mu.  That dual is solved by the
    active-set method of Goldfarb and Idnani (1983) with identity Hessian:
    starting from a set P of independent rows with y tight on them and
    mu_P >= 0, the most violated row p is added; the step along the part
    of p's normal orthogonal to the rows of P either makes p tight (p
    joins P) or first drives some mu_j to zero (j leaves P).  If p's
    normal lies in the span of P and no mu_j can shrink, the dual is
    unbounded: mu = (1 on p, -r on P) is a Farkas certificate and
    InfeasibleError is raised.

    For a fixed P the multipliers are affine in x, mu_P = K x - k, and
    y = x - G_P' mu_P; K and k are built once per set (by QR of G_P') and
    cached.  Every call starts from the set the previous call ended on,
    less any rows whose multipliers come out negative at the new x; once
    projected gradient settles, a projection is one affine map plus a sign
    and a feasibility check.
    """

    def __init__(self, A: np.ndarray, b: np.ndarray):
        m, n = A.shape
        norms = np.sqrt(np.einsum("ij,ij->i", A, A))
        zero = norms == 0.0
        unsatisfiable = np.flatnonzero(zero & (b < 0.0))
        if unsatisfiable.size:
            i = int(unsatisfiable[0])
            certificate = np.zeros(m + n)
            certificate[i] = 1.0
            raise InfeasibleError(
                f"row {i} of A is zero and b[{i}] = {float(b[i])!r} < 0", certificate
            )
        keep = np.flatnonzero(~zero)
        self.first_bound = keep.size  # rows of G from here on are the bounds -y <= 0
        self.G = np.vstack([A[keep] / norms[keep, None], -np.eye(n)])
        self.h = np.concatenate([b[keep] / norms[keep], np.zeros(n)])
        # Row i of G is row origin[i] of [A; -I] divided by scale[i].
        self.origin = np.concatenate([keep, m + np.arange(n)])
        self.scale = np.concatenate([norms[keep], np.ones(n)])
        # A row counts as violated beyond tol + 1e-12 * ||x||_inf; below that
        # the residual of a tight row is rounding.
        self.tol = 1e-12 * (1.0 + float(np.max(np.abs(self.h), initial=0.0)))
        self.active: tuple[int, ...] = ()
        self._faces: dict[tuple[int, ...], tuple[np.ndarray, ...]] = {}

    def _face(self, P: tuple[int, ...]) -> tuple:
        """(K, k, G_P', pinned) for the active set P: mu_P = K x - k, and
        pinned lists the variables that an active bound holds at zero."""
        face = self._faces.get(P)
        if face is None:
            rows = list(P)
            Gt = self.G[rows].T
            Qr, R = np.linalg.qr(Gt)
            R_inv = np.linalg.inv(R)  # R is invertible: the rows of P are independent
            K = R_inv @ Qr.T
            k = R_inv @ (R_inv.T @ self.h[rows])
            pinned = [i - self.first_bound for i in P if i >= self.first_bound]
            face = self._faces[P] = (K, k, Gt, pinned)
        return face

    @staticmethod
    def _point(x, mu, Gt, pinned) -> np.ndarray:
        """y = x - G_P' mu_P, with pinned variables exactly zero."""
        y = x - Gt @ mu
        if pinned:
            y[pinned] = 0.0
        return y

    def __call__(self, x: np.ndarray) -> np.ndarray:
        P = self.active
        while True:
            K, k, Gt, pinned = self._face(P)
            mu = K @ x - k
            if mu.min(initial=0.0) >= 0.0:
                break
            P = tuple(compress(P, (mu >= 0.0).tolist()))
        y = self._point(x, mu, Gt, pinned)
        s = self.G @ y - self.h
        if s.max() <= self.tol:
            self.active = P
            return y
        tol = self.tol + 1e-12 * float(np.abs(x).max())
        # Each added row raises the dual objective, so no set repeats; the
        # bound only stops a cycle that rounding might cause.
        for _ in range(10 * len(self.h)):
            s[list(P)] = -np.inf
            p = int(np.argmax(s))
            if s[p] <= tol:
                break
            P, mu, y = self._add(P, mu, y, p, float(s[p]))
            s = self.G @ y - self.h
        else:
            raise RuntimeError("active-set projection is cycling")
        self.active = P
        K, k, Gt, pinned = self._face(P)
        return self._point(x, K @ x - k, Gt, pinned)

    def _add(self, P, mu, y, p, violation):
        """Make row p tight, dropping rows whose multipliers reach zero on the way."""
        g = self.G[p]
        mu_p = 0.0
        while True:
            K, _, Gt, _ = self._face(P)
            r = K @ g
            z = g - Gt @ r
            zz = float(z @ z)
            step = violation / zz if zz > 1e-24 else np.inf
            shrinking = np.flatnonzero(r > 0.0)
            drop = None
            if shrinking.size:
                ratios = mu[shrinking] / r[shrinking]
                j = int(np.argmin(ratios))
                if ratios[j] < step:
                    step, drop = float(ratios[j]), int(shrinking[j])
            if step == np.inf:
                self._raise_infeasible(P, r, p)
            y = y - step * z
            mu = mu - step * r
            mu_p += step
            violation -= step * zz
            if drop is None:
                at = bisect(P, p)
                return P[:at] + (p,) + P[at:], np.concatenate((mu[:at], [mu_p], mu[at:])), y
            P = P[:drop] + P[drop + 1:]
            mu = np.concatenate((mu[:drop], mu[drop + 1:]))

    def _raise_infeasible(self, P, r, p):
        lam = np.zeros(len(self.h))
        lam[list(P)] = -r
        lam[p] = 1.0
        certificate = np.zeros(len(self.origin))
        certificate[self.origin] = lam / self.scale
        raise InfeasibleError(
            "the polyhedron is empty: Farkas certificate mu >= 0 over the rows "
            f"of [A; -I] with A'mu_A - mu_I = 0 and b'mu_A = {float(self.h @ lam):.3e} < 0",
            certificate,
        )

    def multipliers(self, x: np.ndarray) -> np.ndarray:
        """KKT multipliers over the rows of [A; -I] for the set the last call ended on.

        With y the projection of x: x - y = A'mu_A - mu_I.
        """
        K, k, _, _ = self._face(self.active)
        full = np.zeros(len(self.origin))
        rows = list(self.active)
        full[self.origin[rows]] = (K @ x - k) / self.scale[rows]
        return full


def _default_starts(q: CrispQP, opts: SolverOptions) -> list[np.ndarray]:
    rng = np.random.default_rng(opts.seed)
    scale = max(1.0, float(np.max(np.abs(q.b))) if q.b.size else 1.0)
    random_pts = rng.uniform(0.0, scale, size=(8, q.n))
    return [np.zeros(q.n), *random_pts]


def _pg_run(q, x0, step, opts, callback, warm):
    x = x0
    if callback is not None:
        callback(x)
    for k in range(opts.max_iter):
        y = x - step * gradient(q, x)
        x_new = project(y, q.A, q.b, _warm=warm)
        if callback is not None:
            callback(x_new)
        if np.abs(x_new).max() > UNBOUNDED_LIMIT:
            raise UnboundedError(
                f"iterate magnitude exceeded {UNBOUNDED_LIMIT:.0e}; "
                "instance appears unbounded below"
            )
        if np.abs(x_new - x).max() <= opts.tol:
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
    elif convex:
        starts = [np.zeros(q.n)]  # the first default start; the random ones serve indefinite Q
    else:
        starts = _default_starts(q, opts)
    if convex:
        starts = starts[:1]

    warm = _Projector(q.A, q.b)
    best = None
    for x0 in starts:
        if x0.shape != (q.n,):
            raise ValueError(f"start point must have shape ({q.n},), got {x0.shape}")
        x0 = project(x0, q.A, q.b, _warm=warm)
        x, iters, converged = _pg_run(q, x0, step, opts, callback, warm)
        z = objective(q, x)
        run = (x, z, iters, converged)
        if best is None or _better_run(run, best):
            best = run

    x, z, iters, converged = best
    return QpSolution(
        x=x, z=z, iterations=iters, converged=converged,
        stationarity=_stationarity(q, x, step, warm), convex=convex,
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
    subsets are skipped.  opts is accepted for symmetry with solve_pg; no
    option changes the result.
    """
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
        stationarity=_stationarity(q, best_x, step), convex=convex,
    )
