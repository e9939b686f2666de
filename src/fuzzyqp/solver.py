"""Crisp QP solving: projected gradient descent plus an enumeration oracle.

The main path (solve_pg) is fixed-step projected gradient with step 1/K,
where K is the spectral norm of Q, or 1/max(||c||, 1) when Q = 0 (an LP).
One eigvalsh per crisp QP, in _spectrum, gives both K and whether Q is PSD.
Each step projects onto the feasible set {Ax <= b, x >= 0} exactly, by a
dual active-set method (Goldfarb-Idnani) warm-started from the previous
step's active set; an empty set is reported with a Farkas certificate.
A face with no row of A is written down, not factored (_bound_face).
A step's exact comparisons (feasibility, multiplier signs, the slack
test, the divergence and convergence tests) scan Python lists when
m + n <= SHORT_LEN and call numpy reductions otherwise; both decide as
numpy's max/min would, NaN included, so the iterates do not depend on the
choice.

On tiny problems numpy's per-call overhead costs more than the arithmetic,
so a step makes as few numpy calls as give the same bits:
  - The kernel rule (problem._product): a matrix-vector product goes
    through ndarray.dot, which dispatches faster than @, where the matrix
    has at least two columns and unit stride and the vector is aligned and
    of unit stride; there both reach the same BLAS kernel.  Every other
    product keeps @: on one column dot can keep a zero's sign where @ gives
    +0.0.  The product is chosen once per CrispQP (Qx), per projector (Ax,
    Gy) and per face (Kx), never per call.
  - The held face: a projector keeps the face its last call ended on with
    its product (_kernel), so a settled call looks nothing up.
  - Certificate data on demand: the map from G's rows back to the rows of
    [A; -I] (origin, scale) is built only for a Farkas certificate or
    multipliers, which no solve asks for.

solve_oracle independently enumerates active-set candidates (stationarity
systems over every subset of at most n of the m + n constraints, less the
subsets that pin one variable to two values no candidate can meet), which
yields the global optimum for convex instances with n <= ORACLE_MAX_N and
serves as the verification route for solve_pg.  The subsets are solved in
blocks of a fixed byte size (ORACLE_BLOCK_BYTES), so memory does not grow
with the number of subsets.  A block is one call of numpy's private
_umath_linalg.solve1, the gufunc behind np.linalg.solve: one gesv per
system both finds an exact zero pivot and solves, and a singular system
comes back as NaN where np.linalg.solve would raise.  Its converged flag
says whether the winner is a projected-gradient fixed point, which fails
on instances unbounded below.
"""
from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import compress
from math import comb
from typing import Callable

import numpy as np
from numpy.linalg._umath_linalg import solve1 as _solve1

from .problem import CrispQP, _product, _read_only, check_finite

UNBOUNDED_LIMIT = 1e8
ORACLE_MAX_N = 8
# Stacked KKT matrices per batched solve in solve_oracle: 1 MB keeps the
# per-call overhead small without letting memory grow with C(m + n, n).
ORACLE_BLOCK_BYTES = 1 << 20
# A crisp QP with m + n at most this makes its projected-gradient
# comparisons by _ListChecks, a longer one by _ArrayChecks.  Measured per
# call, a Python scan beats a numpy reduction up to about 32 entries and
# loses from 48 on.  Either form alone slows a perfbench workload: arrays
# for every size make fixture-cli (m + n = 4) 29% slower, lists for every
# size make wide-interior (m + n = 120) 5% slower.
SHORT_LEN = 32
_BOUND_FACES, _BOUND_FACE_N = 256, 32  # the size of _bound_face's cache
# Two objective values closer than this tie (_beats).
_TIE = 1e-12
_U = np.finfo(float).eps / 2  # the unit roundoff


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

    projection_tol and projection_max_sweeps are deprecated no-ops: they
    are still validated but change no result, since projections are exact
    and finite.  __post_init__ is the one check of every value, the CLI's
    flags included: a NaN or infinite tol or point raises, as does seed < 0.
    """

    tol: float = 1e-9
    max_iter: int = 100_000
    multistart: tuple[tuple[float, ...], ...] | None = None
    projection_tol: float = 1e-10
    projection_max_sweeps: int = 10_000
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.tol < np.inf:  # False for a NaN too
            raise ValueError("tol must be positive and finite")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if not 0 < self.projection_tol < np.inf:
            raise ValueError("projection_tol must be positive and finite")
        if self.projection_max_sweeps < 1:
            raise ValueError("projection_max_sweeps must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.multistart is not None:
            pts = tuple(tuple(float(v) for v in p) for p in self.multistart)
            if not pts or not all(np.isfinite(p).all() for p in pts):
                raise ValueError("multistart must contain at least one point, all finite")
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
    if x.shape != q.c.shape:
        raise ValueError(f"x must have shape ({q.n},), got {x.shape}")
    # the kernel rule's product wants an aligned unit-stride x; carray also
    # asks for a writeable one, which every iterate is
    return q.c + (q._Qx(x) if x.flags.carray else q.Q @ x)


_max = np.maximum.reduce
_min = np.minimum.reduce


def lipschitz_constant(Q) -> float:
    """Spectral norm of a symmetric matrix; 1.0 for the zero matrix.

    One eigvalsh per crisp QP gives both K and convexity (see is_convex).
    """
    return _spectrum(Q)[0] or 1.0


def is_convex(Q) -> bool:
    """Whether the symmetric matrix Q is PSD within a small relative tolerance."""
    return _spectrum(Q)[1]


def _spectrum(Q) -> tuple[float, bool]:
    """(K, convex) from one eigvalsh: the spectral norm and PSD-ness of Q.

    The zero matrix takes no eigvalsh: K = 0.0, and it counts as convex.
    This is the one zero test of Q; callers read K = 0 as Q = 0.
    """
    Q = np.asarray(Q, dtype=float)
    q_max = float(_max(np.abs(Q), axis=None, initial=0.0))
    if not q_max:  # Q = 0; a NaN entry is no zero
        return 0.0, True
    eig = np.linalg.eigvalsh(Q)
    lo, hi = float(eig[0]), float(eig[-1])  # ascending: max|eig| is at an end
    return max(abs(lo), abs(hi)), lo >= -1e-10 * max(1.0, q_max)


def _step_rule(q: CrispQP) -> tuple[float, bool]:
    """(step, convex): step 1/K, or 1/max(||c||, 1) when K = 0 (Q = 0, an LP)."""
    K, convex = _spectrum(q.Q)
    return 1.0 / (K or max(float(np.linalg.norm(q.c)), 1.0)), convex


def _stationarity(q: CrispQP, x: np.ndarray, step: float,
                  warm: _Projector | None = None) -> float:
    """Fixed-point residual ||x - P(x - step * grad)||_inf of the PG map."""
    y = project(x - step * gradient(q, x), q.A, q.b, _warm=warm)
    return float(_max(np.abs(x - y)))


def project(x, A, b, opts: SolverOptions | None = None,
            _warm: _Projector | None = None) -> np.ndarray:
    """Exact Euclidean projection of x onto {y: Ay <= b, y >= 0}.

    Already-feasible points are returned unchanged.  Otherwise the
    projection's dual is solved by a finite active-set method (see
    _Projector), so the result satisfies the KKT conditions up to
    rounding.  An empty polyhedron raises InfeasibleError carrying a
    Farkas certificate.  A NaN or infinite entry in x, A or b raises
    ValueError, in CrispQP's words.  opts is a deprecated no-op, accepted
    for compatibility.  _warm is a _Projector built from the same A and b,
    which carries the active set from one call to the next.
    """
    if _warm is None:
        x = np.asarray(x, dtype=float).copy()
        A = np.atleast_2d(np.asarray(A, dtype=float))
        b = np.atleast_1d(np.asarray(b, dtype=float))
        n = x.shape[0]
        if A.size == 0:
            A = A.reshape(0, n)
        if A.shape[1] != n or b.shape != (A.shape[0],):
            raise ValueError("A, b dimensions do not match x")
        check_finite(x=x, A=A, b=b)
        _warm = _Projector(A, b)
    return x if _warm.contains(x) else _warm(x)


class _ListChecks:
    """The exact comparisons of a projected-gradient step, on short vectors.

    Each takes its vectors in this class's form, vector(v) = v.tolist(), and
    scans them in a Python loop, which costs less than a numpy call's
    overhead while v has a few dozen entries.  Python's float arithmetic is
    numpy's, so diff_max_le's u - v has numpy's bits.  Each decides as the
    numpy reduction does: False when a NaN is involved (Python's max() can
    step over a NaN, so none is used), and diff_max_le and min_ge hold for
    an empty vector.
    """

    vector = staticmethod(np.ndarray.tolist)

    @staticmethod
    def diff_max_le(u: list, v: list, t: float) -> bool:
        """max(u - v) <= t."""
        for a, b in zip(u, v):
            if not a - b <= t:
                return False
        return True

    @staticmethod
    def min_ge(v: list, t: float) -> bool:
        """min(v) >= t."""
        for e in v:
            if not e >= t:
                return False
        return True

    @staticmethod
    def abs_max_gt(v: list, t: float) -> bool:
        """max|v| > t."""
        for e in v:
            if not abs(e) <= t:  # beyond t, or NaN
                return all(e == e for e in v)  # numpy's max is NaN if any entry is
        return False

    @staticmethod
    def dist_le(u: list, v: list, t: float) -> bool:
        """max|u - v| <= t."""
        for a, b in zip(u, v):
            if not abs(a - b) <= t:
                return False
        return True


class _ArrayChecks:
    """_ListChecks by numpy reductions, for vectors too long to scan in
    Python: the vector form of an array is the array."""

    @staticmethod
    def vector(v: np.ndarray) -> np.ndarray:
        return v

    @staticmethod
    def diff_max_le(u: np.ndarray, v: np.ndarray, t: float) -> bool:
        return _max(u - v, initial=-np.inf) <= t

    @staticmethod
    def min_ge(v: np.ndarray, t: float) -> bool:
        return _min(v, initial=np.inf) >= t

    @staticmethod
    def abs_max_gt(v: np.ndarray, t: float) -> bool:
        return _max(np.abs(v)) > t

    @staticmethod
    def dist_le(u: np.ndarray, v: np.ndarray, t: float) -> bool:
        return _max(np.abs(u - v)) <= t


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
    y = x - G_P' mu_P; K and k are built once per set and cached: by QR of
    G_P' for a set that holds a row of A, and in closed form by _bound_face
    (shared by all projectors for n <= 32) for the empty set or bounds only.
    Every call starts from the set the previous call ended on, less any
    rows whose multipliers come out negative at the new x; once projected
    gradient settles, a projection is one affine map plus a sign and a
    feasibility check.

    The projector holds that face as _kernel gives it, with the product
    v -> Kv chosen once by the kernel rule (problem._product; Ax and Gy
    likewise, in the constructor), so a settled call does no lookup.  Both
    ways out of a call, settled or after rows are added, take their point
    from the held face by _point.  origin and scale, which map G's rows back
    to [A; -I] for the Farkas certificate and multipliers, are built on
    demand.
    """

    def __init__(self, A: np.ndarray, b: np.ndarray):
        m, n = A.shape
        self.A, self.b = A, b
        self.checks = _ListChecks if m + n <= SHORT_LEN else _ArrayChecks
        norms = np.sqrt(np.einsum("ij,ij->i", A, A))
        self._keep = None
        if np.count_nonzero(norms) < m:  # zero rows are dropped, once none has b < 0
            zero = norms == 0.0
            if (unsatisfiable := np.flatnonzero(zero & (b < 0.0))).size:
                i = int(unsatisfiable[0])
                certificate = np.zeros(m + n)
                certificate[i] = 1.0
                raise InfeasibleError(
                    f"row {i} of A is zero and b[{i}] = {float(b[i])!r} < 0", certificate
                )
            self._keep = keep = np.flatnonzero(~zero)
            A, b, norms = A[keep], b[keep], norms[keep]
        self._norms = norms
        self.first_bound = k = len(norms)  # rows of G from here on are the bounds -y <= 0
        self.G, self.h = np.empty((k + n, n)), np.zeros(k + n)
        np.divide(A, norms[:, None], out=self.G[:k])
        np.divide(b, norms, out=self.h[:k])
        self.G[k:] = (_neg_eye if n <= _BOUND_FACE_N else _neg_eye.__wrapped__)(n)
        # A row counts as violated beyond tol + 1e-12 * ||x||_inf; below that
        # the residual of a tight row is rounding.
        self.tol = 1e-12 * (1.0 + max(map(abs, self.h.tolist())))
        self._Ax, self._Gy = _product(self.A), _product(self.G)
        # b and h in the form the checks compare them in
        self._b, self._h = self.checks.vector(self.b), self.checks.vector(self.h)
        self._held = None  # the empty face until a call ends on another
        self._faces: dict[tuple[int, ...], tuple] = {}
        self._kernels: dict[tuple[int, ...], tuple] = {}

    @cached_property
    def origin(self) -> np.ndarray:
        """Row i of G is row origin[i] of [A; -I] divided by scale[i]; both
        are built on demand, for a Farkas certificate or multipliers."""
        m, n = self.A.shape
        return np.arange(m + n) if self._keep is None else np.concatenate([self._keep, m + np.arange(n)])

    @cached_property
    def scale(self) -> np.ndarray:
        return np.concatenate([self._norms, np.ones(self.A.shape[1])])

    @property
    def active(self) -> tuple[int, ...]:
        """The active set the last call ended on."""
        return self._held[0] if self._held else ()

    def contains(self, x: np.ndarray) -> bool:
        """Ax <= b and x >= 0, exactly."""
        vector = self.checks.vector
        return (self.checks.diff_max_le(vector(self._Ax(x)), self._b, 0.0)
                and self.checks.min_ge(vector(x), 0.0))

    def _face(self, P: tuple[int, ...]) -> tuple:
        """(K, k, G_P', pinned) for the active set P: mu_P = K x - k, and
        pinned lists the variables that an active bound holds at zero."""
        face = self._faces.get(P)
        if face is None:
            n, first = self.G.shape[1], self.first_bound
            if not P or P[0] >= first:  # no row of A (P is sorted)
                build = _bound_face if n <= _BOUND_FACE_N else _bound_face.__wrapped__
                face = build(n, tuple(i - first for i in P))
            else:
                rows = list(P)
                Gt = self.G[rows].T
                Qr, R = np.linalg.qr(Gt)
                R_inv = np.linalg.inv(R)  # R is invertible: the rows of P are independent
                face = (R_inv @ Qr.T, R_inv @ (R_inv.T @ self.h[rows]), Gt,
                        [i - first for i in P if i >= first])
            self._faces[P] = face
        return face

    def _kernel(self, P: tuple[int, ...]) -> tuple:
        """(P, v -> Kv, k, G_P', pinned): the face of P as the projector holds
        it, its product chosen once by the kernel rule."""
        kernel = self._kernels.get(P)
        if kernel is None:
            K, k, Gt, pinned = self._face(P)
            kernel = self._kernels[P] = (P, _product(K), k, Gt, pinned)
        return kernel

    @staticmethod
    def _point(x, mu, Gt, pinned) -> np.ndarray:
        """y = x - G_P' mu_P, with pinned variables exactly zero."""
        y = x - Gt @ mu
        if len(pinned):
            y[pinned] = 0.0
        return y

    def __call__(self, x: np.ndarray) -> np.ndarray:
        checks = self.checks
        held = self._held or self._kernel(())
        while True:
            P, Kx, k, Gt, pinned = held
            mu = Kx(x) - k
            if checks.min_ge(checks.vector(mu), 0.0):
                break
            held = self._kernel(tuple(compress(P, (mu >= 0.0).tolist())))
        y = self._point(x, mu, Gt, pinned)
        if checks.diff_max_le(checks.vector(self._Gy(y)), self._h, self.tol):
            self._held = held
            return y
        s = self._Gy(y) - self.h
        tol = self.tol + 1e-12 * float(np.abs(x).max())
        # Each added row raises the dual objective, so no set repeats; the
        # bound only stops a cycle that rounding might cause.
        for _ in range(10 * len(self.h)):
            s[list(P)] = -np.inf
            p = int(np.argmax(s))
            if s[p] <= tol:
                break
            P, mu, y = self._add(P, mu, y, p, float(s[p]))
            s = self._Gy(y) - self.h
        else:
            raise RuntimeError("active-set projection is cycling")
        P, Kx, k, Gt, pinned = self._held = self._kernel(P)
        return self._point(x, Kx(x) - k, Gt, pinned)

    def _add(self, P, mu, y, p, violation):
        """Make row p tight, dropping rows whose multipliers reach zero on the way."""
        g = self.G[p]
        mu_p = 0.0
        while True:
            _, Kx, _, Gt, _ = self._kernel(P)
            r = Kx(g)
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
        certificate = np.zeros(sum(self.A.shape))  # over the m + n rows of [A; -I]
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
        P, Kx, k, _, _ = self._held or self._kernel(())
        full = np.zeros(sum(self.A.shape))
        rows = list(P)
        full[self.origin[rows]] = (Kx(x) - k) / self.scale[rows]
        return full


@lru_cache(maxsize=_BOUND_FACES)
def _bound_face(n: int, bounds: tuple[int, ...]) -> tuple:
    """_Projector._face, read-only, of the bounds -y_j <= 0, j in bounds (none
    for the empty face), in n variables: G_P = -I[bounds] and h_P = 0, so
    mu_P = -x[bounds], K = -I[bounds] with +0.0 elsewhere and k = +0.0.
    That is byte for byte the face a QR of G_P' gives: each Householder
    reflector of a signed unit column is an exact signed swap, so R is
    diagonal +-1 and R^-1 Q' is exact.  For n <= _BOUND_FACE_N one face
    serves every projector: the cache keeps the _BOUND_FACES most recently
    used faces of at most 2n(n + 1) floats each, under 4.5 MB in all."""
    j = list(bounds)
    K = np.zeros((len(j), n))
    K[np.arange(len(j)), j] = -1.0
    G_P = -np.eye(n)[j]  # the rows of G past first_bound
    return _read_only(K, np.zeros(len(j)), G_P.T, np.array(j, dtype=np.intp))


@lru_cache(maxsize=_BOUND_FACE_N)
def _neg_eye(n: int) -> np.ndarray:
    """-I in n variables, read-only, -0.0 off the diagonal: the bound rows of
    G, copied from here into each projector for n <= _BOUND_FACE_N."""
    return _read_only(-np.eye(n))[0]


def _default_starts(q: CrispQP, opts: SolverOptions) -> list[np.ndarray]:
    rng = np.random.default_rng(opts.seed)
    scale = max(1.0, float(np.max(np.abs(q.b))) if q.b.size else 1.0)
    random_pts = rng.uniform(0.0, scale, size=(8, q.n))
    return [np.zeros(q.n), *random_pts]


def _pg_run(q, x0, step, opts, callback, warm):
    x = x0
    if callback is not None:
        callback(x)
    # float: a Python float compared with a float32 tol would round to float32
    checks, tol = warm.checks, float(opts.tol)
    vector = checks.vector
    v = vector(x)  # x in the checks' form, taken once per iterate
    for k in range(opts.max_iter):
        y = x - step * gradient(q, x)
        x_new = project(y, q.A, q.b, _warm=warm)
        if callback is not None:
            callback(x_new)
        v_new = vector(x_new)
        if checks.abs_max_gt(v_new, UNBOUNDED_LIMIT):
            raise UnboundedError(
                f"iterate magnitude exceeded {UNBOUNDED_LIMIT:.0e}; "
                "instance appears unbounded below"
            )
        if checks.dist_le(v_new, v, tol):
            return x_new, k + 1, True
        x, v = x_new, v_new
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
    x, z, _, converged = run
    x_best, z_best, _, conv_best = best
    if converged != conv_best:
        return converged
    return _beats(x, z, x_best, z_best)


def _beats(x, z, x_best, z_best) -> bool:
    """The tie rule of both solvers: the lower z beyond _TIE wins, and
    otherwise the lexicographically smaller x."""
    if abs(z - z_best) > _TIE:
        return z < z_best
    return tuple(x) < tuple(x_best)


def solve_oracle(q: CrispQP, opts: SolverOptions | None = None) -> QpSolution:
    """Independent small-scale solve by enumerating active-set candidates.

    For every subset S of the m + n constraints (rows of A and the bounds
    x_j >= 0) with |S| <= n, the equality-constrained stationarity system

        [Q  E']  [x ]   [-c]
        [E  0 ]  [mu] = [ d]

    is solved, where E x = d pins the members of S.  Solutions that are
    finite, solve their system to a relative residual of 1e-8 and are
    feasible to 1e-9 are kept (vertices arise as the |S| = n systems);
    the one with the least objective wins, ties within 1e-12 going to the
    lexicographically smallest x.  For PSD Q this is the global optimum;
    for indefinite Q it is the best stationary/vertex point.

    Subsets that can yield no candidate are skipped: those holding a
    conflict pair (_conflict_pairs), two rows that pin one variable to
    values the residual filter never accepts together.  iterations still
    counts every subset of at most n constraints, skipped or solved.  The
    subsets of each size are built from those of the size before
    (_next_level), in the lexicographic order of itertools.combinations,
    and solved in blocks of about ORACLE_BLOCK_BYTES of stacked KKT
    matrices, so memory stays bounded at every n <= ORACLE_MAX_N.  Each
    block is one batched call of the gufunc behind np.linalg.solve, which
    does not raise on a singular system: one gesv per system finds a zero
    pivot and solves, and a singular system is dropped.  Only the
    candidates of a block whose batched objective could still win
    (_contenders) go through the tie rule one by one.

    converged is True when the winner is a fixed point of the projected
    gradient map, stationarity <= 1e-8 * (1 + max|x|).  On an instance
    unbounded below the winner is only the best of finitely many
    candidates, not a stationary point, and converged is False.  An empty
    polyhedron raises InfeasibleError with the Farkas certificate that
    project finds.  opts is a deprecated no-op, accepted for symmetry
    with solve_pg.
    """
    n, m = q.n, q.m
    if n > ORACLE_MAX_N:
        raise ValueError(f"enumeration oracle supports n <= {ORACLE_MAX_N}, got n = {n}")

    # Constraint catalogue: row i < m is row i of A, row m + j is x_j >= 0.
    rows = np.vstack([q.A, np.eye(n)])
    bounds = np.concatenate([q.b, np.zeros(n)])
    conflict = _conflict_pairs(q, rows, bounds)
    best_x = best_z = None
    level = np.empty((1, 0), dtype=np.intp)  # the one subset of size 0
    for size in range(0, n + 1):
        if size:
            level = _next_level(level, conflict)
        dim = n + size
        block = max(1, ORACLE_BLOCK_BYTES // (8 * dim * dim))
        for start in range(0, len(level), block):
            S = level[start:start + block]
            x = _kkt_candidates(q, rows[S], bounds[S])
            if not len(x):
                continue
            if best_x is None:
                best_x, best_z = x[0], objective(q, x[0])
            for i in _contenders(q, x, best_z):
                z = objective(q, x[i])
                if _beats(x[i], z, best_x, best_z):
                    best_x, best_z = x[i], z

    if best_x is None:
        project(np.zeros(n), q.A, q.b)  # an empty polyhedron raises with a certificate here
        raise InfeasibleError("no feasible stationary or vertex candidate found")

    step, convex = _step_rule(q)
    stationarity = _stationarity(q, best_x, step)
    return QpSolution(
        x=best_x, z=best_z, iterations=sum(comb(m + n, k) for k in range(n + 1)),
        converged=stationarity <= 1e-8 * (1.0 + float(np.max(np.abs(best_x)))),
        stationarity=stationarity, convex=convex,
    )


def _conflict_pairs(q: CrispQP, rows: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """(N, N) bool over the N rows of [A; I]: True where two rows have their
    one nonzero in the same column j and pin x_j to values d/a that no
    candidate of _kkt_candidates can meet together.

    Its residual filter keeps a solution only if every row of the computed
    residual is at most t = fl(1e-8 * (1 + max|rhs|)), and rhs = [-c; d]
    with d drawn from [b; 0], so t <= tau (1 + u)^2 with
    tau = 1e-8 * (1 + max(||c||, ||b||)) (infinity norms, u the unit
    roundoff).  A row pinning x_j by a x_j = d has the residual entry
    fl(fl(a x_j) - d): the other terms of its product with the KKT matrix
    are exact zeros.  So |fl(a x_j) - d| <= t / (1 - u), and with
    |a x_j - fl(a x_j)| <= u |a x_j|,

        |x_j - v| <= t / ((1 - u)^2 |a|) + u |v| / (1 - u) < 1.01 (tau / |a| + u |v|)

    for v = d / a.  Two rows both met by one x_j thus have
    |v1 - v2| < 1.01 (tau (1/|a1| + 1/|a2|) + u (|v1| + |v2|)).  The test
    below asks for more than twice that, 2 tau / |a| + 4 u |v| per row,
    which covers the rounding of v and of the test itself; the absolute
    term 4 * tiny covers results that fall below the normal range.  A NaN
    or infinite term never conflicts.  Rows that can both be met, such as
    equal pinned values, are never paired: pruning one of those subsets
    could change which rounding artefact wins a tie.
    """
    N = len(rows)
    nonzero = rows != 0
    j = nonzero.argmax(axis=1)
    col = np.where(nonzero.sum(axis=1) == 1, j, -1 - np.arange(N))  # no shared column unless single
    a = rows[np.arange(N), j]
    tau = 1e-8 * (1.0 + max(_max(np.abs(q.c), initial=0.0), _max(np.abs(q.b), initial=0.0)))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
        v = bounds / a
        reach = 2.0 * tau / np.abs(a) + 4.0 * _U * np.abs(v) + 4.0 * np.finfo(float).tiny
        return (col[:, None] == col[None, :]) & (
            np.abs(v[:, None] - v[None, :]) > reach[:, None] + reach[None, :]
        )


def _next_level(level: np.ndarray, conflict: np.ndarray) -> np.ndarray:
    """The subsets one larger than the rows of level, without those that
    hold a conflict pair.

    level holds increasing index rows in lexicographic order.  Each row is
    followed by every larger index in turn, which is the order of
    itertools.combinations, and a pruned subset is never extended, so no
    superset of a conflict pair is built.
    """
    k, s = level.shape
    last = level[:, -1] if s else np.full(k, -1)
    counts = len(conflict) - 1 - last
    parent = np.repeat(np.arange(k), counts)
    first = np.repeat(np.cumsum(counts) - counts, counts)  # where each parent's run starts
    added = last[parent] + 1 + (np.arange(len(parent)) - first)
    nxt = np.empty((len(parent), s + 1), dtype=np.intp)
    nxt[:, :s] = level[parent]
    nxt[:, s] = added
    return nxt[~conflict[nxt[:, :s], added[:, None]].any(axis=1)]


def _contenders(q: CrispQP, x: np.ndarray, z_ref: float) -> np.ndarray:
    """Indices of the candidates x (one per row, in order) that can still
    win against a best of objective z_ref, the best before them.

    The tie rule (_beats) lets a candidate replace the best with a z up to
    _TIE above it, so over k candidates the best's z rises by at most
    k * _TIE (times 1 + 2u for the rounding of each difference) above
    z_ref.  A candidate beats it only within another _TIE, so one whose z
    exceeds z_ref + (k + 2) * _TIE can never replace the best and leaves
    the outcome unchanged when skipped.  z is taken here in one batched
    expression, whose value and objective()'s each lie within
    gamma_{2n+2} (|c|'|x| + 1/2 |x|'|Q||x|) of the exact objective; err
    is more than twice that bound.  A NaN z is kept.
    """
    k, n = x.shape
    z = x @ q.c + 0.5 * ((x @ q.Q) * x).sum(axis=1)
    ax = np.abs(x)
    err = (8 * n + 32) * _U * (ax @ np.abs(q.c) + 0.5 * ((ax @ np.abs(q.Q)) * ax).sum(axis=1))
    return np.flatnonzero(~(z - z_ref > (k + 2) * _TIE + err))


def _kkt_candidates(q: CrispQP, E: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Feasible x of the stationarity systems pinned by the stacked (E, d), in order.

    E has shape (k, s, n) and d shape (k, s): k subsets of s constraints.
    """
    k, s, n = E.shape
    kkt = np.zeros((k, n + s, n + s))
    kkt[:, :n, :n] = q.Q
    kkt[:, :n, n:] = E.transpose(0, 2, 1)
    kkt[:, n:, :n] = E
    rhs = np.empty((k, n + s))
    rhs[:, :n] = -q.c
    rhs[:, n:] = d
    # One gesv per system; np.linalg.solve would raise on the first singular
    # one, its gufunc writes a NaN row for it, which the finite filter drops.
    with np.errstate(invalid="ignore", divide="ignore", over="ignore", under="ignore"):
        sol = _solve1(kkt, rhs, signature="dd->d")
    keep = np.isfinite(sol).all(axis=1)
    sol[~keep] = 0.0
    residual = np.abs((kkt @ sol[:, :, None])[:, :, 0] - rhs).max(axis=1)
    keep &= residual <= 1e-8 * (1.0 + np.abs(rhs).max(axis=1))
    x = sol[:, :n]
    keep &= (x >= -1e-9).all(axis=1) & (x @ q.A.T <= q.b + 1e-9).all(axis=1)
    return x[keep]
