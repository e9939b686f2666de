"""Crisp QP solving: projected gradient descent plus an enumeration oracle.

The main path (solve_pg) is fixed-step projected gradient with step 1/K,
where K is the spectral norm of Q, or 1/max(||c||, 1) when Q = 0 (an LP).
One eigvalsh per crisp QP, in _spectrum, gives both K and whether Q is PSD.
Each step projects onto the feasible set {Ax <= b, x >= 0} exactly, by a
dual active-set method (Goldfarb-Idnani) warm-started from the previous
step's active set; an empty set is reported with a Farkas certificate.
The projector keeps each row scaled exactly by a power of two, not as given,
and judges each by its own tolerance, so a big-M row loosens no other.
Each face (active set) is built once, by one method, into one record;
a face with no row of A is written down, not factored (_bound_face).
Both kernels take one power-of-two rescale (_range_shift) only where
a value leaves the float range, so every other instance keeps its bytes.
A step's exact comparisons (feasibility, multiplier signs, the slack test,
the divergence and convergence tests) scan Python lists, deciding as
numpy's max/min would, NaN included: numpy's per-call overhead outweighs a
scan on small vectors, and at m + n = 120 (perfbench's wide-interior) the
scans cost about 2% of the wall time that numpy reductions would save.

On tiny problems numpy's per-call overhead costs more than the arithmetic,
so a step makes as few numpy calls as give the same bits:
  - The kernel rule (problem._product): a matrix-vector product goes
    through ndarray.dot, which dispatches faster than @ and gives its
    bytes, from two columns on; a one-column product keeps @.  Arrays
    enter the package aligned and in C order (CrispQP, project and
    _vector copy any other layout), so no result depends on a caller's
    layout.  The product is chosen once per CrispQP (Qx), per projector
    (Ax, Gy) and per face (Kx), never per call.
  - The held face and certificate data on demand (see _Projector).

An indefinite Q runs 9 starts: the origin and the 8 rows of
numpy.random.default_rng(seed).uniform(0, max(1, max|b|), (8, n)), drawn
by a pure-Python copy of that stream (_pcg64) with numpy's bits, so no
solve imports numpy.random and the points are the same on every numpy
version.

solve_oracle independently enumerates active-set candidates, which yields
the global optimum for convex instances with n <= ORACLE_MAX_N and serves
as the verification route for solve_pg.  It solves blocks of KKT systems
by numpy's private _umath_linalg.solve1, the gufunc behind np.linalg.solve:
one gesv per system both finds an exact zero pivot and solves, and a
singular system comes back as NaN where np.linalg.solve would raise.
"""
from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress
from math import comb, frexp, isfinite
from typing import Callable

import numpy as np
from numpy.linalg._umath_linalg import solve1 as _solve1

from ._pcg64 import uniform
from .problem import CrispQP, _product, _read_only, _rows, check_finite

UNBOUNDED_LIMIT = 1e8
ORACLE_MAX_N = 8
# Stacked KKT matrices per batched solve in solve_oracle: 1 MB keeps the
# per-call overhead small without letting memory grow with C(m + n, n).
ORACLE_BLOCK_BYTES = 1 << 20
_BOUND_FACES, _BOUND_FACE_N = 256, 32  # the size of _bound_face's cache
# Objectives within _TIE of the least one tie; the smallest x wins (_least).
_TIE = 1e-12
_U = np.finfo(float).eps / 2  # the unit roundoff


def _range_shift(top: int) -> int:
    """The exponent j of both kernels' one power-of-two rescale (Curtis and
    Reid 1972), given the frexp exponent top of the largest value: 0 while
    top <= 1000, else the j that brings it below 2^1000, but at least -64:
    no value from 2^-958 up leaves the normal range, and one still at 2^1000
    was 2^1064, beyond the norm of any float vector of n < 2^80."""
    return max(-64, min(0, 1000 - top))


class InfeasibleError(RuntimeError):
    """The feasible polyhedron is empty, or (certificate None) no vector
    of the float range is the projection onto it.

    certificate, when known, is a Farkas vector mu >= 0 over the rows of
    [A; -I] (the m rows of A, then the n bounds -x <= 0) with
    A'mu_A - mu_I = 0 and b'mu_A < 0, in the caller's units.
    """

    def __init__(self, message: str, certificate: np.ndarray | None = None):
        super().__init__(message)
        self.certificate = certificate


class UnboundedError(RuntimeError):
    """Iterates diverged: solve_pg raises it once any iterate exceeds
    UNBOUNDED_LIMIT = 1e8 in magnitude, even when the optimum is finite."""


@dataclass(frozen=True)
class SolverOptions:
    """Tuning knobs for solve_pg and project.

    multistart is an optional explicit list of start points; when None,
    indefinite instances use the origin plus 8 pseudorandom points, each
    projected onto the feasible set: the stream of
    numpy.random.default_rng(seed).uniform(0, max(1, max|b|), (8, n)),
    drawn without importing numpy.random and the same on every numpy
    version (fuzzyqp._pcg64).  Convex instances
    always run a single start (the first multistart point if given, else
    the origin).

    projection_tol and projection_max_sweeps are deprecated no-ops: they
    are still validated but change no result, since projections are exact
    and finite.  __post_init__ is the one check of every value, the CLI's
    flags included: a NaN or infinite tol or point raises, as do seed < 0
    and a count or seed that is not an integer (a bool is none; a numpy
    integer is one).
    """

    tol: float = 1e-9
    max_iter: int = 100_000
    multistart: tuple[tuple[float, ...], ...] | None = None
    projection_tol: float = 1e-10
    projection_max_sweeps: int = 10_000
    seed: int = 0

    def __post_init__(self):
        for name in ("max_iter", "projection_max_sweeps", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
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


def _vector(x, shape: tuple[int], name: str) -> np.ndarray:
    """x as an aligned C-ordered float array of the given shape, (n,) for a
    vector, copied only if it is not one already, so that no product's
    rounding depends on the caller's layout."""
    x = np.asarray(x, dtype=float)
    if x.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {x.shape}")
    flags = x.flags
    return x if flags.c_contiguous and flags.aligned else x.copy()


def objective(q: CrispQP, x) -> float:
    """c'x + (1/2) x'Qx.

    When the float sum at a finite x is not finite, as when a term
    overflows, the exact sum is rounded instead: to +-inf if it lies beyond
    the float range.
    """
    x = _vector(x, q.c.shape, "x")
    with np.errstate(over="ignore", invalid="ignore"):
        z = float(q.c @ x + 0.5 * (x @ q.Q @ x))
    if not isfinite(z) and np.isfinite(x).all():
        from fractions import Fraction  # only here, so no other path imports it

        v = [Fraction(e) for e in x.tolist()]
        exact = sum(Fraction(ci) * vi for ci, vi in zip(q.c.tolist(), v)) + sum(
            Fraction(qij) * vi * vj
            for row, vi in zip(q.Q.tolist(), v) for qij, vj in zip(row, v)
        ) / 2
        try:
            z = float(exact)
        except OverflowError:
            z = np.inf if exact > 0 else -np.inf
    return z


def gradient(q: CrispQP, x) -> np.ndarray:
    """c + Qx."""
    return q.c + q._Qx(_vector(x, q.c.shape, "x"))


_max = np.maximum.reduce


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
    Farkas certificate; a projection that lies beyond the float range
    raises it with certificate None.  An x that is not a nonempty vector
    raises ValueError, as do a misshapen A or b and a NaN or infinite
    entry in x, A or b, in CrispQP's words.  opts is a deprecated no-op,
    accepted for compatibility.  _warm is a _Projector built from the
    same A and b, which carries the active set from one call to the next.
    """
    if _warm is None:
        x = np.asarray(x, dtype=float).copy()
        if x.ndim != 1 or not x.size:
            raise ValueError(f"x must be a nonempty vector, got shape {x.shape}")
        A, b = _rows(A, b, x.shape[0])
        check_finite(x=x, A=A, b=b)
        _warm = _Projector(A, b)
    return x if _warm.contains(x) else _warm(x)


# The exact comparisons of a projected-gradient step, on Python lists
# (v.tolist()).  Python's float arithmetic is numpy's, so _diff_max_le's
# a - b has numpy's bits.  Each decides as the numpy reduction does: False
# when a NaN is involved (Python's max() can step over a NaN, so none is
# used), and _diff_max_le, _min_ge and _dist_le hold for empty lists.

def _diff_max_le(u: list, v: list, t: float) -> bool:
    """max(u - v) <= t."""
    for a, b in zip(u, v):
        if not a - b <= t:
            return False
    return True


def _min_ge(v: list, t: float) -> bool:
    """min(v) >= t."""
    for e in v:
        if not e >= t:
            return False
    return True


def _abs_max_gt(v: list, t: float) -> bool:
    """max|v| > t."""
    for e in v:
        if not abs(e) <= t:  # beyond t, or NaN
            return all(e == e for e in v)  # numpy's max is NaN if any entry is
    return False


def _dist_le(u: list, v: list, t: float) -> bool:
    """max|u - v| <= t."""
    for a, b in zip(u, v):
        if not abs(a - b) <= t:
            return False
    return True


class _Projector:
    """Projection onto {y: Ay <= b, y >= 0} for one (A, b), warm across calls.

    The one copy of the rows is A and b with row i times 2^k[i], exact,
    which contains reads.  With G = [A; -I] and h = [b; 0] row for row,
    that copy's rows scaled to unit norm (an all-zero row is the row
    0 <= b), the projection of x is y = x - G'mu, where mu >= 0
    minimises (1/2)||x - G'mu||^2 + h'mu.  Where an h overflows, b takes
    one more shift 2^j (_range_shift), x is projected as 2^j x and the
    result brought back by 2^-j, as the projection is positively
    homogeneous; one that overflows there raises InfeasibleError with no
    certificate, as does, at once, a row whose h is still -2^1000 or less.
    Every other h a float point can reach is finite: one rule judges each.
    The dual is solved by the active-set method of Goldfarb and Idnani
    (1983) with identity Hessian: starting from a set P of independent rows
    with y tight on them and mu_P >= 0, the row p most violated beyond its
    own tolerance, 1e-12 (1 + |h_p|) in the caller's units, is added; the
    step along the part of p's normal orthogonal to the rows of P either
    makes p tight (p joins P) or first drives some mu_j to zero (j leaves
    P).  If p's normal lies in the span of P and no mu_j can shrink, the
    dual is unbounded: mu = (1 on p, -r on P) is a Farkas certificate and
    InfeasibleError is raised (e_i for a zero row with b_i < 0).

    For a fixed P the multipliers are affine in x, mu_P = K x - k, and
    y = x - G_P' mu_P.  _face is the one builder of a face and its record
    (K, k, G_P', pinned, Kx, P), with the product Kx: v -> Kv chosen once
    by the kernel rule (problem._product; Ax and Gy likewise, in the
    constructor).  A set that holds a row of A is built by QR of G_P'; the
    empty set or bounds only come in closed form from _bound_face, whose
    record (less P) all projectors share for n <= _BOUND_FACE_N.  Every
    call starts from the face the previous call ended on, held with its
    record so a settled call does no lookup, less any rows whose
    multipliers come out negative at the new x: once projected gradient
    settles, a projection is one affine map plus a sign and a feasibility
    check.  Row i of G is row i of [A; -I], so the Farkas certificate and
    the multipliers index G's rows directly, and _caller_units is their
    one way back to the caller's units.
    """

    def __init__(self, A: np.ndarray, b: np.ndarray):
        m, n = A.shape
        # Row i of A and b[i] times 2^k[i], exact, puts max|a_ij| in [0.5, 1): no
        # finite row's norm overflows or underflows; only an all-zero row has norm 0.
        self._shift = k = -np.frexp(_max(np.abs(A), axis=1, initial=0.0))[1]
        self.A = np.ldexp(A, k[:, None])
        self._norms = norms = np.sqrt(np.einsum("ij,ij->i", self.A, self.A))
        norms[norms == 0.0] = 1.0  # an all-zero row is the row 0 <= b
        self.first_bound = m  # rows of G from here on are the bounds -y <= 0
        self.G, self.h = np.empty((m + n, n)), np.zeros(m + n)
        np.divide(self.A, norms[:, None], out=self.G[:m])
        self.G[m:] = -np.eye(n)  # -0.0 off the diagonal
        self._j = 0  # b, h and each x are times 2^j, results 2^-j; 0 unless an h or top overflows
        for shifted in (False, True):
            with np.errstate(over="ignore", invalid="ignore"):  # b or h beyond the float range is +-inf
                b_s = np.ldexp(b, k)
                np.divide(b_s, norms, out=self.h[:m])
                self._top = self.h + 1e-12 * (2.0 ** self._j + np.abs(self.h))  # row i is met while (Gy)_i <= top[i]
                self._b, self._tops = b_s.tolist(), self._top.tolist()
            if shifted or all(map(isfinite, self._tops)):
                break  # else shift by max|h|'s exponent, read on b far down, where no h overflows
            self._j = _range_shift(frexp(float(_max(np.abs(np.ldexp(b, k - 1100)) / norms)))[1] + 1100)
            k = k + self._j
        if self._j and self.h.min() <= -2.0 ** 1000:  # so j = -64, and no float y meets that row
            raise InfeasibleError("the projection lies beyond the float range")
        self._Ax, self._Gy = _product(self.A), _product(self.G)
        self._held = None  # the empty face until a call ends on another
        self._faces: dict[tuple[int, ...], tuple] = {}  # P -> its record, by _face

    def contains(self, x: np.ndarray) -> bool:
        """Ax <= b and x >= 0 on the scaled rows and 2^j x, which decide as the
        caller's rows do while every scaled entry, product and b is normal;
        a row with one below the normal range agrees within its tolerance."""
        if self._j:
            x = np.ldexp(x, self._j)
        return _diff_max_le(self._Ax(x).tolist(), self._b, 0.0) and _min_ge(x.tolist(), 0.0)

    def _face(self, P: tuple[int, ...]) -> tuple:
        """The face of the active set P, built once: (K, k, G_P', pinned, Kx, P)
        with mu_P = K x - k, pinned the variables that an active bound holds
        at zero and Kx the product v -> Kv.  A set with a row of A is built
        by QR of G_P', one of bounds only taken from _bound_face."""
        face = self._faces.get(P)
        if face is None:
            n, first = self.G.shape[1], self.first_bound
            if not P or P[0] >= first:  # no row of A (P is sorted)
                build = _bound_face if n <= _BOUND_FACE_N else _bound_face.__wrapped__
                face = build(n, tuple(i - first for i in P)) + (P,)
            else:
                rows = list(P)
                Gt = self.G[rows].T
                Qr, R = np.linalg.qr(Gt)
                R_inv = np.linalg.inv(R)  # R is invertible: the rows of P are independent
                K = R_inv @ Qr.T
                face = (K, R_inv @ (R_inv.T @ self.h[rows]), Gt,
                        [i - first for i in P if i >= first], _product(K), P)
            self._faces[P] = face
        return face

    @staticmethod
    def _point(x, mu, Gt, pinned) -> np.ndarray:
        """y = x - G_P' mu_P, with pinned variables exactly zero."""
        y = x - Gt @ mu
        if len(pinned):
            y[pinned] = 0.0
        return y

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """The projection of x: that of 2^j x times 2^-j, raising on overflow."""
        if not self._j:
            return self._solve(x)
        with np.errstate(over="ignore"):
            y = np.ldexp(self._solve(np.ldexp(x, self._j)), -self._j)
        if np.isfinite(y).all():
            return y
        raise InfeasibleError("the projection lies beyond the float range")

    def _solve(self, x: np.ndarray) -> np.ndarray:
        held = self._held or self._face(())
        while True:
            _, k, Gt, pinned, Kx, P = held
            mu = Kx(x) - k
            if _min_ge(mu.tolist(), 0.0):
                break
            held = self._face(tuple(compress(P, (mu >= 0.0).tolist())))
        y = self._point(x, mu, Gt, pinned)
        Gy = self._Gy(y)
        if _diff_max_le(Gy.tolist(), self._tops, 0.0):
            self._held = held
            return y
        slack = 1e-12 * float(np.abs(x).max())
        if not isfinite(slack):  # an inf or NaN in x, as when a gradient overflows
            raise UnboundedError("the iterates left the float range; instance appears unbounded below")
        s = Gy - self._top  # each row's excess over its own tolerance
        # Each added row raises the dual objective, so no set repeats; the
        # bound only stops a cycle that rounding might cause.
        for _ in range(10 * len(self.h)):
            s[list(P)] = -np.inf
            p = int(np.argmax(s))
            if s[p] <= slack:
                break
            P, mu, y = self._add(P, mu, y, p, float(Gy[p] - self.h[p]))
            Gy = self._Gy(y)
            s = Gy - self._top
        else:
            raise RuntimeError("active-set projection is cycling")
        _, k, Gt, pinned, Kx, _ = self._held = self._face(P)
        return self._point(x, Kx(x) - k, Gt, pinned)

    def _add(self, P, mu, y, p, violation):
        """Make row p tight, dropping rows whose multipliers reach zero on the way."""
        g = self.G[p]
        mu_p = 0.0
        while True:
            _, _, Gt, _, Kx, _ = self._face(P)
            r = Kx(g)
            z = g - Gt @ r
            zz = float(z @ z)
            # n independent rows span R^n: any zz left then is rounding
            step = violation / zz if zz > 1e-24 and len(P) < len(g) else np.inf
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
        """Raise with the ray (1 on p, -r on P) in caller's units times 2^j; the message unshifts b'mu_A."""
        with np.errstate(over="ignore"):
            b_mu = np.ldexp(float(self.h[p] - self.h[list(P)] @ r), -self._j)
        raise InfeasibleError(
            "the polyhedron is empty: Farkas certificate mu >= 0 over the rows "
            f"of [A; -I] with A'mu_A - mu_I = 0 and b'mu_A = {b_mu:.3e} < 0",
            np.ldexp(self._caller_units([*P, p], np.append(-r, 1.0)), self._j),
        )

    def multipliers(self, x: np.ndarray) -> np.ndarray:
        """KKT multipliers over the rows of [A; -I] for the set the last call
        ended on, in the caller's units (_caller_units).

        With y the projection of x: x - y = A'mu_A - mu_I.
        """
        _, k, _, _, Kx, P = self._held or self._face(())
        return np.ldexp(self._caller_units(list(P), Kx(np.ldexp(x, self._j)) - k), -self._j)

    def _caller_units(self, rows: list, lam: np.ndarray) -> np.ndarray:
        """Multipliers lam on the given rows of G (zero on the others) as
        multipliers on the rows of [A; -I]: ldexp(lam_i / ||2^k a_i||, k_i) for
        row i of A, whose row of G is 2^k a_i / ||2^k a_i||, and lam_i
        for a bound.  The one way back, for certificates and multipliers."""
        full, m = np.zeros(len(self.h)), self.first_bound
        full[rows] = lam
        full[:m] = np.ldexp(full[:m] / self._norms, self._shift)
        return full


@lru_cache(maxsize=_BOUND_FACES)
def _bound_face(n: int, bounds: tuple[int, ...]) -> tuple:
    """The face record of _Projector._face, less P, of the bounds -y_j <= 0,
    j in bounds (none for the empty face), in n variables: G_P = -I[bounds]
    and h_P = 0, so mu_P = -x[bounds], K = -I[bounds] with +0.0 elsewhere
    and k = +0.0.  Its arrays are read-only and its product is chosen by
    the kernel rule.  That is byte for byte the face a QR of G_P' gives:
    each Householder reflector of a signed unit column is an exact signed
    swap, so R is diagonal +-1 and R^-1 Q' is exact.  For n <= _BOUND_FACE_N
    one record serves every projector: the cache keeps the _BOUND_FACES
    most recently used faces of at most 2n(n + 1) floats each, under 4.5 MB
    in all; above that each projector builds its own."""
    j = list(bounds)
    K = np.zeros((len(j), n))
    K[np.arange(len(j)), j] = -1.0
    G_P = -np.eye(n)[j]  # the rows of G past first_bound
    return (*_read_only(K, np.zeros(len(j)), G_P.T, np.array(j, dtype=np.intp)), _product(K))


def _default_starts(q: CrispQP, opts: SolverOptions) -> list[np.ndarray]:
    """The origin and the 8 pseudorandom points of the module docstring."""
    scale = max(1.0, float(np.max(np.abs(q.b))) if q.b.size else 1.0)
    return [np.zeros(q.n), *np.array(uniform(opts.seed, scale, 8, q.n))]


def _pg_run(q, x0, step, opts, callback, warm):
    x = x0
    if callback is not None:
        callback(x)
    tol = float(opts.tol)  # a Python float compared with a float32 tol would round to float32
    v = x.tolist()  # x as the checks take it, once per iterate
    for k in range(opts.max_iter):
        y = x - step * gradient(q, x)
        x_new = project(y, q.A, q.b, _warm=warm)
        if callback is not None:
            callback(x_new)
        v_new = x_new.tolist()
        if _abs_max_gt(v_new, UNBOUNDED_LIMIT):
            raise UnboundedError(
                f"iterate magnitude exceeded {UNBOUNDED_LIMIT:.0e}; "
                "instance appears unbounded below"
            )
        if _dist_le(v_new, v, tol):
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
    single start; an indefinite Q runs every multistart point.  Of the
    converged runs (all runs if none converged) within 1e-12 of the least
    objective, the one with the lexicographically smallest x is returned,
    whatever the order of the starts.  Non-convergence is reported via the
    converged flag, never hidden.
    """
    opts = opts or SolverOptions()
    step, convex = _step_rule(q)

    if opts.multistart is not None:
        starts = opts.multistart
    elif convex:
        starts = [np.zeros(q.n)]  # the first default start; the random ones serve indefinite Q
    else:
        starts = _default_starts(q, opts)
    if convex:
        starts = starts[:1]

    warm = _Projector(q.A, q.b)
    runs = []
    for x0 in starts:
        warm._held = None  # from the empty face: no run's bits depend on the run before
        x0 = project(_vector(x0, q.c.shape, "start point"), q.A, q.b, _warm=warm)
        x, iters, converged = _pg_run(q, x0, step, opts, callback, warm)
        runs.append((x, objective(q, x), iters, converged, warm._held))

    # the winner's stationarity is taken from the face its own run ended on
    x, z, iters, converged, warm._held = _least([run for run in runs if run[3]] or runs)
    return QpSolution(
        x=x, z=z, iterations=iters, converged=converged,
        stationarity=_stationarity(q, x, step, warm), convex=convex,
    )


def _least(candidates: list) -> tuple:
    """The tie rule of both solvers, over a set of (x, z, ...) tuples: of the
    candidates whose z lies within _TIE of the least z, the one with the
    lexicographically smallest x, the first of those on an exact tie.  A
    NaN z is never near the least, unless every z is NaN."""
    z_min = min((c[1] for c in candidates if c[1] == c[1]), default=np.nan)
    near = [c for c in candidates if c[1] <= z_min + _TIE] or candidates
    return min(near, key=lambda c: c[0].tolist())  # tolist orders as tuple(x), faster


def solve_oracle(q: CrispQP, opts: SolverOptions | None = None) -> QpSolution:
    """Independent small-scale solve by enumerating active-set candidates.

    For every subset S of the m + n constraints (rows of A and the bounds
    x_j >= 0) with |S| <= n, the equality-constrained stationarity system

        [Q  E']  [x ]   [-c]
        [E  0 ]  [mu] = [ d]

    is solved, where E x = d pins the members of S.  Solutions that are
    finite, solve their system to a relative residual of 1e-8 and are
    feasible to 1e-9, row i of A to 1e-9 (1 + |b_i|), are kept (vertices
    arise as the |S| = n systems).  Of those within 1e-12 of the least
    objective, the lexicographically smallest x wins; x holds no -0.0.  For
    PSD Q this is the global optimum; for indefinite Q it is the best
    stationary/vertex point.

    Subsets that can yield no candidate are skipped: those holding a
    conflict pair (_conflict_pairs), two rows that pin one variable to
    values the residual filter never accepts together.  iterations still
    counts every subset of at most n constraints, skipped or solved.  The
    subsets are solved in blocks of about ORACLE_BLOCK_BYTES of stacked
    KKT matrices, and each solved block alone is expanded into blocks of
    the next size (_next_level): a stack holds at most one expansion per
    size, about n blocks of subsets times (m + n), so memory does not grow
    with C(m + n, n).  Only the candidates of a block whose batched
    objective could still win (_contenders) are kept, and the tie rule
    (_least) picks among them, whatever the order of the blocks.

    converged is True when the winner is a fixed point of the projected
    gradient map, stationarity <= 1e-8 * (1 + max|x|).  On an instance
    unbounded below the winner is only the best of finitely many
    candidates, not a stationary point, and converged is False.  An empty
    polyhedron raises InfeasibleError with the Farkas certificate that
    project finds.  Where some |c_i| or |Q_ij| reaches 2^1000, the systems
    are those of c and Q times one power of two (_range_shift), which
    leaves their solutions, stationarity and converged as they are; the
    objectives and the tie rule stay in the caller's units.  opts is a
    deprecated no-op, accepted for symmetry with solve_pg.
    """
    n, m = q.n, q.m
    if n > ORACLE_MAX_N:
        raise ValueError(f"enumeration oracle supports n <= {ORACLE_MAX_N}, got n = {n}")

    j = _range_shift(frexp(float(_max(np.abs(q.Q), axis=None, initial=_max(np.abs(q.c)))))[1])
    qs = CrispQP._trusted(*_read_only(np.ldexp(q.c, j), np.ldexp(q.Q, j)), q.A, q.b) if j else q

    # Constraint catalogue: row i < m is row i of A, row m + j is x_j >= 0.
    rows = np.vstack([q.A, np.eye(n)])
    bounds = np.concatenate([q.b, np.zeros(n)])
    conflict = _conflict_pairs(qs, rows, bounds)
    pool, z_ref = [], np.inf  # the contenders as (x, z), and their least z
    stack = [np.empty((1, 0), dtype=np.intp)]  # blocks of subsets, first the one subset of size 0
    while stack:
        S = stack.pop()
        x = _kkt_candidates(qs, rows[S], bounds[S])
        for i in _contenders(q, x, z_ref):
            z = objective(q, x[i])
            pool.append((x[i], z))
            z_ref = min(z_ref, z)  # a NaN z leaves it
        if S.shape[1] < n:  # this block alone, expanded into blocks of the next size
            block = max(1, ORACLE_BLOCK_BYTES // (8 * (n + S.shape[1] + 1) ** 2))
            children = _next_level(S, conflict)
            stack += (children[i:i + block] for i in range(0, len(children), block))

    if not pool:
        project(np.zeros(n), q.A, q.b)  # an empty polyhedron raises with a certificate here
        raise InfeasibleError("no feasible stationary or vertex candidate found")
    best_x, best_z = _least(pool)

    step, convex = _step_rule(qs)
    stationarity = _stationarity(qs, best_x, step)
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
    """Indices of the candidates x (one per row, in order) that the tie rule
    (_least) could still pick, given z_ref, the least objective kept so far.

    z is taken here in one batched expression, whose value and objective()'s
    each lie within gamma_{2n+2} (|c|'|x| + 1/2 |x|'|Q||x|) of the exact
    objective; err is more than twice that bound.  So the least objective
    kept is at most ref = min(z_ref, min(z + err)), and a candidate whose z
    exceeds ref by more than _TIE + err can never be within _TIE of it.  A
    NaN z is kept, and with it the whole block.
    """
    n = x.shape[1]
    ax = np.abs(x)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is an inf or NaN, read below
        z = x @ q.c + 0.5 * ((x @ q.Q) * x).sum(axis=1)
        err = (8 * n + 32) * _U * (ax @ np.abs(q.c) + 0.5 * ((ax @ np.abs(q.Q)) * ax).sum(axis=1))
        ref = np.minimum.reduce(z + err, initial=z_ref)
        return np.flatnonzero(~(z - ref > _TIE + err))


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
    keep &= (x >= -1e-9).all(axis=1) & (x @ q.A.T <= q.b + 1e-9 * (1.0 + np.abs(q.b))).all(axis=1)
    return x[keep] + 0.0  # each zero as +0.0, so x equal as lists are equal as bytes
