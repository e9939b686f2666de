"""The exact Euclidean projection onto {y: Ay <= b, y >= 0} that each
projected-gradient step takes (_Projector, called by fuzzyqp.solver.project).

Each row is kept scaled exactly by a power of two and judged by its own
tolerance, so a big-M row loosens no other; _Projector gives the method.
_range_shift, the one power-of-two rescale where a value leaves the float
range, is shared with the enumeration oracle.
"""
from __future__ import annotations

from bisect import bisect
from functools import lru_cache
from itertools import chain, compress
from math import frexp, isfinite

import numpy as np

from .problem import _product, _read_only

_BOUND_FACES, _BOUND_FACE_N = 256, 32  # the size of _bound_face's cache
_max = np.maximum.reduce


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
    UNBOUNDED_LIMIT = 1e8 in magnitude, even when the optimum is finite,
    and the projector when an iterate leaves the float range."""


# A step's exact comparisons (feasibility, multiplier signs) scan Python lists
# (v.tolist()), as solve_pg's tests do: numpy's per-call overhead outweighs
# a scan on small vectors, and at m + n = 120 (perfbench's wide-interior)
# scans cost about 2% of the wall time numpy reductions would save.  Python's
# float arithmetic is numpy's; each scan decides as numpy's reduction does,
# False when a NaN is involved (so no max()), and holds for empty lists.

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


def _slack(v: list, x: np.ndarray | None = None) -> float:
    """The slack of the one feasibility rule at a point v reached from x (v
    itself by default), 1e-12 max(|x|, |v|): the rounding of v.  max() may
    pass over a NaN, which fails the scans where it is in v and _solve's
    guard where it is in x."""
    return 1e-12 * max(map(abs, v if x is None else chain(v, x.tolist())))


class _Projector:
    """Projection onto {y: Ay <= b, y >= 0} for one (A, b), warm across calls.

    The one copy of the rows is G = [A; -I] and h = [b; 0] row for row,
    with row i of A and b[i] taken times 2^k[i], exact, then scaled to unit
    norm (an all-zero row is the row 0 <= b), and each row's top, h_i +
    1e-12 (2^j + |h_i|).  The projection of x is y = x - G'mu, where mu >= 0
    minimises (1/2)||x - G'mu||^2 + h'mu.  Where an |h| reaches 2^1000, b
    takes one more shift 2^j (_range_shift), x is projected as 2^j x and the
    result brought back by 2^-j, as the projection is positively
    homogeneous; one that overflows there raises InfeasibleError with no
    certificate, as does, at once, a row whose h is still -2^1000 or less.
    Every other h a float point can reach is finite: one rule judges each.
    Row i is met at a point v reached from x while (G v)_i <= top_i + 1e-12
    max(|x|, |v|), the last term v's rounding (_meets, the one feasibility
    rule, with _slack): in the caller's units, a_i.v - b_i <= 1e-12 (||a_i||
    + |b_i| + ||a_i|| max(|x|, |v|)) and v_j >= -1e-12 (1 + max(|x|, |v|)).
    The dual is solved by the active-set method of Goldfarb and Idnani
    (1983) with identity Hessian: starting from a set P of independent rows
    with y tight on them and mu_P >= 0, the row p of largest excess over its
    top is added while y fails the rule there; the step along the part of
    p's normal orthogonal to the rows of P either makes p tight (p joins P)
    or first drives some mu_j to zero (j leaves P).  If p's normal lies in
    the span of P and no mu_j can shrink within the float range, the dual
    is unbounded: mu = (1 on p, -r on P) is a Farkas certificate, an r_j
    that limits no step read as 0, and InfeasibleError is raised (e_i for
    a zero row with b_i < 0).

    For a fixed P the multipliers are affine in x, mu_P = K x - k, and
    y = x - G_P' mu_P.  _face is the one builder of a face and its record
    (K, k, G_P', pinned, Kx, P), with the product Kx: v -> Kv chosen once
    by the kernel rule (problem._product; the product over G likewise, in
    the constructor).  A set that holds a row of A is built by QR of G_P';
    the empty set or bounds only come in closed form from _bound_face,
    whose record (less P) all projectors share for n <= _BOUND_FACE_N.  A call where 2^j x meets every row by the rule, which
    a solve's settled test and its exchanges read too, returns x and keeps
    the held face; any other starts from the face the last solving call
    ended on, held with its record so a settled call does no lookup, less
    any rows whose multipliers come out negative at the new x: once
    projected gradient settles, a projection is one affine map plus a sign
    and a feasibility check.  The held face is the only warm state;
    multipliers(x) projects x too.  Row i of G is row i of [A; -I], so the
    Farkas certificate and the multipliers index G's rows directly, and
    _caller_units is their one way back to the caller's units.
    """

    def __init__(self, A: np.ndarray, b: np.ndarray):
        m, n = A.shape
        # Row i of A and b[i] times 2^k[i], exact, puts max|a_ij| in [0.5, 1): no
        # finite row's norm overflows or underflows; only an all-zero row has norm 0.
        self._shift = k = -np.frexp(_max(np.abs(A), axis=1, initial=0.0))[1]
        A = np.ldexp(A, k[:, None])
        self._norms = norms = np.sqrt(np.einsum("ij,ij->i", A, A))
        norms[norms == 0.0] = 1.0  # an all-zero row is the row 0 <= b
        self.first_bound = m  # rows of G from here on are the bounds -y <= 0
        self.G, self.h = np.empty((m + n, n)), np.zeros(m + n)
        np.divide(A, norms[:, None], out=self.G[:m])
        self.G[m:] = -np.eye(n)  # -0.0 off the diagonal
        self._j = 0  # b, h and each x are times 2^j, results 2^-j; 0 unless some |h| reaches 2^1000
        with np.errstate(over="ignore", invalid="ignore"):  # b or h beyond the float range is +-inf
            np.divide(np.ldexp(b, k), norms, out=self.h[:m])
            if _max(np.abs(self.h), initial=0.0) >= 2.0 ** 1000:
                # shift by max|h|'s exponent, read on b far down, where no h overflows
                self._j = _range_shift(frexp(float(_max(np.abs(np.ldexp(b, k - 1100)) / norms)))[1] + 1100)
                np.divide(np.ldexp(b, k + self._j), norms, out=self.h[:m])
                if self.h.min() <= -2.0 ** 1000:  # so j = -64, and no float y meets that row
                    raise InfeasibleError("the projection lies beyond the float range")
            self._top = self.h + 1e-12 * (2.0 ** self._j + np.abs(self.h))  # met while (Gy)_i - top[i] <= _slack
            self._tops = self._top.tolist()
        self._Gy = _product(self.G)  # every row of [A; -I], as _meets and the exchanges read them
        self._held = None  # the empty face until a call ends on another
        self._faces: dict[tuple[int, ...], tuple] = {}  # P -> its record, by _face

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
                Gt = self.G[list(P)].T
                Qr, R = np.linalg.qr(Gt)
                R_inv = np.linalg.inv(R)  # R is invertible: the rows of P are independent
                K = R_inv @ Qr.T
                face = (K, R_inv @ (R_inv.T @ self.h[list(P)]), Gt,
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

    def _meets(self, v: np.ndarray, x: np.ndarray | None = None) -> bool:
        """Whether v, reached from x (v itself by default), meets every row
        of [A; -I] by the one feasibility rule: (G v)_i - top[i] <= _slack(v,
        x), a finite slack, on the product over G that the exchanges read.
        A v within every top meets the rule whatever the slack, so the slack
        is taken only where some row exceeds its top."""
        Gv = self._Gy(v).tolist()
        if _diff_max_le(Gv, self._tops, 0.0):
            return True
        slack = _slack(v.tolist(), x)
        return isfinite(slack) and _diff_max_le(Gv, self._tops, slack)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """The projection of x: x itself, face held, where 2^j x meets every
        row by the one feasibility rule (_meets), else that of 2^j x times
        2^-j."""
        xs = np.ldexp(x, self._j) if self._j else x
        if self._meets(xs):
            return x
        if not self._j:
            return self._solve(x)
        with np.errstate(over="ignore"):
            y = np.ldexp(self._solve(xs), -self._j)
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
        if self._meets(y, x):
            self._held = held
            return y
        if not np.isfinite(x).all():  # an inf or NaN in x, as when a gradient overflows
            raise UnboundedError("the iterates left the float range; instance appears unbounded below")
        # Each added row raises the dual objective, so no set repeats; the
        # bound only stops a cycle that rounding might cause.
        for _ in range(10 * len(self.h)):
            Gy = self._Gy(y)
            s = Gy - self._top  # each row's excess over its top
            s[list(P)] = -np.inf
            p = int(np.argmax(s))
            if s[p] <= _slack(y.tolist(), x):  # every row outside P meets the rule
                break
            P, mu, y = self._add(P, mu, y, p, float(Gy[p] - self.h[p]))
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
                with np.errstate(over="ignore"):  # one past the float range never limits the step
                    ratios = mu[shrinking] / r[shrinking]
                    j = int(np.argmin(ratios))
                    # nor, where p's normal lies in the span of P, one whose step carries mu past it
                    if ratios[j] < step and (step < np.inf or np.isfinite(mu - ratios[j] * r).all()):
                        step, drop = float(ratios[j]), int(shrinking[j])
            if step == np.inf:  # a ratio that limits no step drops no row: its r_i reads as 0
                self._raise_infeasible(P, np.where(r > 0.0, -0.0, r), p)
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
            self._caller_units([*P, p], np.append(-r, 1.0), self._j),
        )

    def multipliers(self, x: np.ndarray) -> np.ndarray:
        """KKT multipliers over the rows of [A; -I] of the projection y of x,
        x - y = A'mu_A - mu_I, in the caller's units (_caller_units), +inf past
        the float range: read on the face that projecting x from the held face
        ends on, +0.0 for an x inside; an empty polyhedron raises InfeasibleError."""
        _, k, _, _, Kx, P = self._face(()) if self(x) is x else self._held
        with np.errstate(over="ignore"):
            return self._caller_units(list(P), Kx(np.ldexp(x, self._j)) - k, -self._j)

    def _caller_units(self, rows: list, lam: np.ndarray, j: int = 0) -> np.ndarray:
        """Multipliers lam on the given rows of G (zero on the others) as
        multipliers on the rows of [A; -I] times 2^j, one ldexp each, so none
        passes through a subnormal: lam_i / ||2^k a_i|| times 2^(k_i + j) for row
        i of A, whose row of G is 2^k a_i / ||2^k a_i||, and lam_i 2^j for a bound."""
        full, m = np.zeros(len(self.h)), self.first_bound
        full[rows] = lam
        full[:m] /= self._norms
        return np.ldexp(full, np.append(self._shift, np.zeros(len(full) - m, int)) + j)


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
