"""The exact Euclidean projection onto {y: Ay <= b, y >= 0} that each
projected-gradient step takes (_Projector, called by fuzzyqp.solver.project).

Each row is kept scaled exactly by a power of two and judged by its own
tolerance, so a big-M row loosens no other; _Projector gives the method.
_range_shift, the one power-of-two rescale where a value leaves the float
range, is shared with the enumeration oracle; _project_lanes projects the
steps of a sweep's runs side by side, by the same rule and faces.
"""
from __future__ import annotations

from bisect import bisect
from functools import lru_cache
from itertools import chain, compress
from math import frexp, isfinite

import numpy as np

from .problem import _product, _read_only

_BOUND_FACES, _BOUND_FACE_N = 256, 32  # the size of _bound_face's cache
_max, _all = np.maximum.reduce, np.logical_and.reduce


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


def _row_stacks(A: np.ndarray, b: np.ndarray) -> tuple:
    """The rows of _Projector(A[l], b[l]) for every l of C-ordered stacks A
    (L, m, n) and b (L, m), built at once and unshifted (j = 0): (k, norms,
    G, h, top), each stacked over l.  Row i of A and b[i] are taken times
    2^k[i], exact, which puts max|a_ij| in [0.5, 1), so no finite row's norm
    overflows or underflows and only an all-zero row has norm 0; the row norms
    are one einsum over the stack, which gives each element's bytes
    (tests/test_kernels.py)."""
    L, m, n = A.shape
    k = -np.frexp(_max(np.abs(A), axis=2, initial=0.0))[1]
    A = np.ldexp(A, k[:, :, None])
    norms = np.sqrt(np.einsum("lij,lij->li", A, A))
    norms[norms == 0.0] = 1.0  # an all-zero row is the row 0 <= b
    G, h = np.empty((L, m + n, n)), np.zeros((L, m + n))
    np.divide(A, norms[:, :, None], out=G[:, :m])
    G[:, m:] = -np.eye(n)  # -0.0 off the diagonal
    with np.errstate(over="ignore", invalid="ignore"):  # b or h beyond the float range is +-inf
        np.divide(np.ldexp(b, k), norms, out=h[:, :m])
        return k, norms, G, h, h + 1e-12 * (1.0 + np.abs(h))  # met while (Gy)_i - top[i] <= _slack


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
    ended on, held with its record so a settled call does no lookup, and
    settles it at the new x.  The settle rule (_settle) is the one way a
    face is read at a point: drop the rows whose multipliers at x come out
    negative, all at once, and read again, until none does.  Once
    projected gradient settles, a projection is one affine map plus a sign
    and a feasibility check.  The held face is the only warm state;
    multipliers(x) projects x too and settles the face that projection
    ended on at x, so no multiplier it reports is negative, and a cold call
    answers as a warm one does.  Row i of G is row i of [A; -I], so the
    Farkas certificate and the multipliers index G's rows directly, and
    _caller_units is their one way back to the caller's units.
    """

    def __init__(self, A: np.ndarray, b: np.ndarray, rows: tuple | None = None):
        """rows, where a block's projectors were built at once, is this (A, b)'s
        element of _row_stacks; else the rows are built as a stack of one."""
        self._shift, self._norms, self.G, self.h, self._top = rows or (
            r[0] for r in _row_stacks(A[None], b[None]))
        self.first_bound = m = len(self._shift)  # rows of G from here on are the bounds -y <= 0
        self._j = 0  # b, h and each x are times 2^j, results 2^-j; 0 unless some |h| reaches 2^1000
        if _max(np.abs(self.h), initial=0.0) >= 2.0 ** 1000:  # b or h beyond the float range is +-inf
            k, norms = self._shift, self._norms
            with np.errstate(over="ignore", invalid="ignore"):
                # shift by max|h|'s exponent, read on b far down, where no h overflows
                self._j = _range_shift(frexp(float(_max(np.abs(np.ldexp(b, k - 1100)) / norms)))[1] + 1100)
                self.h = self.h.copy()  # its own, not a view of a block's stack
                np.divide(np.ldexp(b, k + self._j), norms, out=self.h[:m])
                if self.h.min() <= -2.0 ** 1000:  # so j = -64, and no float y meets that row
                    raise InfeasibleError("the projection lies beyond the float range")
                self._top = self.h + 1e-12 * (2.0 ** self._j + np.abs(self.h))
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

    def _settle(self, face: tuple, x: np.ndarray) -> tuple:
        """(face, mu_P): the face reached from face by dropping the rows whose
        multipliers at x come out negative until none does, with its mu_P at x."""
        while True:
            _, k, _, _, Kx, P = face
            mu = Kx(x) - k
            if _min_ge(mu.tolist(), 0.0):
                return face, mu
            face = self._face(tuple(compress(P, (mu >= 0.0).tolist())))

    def _solve(self, x: np.ndarray) -> np.ndarray:
        held, mu = self._settle(self._held or self._face(()), x)
        _, _, Gt, pinned, _, P = held
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
        the float range, never negative: read on the face that projecting x from
        the held face ends on, settled at x (_settle: the rows whose multipliers
        come out negative are dropped until none does), +0.0 for an x inside;
        an empty polyhedron raises InfeasibleError."""
        face = self._face(()) if self(x) is x else self._held
        with np.errstate(over="ignore"):
            (*_, P), mu = self._settle(face, np.ldexp(x, self._j))
            return self._caller_units(list(P), mu, -self._j)

    def _caller_units(self, rows: list, lam: np.ndarray, j: int = 0) -> np.ndarray:
        """Multipliers lam on the given rows of G (zero on the others) as
        multipliers on the rows of [A; -I] times 2^j, one ldexp each, so none
        passes through a subnormal: lam_i / ||2^k a_i|| times 2^(k_i + j) for row
        i of A, whose row of G is 2^k a_i / ||2^k a_i||, and lam_i 2^j for a bound."""
        full, m = np.zeros(len(self.h)), self.first_bound
        full[rows] = lam
        full[:m] /= self._norms
        return np.ldexp(full, np.append(self._shift, np.zeros(len(full) - m, int)) + j)


# A group of at least _STACK_MIN lanes that hold faces of one size takes
# _project_lanes' stacked pass; a smaller one costs less as each lane's own
# _solve.  Measured per settled lane, stacked against each lane's _solve, on
# lanes that each hold a bound face of one size (2-vCPU Xeon, numpy 2.4): at
# n = 2, 8.0 against 7.3 us at 8 lanes, 7.0 against 7.0 at 10 and 5.8
# against 7.0 at 12; at n = 12, 9.2 against 9.3, 8.6 against 8.7 and 7.7
# against 9.9; one lane alone 47 against 23 us.
_STACK_MIN = 10


def _meet(D: np.ndarray, *points: np.ndarray) -> np.ndarray:
    """Per lane, whether v meets every row by the one feasibility rule
    (_Projector._meets, with _slack), given D = G v - top: every row within
    its top, or else within the slack 1e-12 max|p| over the points p (v and
    any v was reached from), that slack finite."""
    meets = _all(D <= 0.0, axis=1)
    if not _all(meets):
        slack = 1e-12 * _max([_max(np.abs(p), axis=1) for p in points], axis=0)
        meets |= np.isfinite(slack) & _all(D <= slack[:, None], axis=1)
    return meets


def _project_lanes(Y: np.ndarray, warms: list, faces: list, G: np.ndarray, top: np.ndarray) -> list:
    """Project each lane's y (row l of Y; a run of fuzzyqp.solver._pg_lanes)
    in place as its unshifted projector warms[l] does from the face faces[l],
    which takes the face the call ends on, and return the lanes whose call
    raised.  G and top stack each lane's projector's G and tops.

    A y that meets every row by the one feasibility rule (_meet) is its own
    projection.  Of the others, the lanes whose faces P are of one nonempty
    size are read at once where at least _STACK_MIN of them are: mu = K y - k
    and y' = y - G_P' mu with the pinned variables set to 0, each product a
    stacked np.matmul (G_P' on a transposed view of a C-ordered (lanes, p, n)
    stack of G_P, which gives G_P' @ mu's bytes), and the rule on G y'.  A
    lane takes y' where _solve would return it from its face unchanged: every
    mu >= 0, y' finite before its pins (so y, every mu and each step of _solve
    were finite too), and y' meets the rule, its slack taken over y and y'.
    Every other lane swaps its face into its projector for a _solve of a
    fresh copy of y, the exchanges (_add) included, unless a lane of that
    projector has raised.
    """
    with np.errstate(all="ignore"):  # an inf in y gives inf - inf; _solve raises for it
        need = (~_meet(np.matmul(G, Y[:, :, None])[:, :, 0] - top, Y)).nonzero()[0].tolist()
    if not need:
        return []
    groups = {}  # face size -> lanes, where a group can reach _STACK_MIN
    if len(need) >= _STACK_MIN:
        for l in need:
            groups.setdefault(len(faces[l][5]) if faces[l] else 0, []).append(l)
    solo = groups.pop(0, []) if groups else need  # no map reads the empty face
    for group in groups.values():
        if len(group) < _STACK_MIN:
            solo += group
            continue
        held = [faces[l] for l in group]
        y = Y[group]
        K, k, G_P = (np.array(a) for a in zip(*[(Kf, kf, Gt.T) for Kf, kf, Gt, _, _, _ in held]))
        with np.errstate(all="ignore"):
            mu = np.matmul(K, y[:, :, None])[:, :, 0] - k
            v = y - np.matmul(G_P.transpose(0, 2, 1), mu[:, :, None])[:, :, 0]
            settled = _all(mu >= 0.0, axis=1) & _all(np.isfinite(v), axis=1)
            pins = [(i, j) for i, (_, _, _, pinned, _, _) in enumerate(held) for j in pinned]
            if pins:
                v[tuple(zip(*pins))] = 0.0
            D = np.matmul(G[group], v[:, :, None])[:, :, 0] - top[group]
            settled = (settled & _meet(D, v, y)).tolist()
        if all(settled):
            Y[group] = v
        else:
            Y[np.compress(settled, group)] = v[settled]
            solo += [l for l, ok in zip(group, settled) if not ok]
    failed, raised = [], set()  # the lanes, and the projectors, whose call raised
    for l in sorted(solo):
        warm = warms[l]
        if warm in raised:
            continue
        warm._held = faces[l]
        try:
            Y[l] = warm._solve(Y[l].copy())  # a fresh vector, as _pg_run's y is
        except Exception:
            failed.append(l)
            raised.add(warm)
        faces[l] = warm._held
    return failed


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
