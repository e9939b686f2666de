"""Shared generators and frozen reference values for the test suite."""
from bisect import bisect
from itertools import combinations, compress
from pathlib import Path

import numpy as np

from fuzzyqp import (
    CrispQP,
    FuzzyQP,
    InfeasibleError,
    QpSolution,
    SolverOptions,
    TriangularFuzzyNumber,
    UnboundedError,
    objective,
)
from fuzzyqp.solver import UNBOUNDED_LIMIT, _least, _spectrum

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURE_PATH = REPO_ROOT / "fixtures" / "liu2009-example.json"
GOLDEN_CSV_PATH = REPO_ROOT / "fixtures" / "liu2009-example.csv"

# Reference values for the bundled example, derived by hand from the KKT
# conditions of the endpoint QPs (fractions are exact).
Z_LOWER_AT_0 = -49.0 / 12.0              # edge minimum of -4 - x2 + 3*x2^2 on x1 + 0.5*x2 = 1
X_LOWER_AT_0 = (11.0 / 12.0, 1.0 / 6.0)
Z_UPPER_AT_0 = -1.0                       # bound minimum of -4*x1 + 4*x1^2 on x2 = 0
X_UPPER_AT_0 = (0.5, 0.0)
Z_AT_1 = -167.0 / 80.0                    # interior stationary point, z = c'x/2
X_AT_1 = (0.85, 0.05)
LIP_LOWER_AT_0 = 3.0 + np.sqrt(10.0)      # roots of l^2 - 6l - 1
LIP_AT_1 = 5.0 + np.sqrt(5.0)             # roots of l^2 - 10l + 20

# Benchmark reference values over the six-level grid (rounded, so they
# sit within 1e-2 of the exact optima derived above).
TABLE_ALPHAS = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
TABLE_Z_LOWER = (-4.0833, -4.0503, -3.7271, -3.1306, -2.4891, -2.0872)
TABLE_Z_UPPER = (-1.0, -1.1605, -1.3444, -1.5559, -1.8, -2.0872)


def crisp_tfn(v: float) -> TriangularFuzzyNumber:
    return TriangularFuzzyNumber(v, v, v)


def crisp_problem() -> FuzzyQP:
    """Fully degenerate problem equal to the example's modal (alpha=1) QP."""
    t = crisp_tfn
    return FuzzyQP(
        c=(t(-5.0), t(1.5)),
        Q=((t(6.0), t(-2.0)), (t(-2.0), t(4.0))),
        A=((t(1.0), t(1.0)), (t(2.0), t(-1.0))),
        b=(t(2.0), t(4.0)),
    )


def random_convex_qp(rng: np.random.Generator, n_max: int = 4, m_max: int = 4) -> CrispQP:
    """Convex instance with Q = M'M + 0.1*I and the origin feasible."""
    n = int(rng.integers(1, n_max + 1))
    m = int(rng.integers(1, m_max + 1))
    return convex_qp(rng, n, m)


def convex_qp(rng: np.random.Generator, n: int, m: int) -> CrispQP:
    """random_convex_qp with n variables and m rows."""
    M = rng.normal(size=(n, n))
    return CrispQP(
        c=rng.normal(size=n),
        Q=M.T @ M + 0.1 * np.eye(n),
        A=rng.normal(size=(m, n)),
        b=rng.uniform(0.1, 2.0, size=m),
    )


def random_tfn(rng: np.random.Generator, lo: float = -50.0, hi: float = 50.0) -> TriangularFuzzyNumber:
    return TriangularFuzzyNumber(*np.sort(rng.uniform(lo, hi, size=3)))


def random_fuzzy_qp(rng: np.random.Generator, n_max: int = 3, m_max: int = 3) -> FuzzyQP:
    """Random valid fuzzy problem (symmetric Q, ordered triples)."""
    n = int(rng.integers(1, n_max + 1))
    m = int(rng.integers(1, m_max + 1))
    Q = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            Q[i][j] = Q[j][i] = random_tfn(rng)
    return FuzzyQP(
        c=tuple(random_tfn(rng) for _ in range(n)),
        Q=tuple(tuple(row) for row in Q),
        A=tuple(tuple(random_tfn(rng) for _ in range(n)) for _ in range(m)),
        b=tuple(random_tfn(rng) for _ in range(m)),
        name=f"random-{rng.integers(1_000_000)}",
    )


def enumerate_oracle_reference(q: CrispQP) -> tuple[np.ndarray, float, int]:
    """The enumeration oracle as one stationarity system per subset: (x, z, subsets).

    The reference solve_oracle's batched enumeration must reproduce bit for
    bit.  Raises InfeasibleError when no candidate is feasible.
    """
    n, m = q.n, q.m
    rows = np.vstack([q.A, np.eye(n)])
    bounds = np.concatenate([q.b, np.zeros(n)])
    candidates = []
    examined = 0
    for size in range(0, n + 1):
        for subset in combinations(range(m + n), size):
            E, d = rows[list(subset)], bounds[list(subset)]
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
            x = sol[:n] + 0.0  # each zero as +0.0
            if np.all(x >= -1e-9) and np.all(q.A @ x <= q.b + 1e-9 * (1.0 + np.abs(q.b))):
                candidates.append((x, objective(q, x)))
    if not candidates:
        raise InfeasibleError("no feasible stationary or vertex candidate found")
    # the tie rule: of the candidates within 1e-12 of the least z, the
    # lexicographically smallest x, the first of those on an exact tie
    z_min = min(z for _, z in candidates)
    best_x, best_z = min((c for c in candidates if c[1] <= z_min + 1e-12), key=lambda c: tuple(c[0]))
    return best_x, best_z, examined


class _ReferenceProjector:
    """_Projector as first written, deciding by numpy reductions, with a QR
    for every face.  It shares no code with _Projector, whose bytes it checks.

    __init__ is the first version of the set-up: zero rows of A are dropped
    from G, and origin and scale, which map G's rows back to the rows of
    [A; -I] for the Farkas certificate (_raise_infeasible) and multipliers,
    are built eagerly.  __call__ is the first version of _Projector.__call__,
    _face the first version of _Projector._face, which builds every face by
    QR: the empty face too, and a face of bounds only without the shared
    _bound_face.  _add is the first version of the row exchanges and
    multipliers the first version of the multipliers (sized m + n, the rows
    of [A; -I]).  Every product is written with @, so the reference does
    not move with _Projector's choice of kernels.
    """

    def __init__(self, A, b):
        m, n = A.shape
        self.A, self.b = A, b
        norms = np.sqrt(np.einsum("ij,ij->i", A, A))
        keep = None
        if not norms.all():  # zero rows are dropped, once none has b < 0
            zero = norms == 0.0
            if (unsatisfiable := np.flatnonzero(zero & (b < 0.0))).size:
                i = int(unsatisfiable[0])
                certificate = np.zeros(m + n)
                certificate[i] = 1.0
                raise InfeasibleError(
                    f"row {i} of A is zero and b[{i}] = {float(b[i])!r} < 0", certificate
                )
            keep = np.flatnonzero(~zero)
            A, b, norms = A[keep], b[keep], norms[keep]
        self.first_bound = k = len(norms)  # rows of G from here on are the bounds -y <= 0
        self.G, self.h = np.empty((k + n, n)), np.zeros(k + n)
        np.divide(A, norms[:, None], out=self.G[:k])
        np.divide(b, norms, out=self.h[:k])
        self.G[k:] = -0.0  # -I, bit for bit as -np.eye(n)
        self.G[k:].flat[::n + 1] = -1.0
        # Row i of G is row origin[i] of [A; -I] divided by scale[i].
        self.origin = np.arange(m + n) if keep is None else np.concatenate([keep, m + np.arange(n)])
        self.scale = np.concatenate([norms, np.ones(n)])
        self.tol = 1e-12 * (1.0 + float(np.abs(self.h).max(initial=0.0)))
        self.active = ()  # the set the last call ended on
        self._faces = {}  # P -> _face(P)

    def _face(self, P):
        face = self._faces.get(P)
        if face is None:
            rows = list(P)
            Gt = self.G[rows].T
            Qr, R = np.linalg.qr(Gt)
            R_inv = np.linalg.inv(R)
            K = R_inv @ Qr.T
            k = R_inv @ (R_inv.T @ self.h[rows])
            pinned = [i - self.first_bound for i in P if i >= self.first_bound]
            face = self._faces[P] = (K, k, Gt, pinned)
        return face

    def contains(self, x):
        return (self.A @ x - self.b).max(initial=0.0) <= 0.0 and x.min() >= 0.0

    @staticmethod
    def _point(x, mu, Gt, pinned):
        y = x - Gt @ mu
        if len(pinned):
            y[pinned] = 0.0
        return y

    def __call__(self, x):
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
        certificate = np.zeros(sum(self.A.shape))  # over the m + n rows of [A; -I]
        certificate[self.origin] = lam / self.scale
        raise InfeasibleError(
            "the polyhedron is empty: Farkas certificate mu >= 0 over the rows "
            f"of [A; -I] with A'mu_A - mu_I = 0 and b'mu_A = {float(self.h @ lam):.3e} < 0",
            certificate,
        )

    def multipliers(self, x):
        K, k, _, _ = self._face(self.active)
        full = np.zeros(sum(self.A.shape))
        rows = list(self.active)
        full[self.origin[rows]] = (K @ x - k) / self.scale[rows]
        return full


def extract_reference(p: FuzzyQP, alpha: float, side: int) -> CrispQP:
    """The cut-end extraction written out per array: each clamp and step in on
    views of the triple arrays, through the checking CrispQP constructor.

    lower_qp (side 0) and upper_qp (side 1) must reproduce it byte for byte.
    At alpha = 1 both sides are the core: the modes, never a rounded cut end.
    """
    if alpha == 1.0:
        return CrispQP(*(t[..., 1] for t in p._arrays))
    ends = []
    for t in p._arrays:
        a1, a2, a3 = t[..., 0], t[..., 1], t[..., 2]
        if side == 0:
            end = np.minimum(a1 + alpha * (a2 - a1), a2)
            grade = np.divide(end - a1, a2 - a1, out=np.ones_like(end), where=end < a2)
        else:
            end = np.maximum(a3 - alpha * (a3 - a2), a2)
            grade = np.divide(a3 - end, a3 - a2, out=np.ones_like(end), where=end > a2)
        # membership's grade of an end that rounded out of the cut is below alpha
        ends.append(np.where(grade < alpha, np.nextafter(end, a2), end))
    return CrispQP(*ends)


def pg_reference(q: CrispQP, opts: SolverOptions | None = None, callback=None) -> QpSolution:
    """solve_pg as first written: every exact comparison by a numpy reduction,
    every product with @, and the default start points drawn by
    numpy.random's Generator.

    The lean solve_pg must reproduce it bit for bit, callback iterates
    included.
    """
    opts = opts or SolverOptions()
    K, convex = _spectrum(q.Q)
    if not q.Q.any():
        K = max(float(np.linalg.norm(q.c)), 1.0)
    step = 1.0 / K
    if opts.multistart is not None:
        starts = [np.asarray(p, dtype=float) for p in opts.multistart]
    elif convex:
        starts = [np.zeros(q.n)]
    else:
        scale = max(1.0, float(np.max(np.abs(q.b))) if q.b.size else 1.0)
        random_pts = np.random.default_rng(opts.seed).uniform(0.0, scale, size=(8, q.n))
        starts = [np.zeros(q.n), *random_pts]
    if convex:
        starts = starts[:1]

    warm = _ReferenceProjector(q.A, q.b)

    def project(x):
        return x if warm.contains(x) else warm(x)

    def grad(x):
        return q.c + q.Q @ x

    def value(x):
        return float(q.c @ x + 0.5 * (x @ q.Q @ x))

    runs = []
    for x in starts:
        warm.active = ()
        x = project(x)
        if callback is not None:
            callback(x)
        iters, converged = opts.max_iter, False
        for k in range(opts.max_iter):
            x_new = project(x - step * grad(x))
            if callback is not None:
                callback(x_new)
            if np.abs(x_new).max() > UNBOUNDED_LIMIT:
                raise UnboundedError("iterate magnitude exceeded 1e+08")
            if np.abs(x_new - x).max() <= opts.tol:
                x, iters, converged = x_new, k + 1, True
                break
            x = x_new
        runs.append((x, value(x), iters, converged, warm.active))

    x, z, iters, converged, warm.active = _least([run for run in runs if run[3]] or runs)
    stationarity = float(np.max(np.abs(x - project(x - step * grad(x)))))
    return QpSolution(
        x=x, z=z, iterations=iters, converged=converged,
        stationarity=stationarity, convex=convex,
    )
