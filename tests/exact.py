"""Exact checks of a projection's and a crisp solve's outcome, in Fraction
arithmetic.

Each check reads the floats it is given as the exact rationals they are, so
no rounding of its own can pass or fail an outcome.  check_point judges a
returned point with its multipliers, check_farkas a certificate of an empty
polyhedron, check_kkt a crisp solution with its multipliers; each takes the
rows of [A; -I] (the m rows of A, then the n bounds -y <= 0) in the
caller's units, as the projector reports them.  exact_min is the exact
global minimum of a crisp QP with n <= 3 on a bounded polyhedron.
"""
from decimal import Decimal
from fractions import Fraction
from itertools import combinations
from math import frexp, hypot, ldexp

U = Fraction(1, 2 ** 53)  # the unit roundoff of a float
TINY = Fraction(1, 2 ** 1010)  # the least subnormal at the projector's deepest shift, 2^-64
LEAST = Fraction(1, 2 ** 1074)  # the least subnormal: a multiplier below the normal range is off by half of it
ROUNDING = 64  # the rounding term's constant, a wide margin over the n + 1 <= 5 rounded terms of a sum


def _norm(row: list) -> Fraction:
    """||row|| as a Fraction, taken on the row times the 2^k that puts its
    largest |entry| in [0.5, 1), exact, as the projector scales its rows, so
    no finite row's norm overflows; 1 for an all-zero row, as the projector
    reads it (the row 0 <= b_i)."""
    top = max(map(abs, row), default=0.0)
    if not top:
        return Fraction(1)
    k = -frexp(top)[1]
    return Fraction(hypot(*(ldexp(a, k) for a in row))) / Fraction(2) ** k


def _rows(A, b):
    """The m + n rows of [A; -I] with their right-hand sides and norms, as
    Fractions."""
    A = A.tolist()
    n = len(A[0]) if A else 0
    bounds = [[-float(i == j) for j in range(n)] for i in range(n)]
    norms = [_norm(row) for row in A + bounds]
    rows = [[Fraction(a) for a in row] for row in A + bounds]
    rhs = [Fraction(v) for v in b.tolist()] + [Fraction(0)] * n
    return rows, rhs, norms


def _fractions(v) -> list:
    """The entries of an array or a sequence as exact Fractions."""
    return [Fraction(e) for e in (v.tolist() if hasattr(v, "tolist") else v)]


def _dot(u, v):
    return sum((p * q for p, q in zip(u, v)), Fraction(0))


def _e(q: Fraction) -> str:
    """q to 4 digits, past the float range too, for a failure's message."""
    return format(Decimal(q.numerator) / Decimal(q.denominator), ".3e")


def check_point(x, A, b, y, mu) -> None:
    """AssertionError unless y with mu is the projection of x onto
    {y: Ay <= b, y >= 0} up to the projector's own tolerances and rounding.

    With X = max(|x_i|, |y_i|) and S = sum_j |mu_j| ||g_j|| over the rows
    g_j of [A; -I] (the length of A'mu_A - mu_I before cancellation), let
    the rounding term of row j be

        r_j = 64 ||g_j|| (u (X + S) + 2^-1010),   u = 2^-53.

    y is x - G_P'mu_P rounded at about |x| + |G_P'||mu_P|, so each entry is
    off by a few u (X + S), not by a share of |b_j|; 2^-1010 is the least
    subnormal where the projector works at 2^-64 of the caller's units.
    Then, exactly:
      - each row meets g_j.y <= b_j + t_j, t_j = 1e-12 (||g_j|| + |b_j|)
        + 1e-12 ||g_j|| X + r_j: the projector's rule (its own tolerance
        and the rounding slack on the scale of x and y) and the rounding
        term (the bound rows are y >= 0);
      - mu >= 0, and a row with mu_j > 0 is tight, |g_j.y - b_j| <= t_j;
      - x - y = A'mu_A - mu_I to a relative 1e-9 of X + S, plus 64 2^-1010
        and 2^-1074 sum_j ||g_j||: a multiplier below the normal range is
        off by up to half the least subnormal.
    """
    rows, rhs, norms = _rows(A, b)
    x, y, mu = map(_fractions, (x, y, mu))
    X = max(map(abs, x + y))
    S = sum((abs(m) * g for m, g in zip(mu, norms)), Fraction(0))
    tiny = U * (X + S) + TINY
    for j, (row, bj, norm, mj) in enumerate(zip(rows, rhs, norms, mu)):
        tol = Fraction(1e-12) * (norm + abs(bj) + norm * X) + ROUNDING * norm * tiny
        excess = _dot(row, y) - bj
        assert excess <= tol, f"row {j} exceeds b by {_e(excess)} > {_e(tol)}"
        assert mj >= 0, f"multiplier {j} is {_e(mj)} < 0"
        assert mj == 0 or -excess <= tol, f"row {j} has mu > 0 but slack {_e(-excess)} > {_e(tol)}"
    bound = Fraction(1e-9) * (X + S) + ROUNDING * TINY + LEAST * sum(norms)
    for i, (xi, yi) in enumerate(zip(x, y)):
        residual = xi - yi - sum((row[i] * m for row, m in zip(rows, mu)), Fraction(0))
        assert abs(residual) <= bound, f"x - y - (A'mu_A - mu_I) is {_e(residual)} in entry {i}"


def check_farkas(A, b, mu) -> None:
    """AssertionError unless mu is a Farkas certificate that {y: Ay <= b,
    y >= 0} is empty: mu >= 0, A'mu_A - mu_I = 0 to a relative 1e-12 of
    S = sum_j |mu_j| ||g_j|| plus the rounding terms of check_point, 64 u S
    and 2^-1074 sum_j ||g_j|| (the projector calls a row's normal in the span
    of others when the part orthogonal to them has norm at most 1e-12), and
    b'mu_A < 0 exactly."""
    rows, rhs, norms = _rows(A, b)
    mu = _fractions(mu)
    assert min(mu) >= 0, "a negative multiplier"
    S = sum((m * g for m, g in zip(mu, norms)), Fraction(0))
    bound = (Fraction(1e-12) + ROUNDING * U) * S + LEAST * sum(norms)
    for i in range(len(rows[0])):
        residual = sum((row[i] * m for row, m in zip(rows, mu)), Fraction(0))
        assert abs(residual) <= bound, f"A'mu_A - mu_I is {_e(residual)} in entry {i}"
    assert _dot(rhs, mu) < 0, "b'mu_A >= 0"


def check_kkt(q, x, lam, step, s) -> None:
    """AssertionError unless x with lam solves the KKT conditions of
    min c'x + x'Qx/2 over {x: Ax <= b, x >= 0} up to the solver's own
    stationarity s at the step `step`, and check_point's tolerances.

    lam is read as multipliers(v) / step at v = x - step (c + Qx), so that
    c + Qx + A'lam_A - lam_I = (x - P(v)) / step, and s = max|x - P(v)| is
    what the solver reports for x.  With X = max|x_i|, S = sum_j |lam_j|
    ||g_j|| over the rows g_j of [A; -I] and C = max_i (|c_i| + sum_k
    |Q_ik x_k|), let V = X + step (C + S), the scale of v and of P(v) + step
    (A'lam_A - lam_I), so that X + S of check_point reads V.  Then, exactly:
      - each row meets g_j.x <= b_j + t_j, t_j = 1e-12 (||g_j|| + |b_j|) +
        1e-12 ||g_j|| V + 64 ||g_j|| (u V + 2^-1010): check_point's rule
        (x >= 0 and Ax <= b);
      - lam >= 0, and a row with lam_j > 0 is tight within t_j + ||g_j||_1
        s, as P(v) is tight within t_j and lies within s of x in each entry;
      - |c + Qx + A'lam_A - lam_I|_i <= (s + 64 (u V + 2^-1010) + 2^-1074
        sum_j ||g_j||) / step: the solver's residual, its rounding, and a
        multiplier below the normal range off by half the least subnormal.
    """
    rows, rhs, norms = _rows(q.A, q.b)
    x, lam, c, step, s = _fractions(x), _fractions(lam), _fractions(q.c), Fraction(step), Fraction(s)
    Q = [_fractions(row) for row in q.Q.tolist()]
    X = max(map(abs, x))
    S = sum((abs(v) * g for v, g in zip(lam, norms)), Fraction(0))
    C = max(abs(ci) + sum((abs(a * v) for a, v in zip(row, x)), Fraction(0)) for ci, row in zip(c, Q))
    V = X + step * (C + S)
    tiny = U * V + TINY
    for j, (row, bj, norm, lj) in enumerate(zip(rows, rhs, norms, lam)):
        tol = Fraction(1e-12) * (norm + abs(bj) + norm * V) + ROUNDING * norm * tiny
        excess = _dot(row, x) - bj
        assert excess <= tol, f"row {j} exceeds b by {_e(excess)} > {_e(tol)}"
        assert lj >= 0, f"multiplier {j} is {_e(lj)} < 0"
        near = tol + sum(map(abs, row)) * s
        assert lj == 0 or -excess <= near, f"row {j} has lam > 0 but slack {_e(-excess)} > {_e(near)}"
    bound = (s + ROUNDING * tiny + LEAST * sum(norms)) / step
    for i, (ci, qi) in enumerate(zip(c, Q)):
        residual = ci + _dot(qi, x) + sum((row[i] * v for row, v in zip(rows, lam)), Fraction(0))
        assert abs(residual) <= bound, f"c + Qx + A'lam_A - lam_I is {_e(residual)} in entry {i} > {_e(bound)}"


def _solve(M: list, r: list):
    """The one solution of the square system M z = r in Fractions, or None
    where M is singular (Gauss-Jordan elimination on the first nonzero
    pivot, exact)."""
    n = len(M)
    rows = [[*row, v] for row, v in zip(M, r)]
    for col in range(n):
        pivot = next((i for i in range(col, n) if rows[i][col]), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        top = rows[col]
        for i, row in enumerate(rows):
            if i != col and row[col]:
                f = row[col] / top[col]
                rows[i] = [a - f * t for a, t in zip(row, top)]
    return [row[n] / row[col] for col, row in enumerate(rows)]


def bounded(A, b) -> bool:
    """Whether {x: Ax <= b, x >= 0} has no recession direction: no d >= 0,
    d != 0, with Ad <= 0.  Those d with sum d = 1 form a polytope, which,
    where it is not empty, has a vertex at which n - 1 independent rows of
    [A; -I] hold with equality; so none of those systems may give one."""
    rows, _, _ = _rows(A, b)
    n = len(rows[0])
    for S in combinations(rows, n - 1):
        d = _solve([*S, [Fraction(1)] * n], [Fraction(0)] * (n - 1) + [Fraction(1)])
        if d is not None and all(_dot(row, d) <= 0 for row in rows):
            return False
    return True


def exact_min(q) -> Fraction:
    """The global minimum of c'x + x'Qx/2 over {x: Ax <= b, x >= 0}, exactly,
    for n <= 3 on a bounded polyhedron; ValueError for any other instance,
    and where the polyhedron is empty.

    The minimum lies in the relative interior of a face, where it is a
    stationary point of the objective on the face's affine hull, the rows
    of a set S of independent rows of [A; -I] held with equality; where the
    objective is flat along some direction of that hull, the minimum is
    reached on a smaller face too, the polyhedron being bounded.  So each S
    of at most n rows whose KKT system [Q G_S'; G_S 0] [x; lam] = [-c; b_S]
    has one solution gives a candidate x (Q read as (Q + Q')/2), and the
    least objective over the candidates that meet every row is the minimum.
    """
    n = len(q.c)
    if n > 3 or not bounded(q.A, q.b):
        raise ValueError("exact_min takes n <= 3 on a bounded polyhedron")
    rows, rhs, _ = _rows(q.A, q.b)
    c = _fractions(q.c)
    Q = [_fractions(row) for row in q.Q.tolist()]
    Q = [[(Q[i][k] + Q[k][i]) / 2 for k in range(n)] for i in range(n)]
    best = None
    for size in range(n + 1):
        for S in combinations(range(len(rows)), size):
            M = [Q[i] + [rows[j][i] for j in S] for i in range(n)] + [rows[j] + [Fraction(0)] * size for j in S]
            z = _solve(M, [-v for v in c] + [rhs[j] for j in S])
            x = None if z is None else z[:n]
            if x is not None and all(_dot(row, x) <= bj for row, bj in zip(rows, rhs)):
                f = _dot(c, x) + _dot(x, [_dot(row, x) for row in Q]) / 2
                best = f if best is None else min(best, f)
    if best is None:
        raise ValueError("the polyhedron is empty")
    return best
