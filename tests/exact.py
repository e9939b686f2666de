"""Exact checks of a projection's outcome, in Fraction arithmetic.

Each check reads the floats it is given as the exact rationals they are, so
no rounding of its own can pass or fail an outcome.  check_point judges a
returned point with its multipliers, check_farkas a certificate of an empty
polyhedron; both take the rows of [A; -I] (the m rows of A, then the n
bounds -y <= 0) in the caller's units, as the projector reports them.
"""
from decimal import Decimal
from fractions import Fraction
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
        + 1e-12 ||g_j|| X + r_j: its own tolerance, the projector's slack
        on the scale of x and y, and the rounding term (the bound rows
        are y >= 0);
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
