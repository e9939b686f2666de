"""Triangular fuzzy numbers, their alpha-cuts, and closed-interval arithmetic."""
from __future__ import annotations

from dataclasses import dataclass
from math import isfinite, isinf

import numpy as np


def _times(a: float, b: float) -> float:
    """a * b, with 0 * inf taken as 0, the product of an unbounded end with
    a zero end or factor; only that NaN product is replaced, so every other
    keeps its bytes and its sign of zero, and a NaN factor stays NaN."""
    p = a * b
    return 0.0 if p != p and a == a and b == b else p


@dataclass(frozen=True)
class Interval:
    """Closed real interval [lo, hi]."""

    lo: float
    hi: float

    def __post_init__(self):
        object.__setattr__(self, "lo", float(self.lo))
        object.__setattr__(self, "hi", float(self.hi))
        if not self.lo <= self.hi:
            raise ValueError(f"interval endpoints out of order: [{self.lo}, {self.hi}]")

    def __add__(self, other: "Interval") -> "Interval":
        return Interval(self.lo + other.lo, self.hi + other.hi)

    def __mul__(self, other):
        """Interval * Interval (four-product rule) or Interval * scalar."""
        if isinstance(other, Interval):
            products = (
                _times(self.lo, other.lo),
                _times(self.lo, other.hi),
                _times(self.hi, other.lo),
                _times(self.hi, other.hi),
            )
            return Interval(min(products), max(products))
        return self.scale(other)

    def __rmul__(self, k: float) -> "Interval":
        return self.scale(k)

    def scale(self, k: float) -> "Interval":
        """Scalar multiple; a negative factor swaps the endpoints."""
        k = float(k)
        if k >= 0.0:
            return Interval(_times(k, self.lo), _times(k, self.hi))
        return Interval(_times(k, self.hi), _times(k, self.lo))

    def __contains__(self, x: float) -> bool:
        return self.lo <= x <= self.hi

    @property
    def width(self) -> float:
        return self.hi - self.lo


@dataclass(frozen=True)
class TriangularFuzzyNumber:
    """Fuzzy number (a1, a2, a3) with piecewise-linear membership peaking at a2.

    Requires a1 <= a2 <= a3; equalities are allowed, so a crisp value c
    embeds as (c, c, c).
    """

    a1: float
    a2: float
    a3: float

    def __post_init__(self):
        object.__setattr__(self, "a1", float(self.a1))
        object.__setattr__(self, "a2", float(self.a2))
        object.__setattr__(self, "a3", float(self.a3))
        if not self.a1 <= self.a2 <= self.a3:
            raise ValueError(
                f"triple out of order: ({self.a1}, {self.a2}, {self.a3})"
            )

    def alpha_cut(self, alpha: float) -> Interval:
        """Level set at alpha in [0, 1]: [a1 + alpha*(a2-a1), a3 - alpha*(a3-a2)].

        The cut at alpha = 1 is the core [a2, a2] exactly.  Below it the ends
        are _cut_ends', as in lower_qp and upper_qp: clamped to the mode, and
        moved one float towards it where rounding carried them out of the cut.

        A triple whose spread a3 - a1 overflows has no finite cut ends below
        alpha = 1 (0 * inf in the affine step); there it raises ValueError in
        FuzzyQP validation's words, "spread is not finite".
        """
        alpha = check_alpha(alpha)
        a1, a2, a3 = self.a1, self.a2, self.a3
        if alpha == 1.0:
            return Interval(a2, a2)
        if not isfinite(a3 - a1):
            raise ValueError(f"spread is not finite: ({a1}, {a2}, {a3})")
        mode = np.array([a2])
        lo = _cut_ends(np.array([a1]), np.array([a2 - a1]), mode, alpha, 0)
        hi = _cut_ends(np.array([a3]), np.array([a3 - a2]), mode, alpha, 1)
        return Interval(lo[0], hi[0])

    def membership(self, x: float) -> float:
        """Membership grade of x: 0 outside [a1, a3], 1 at a2, linear between.

        Degenerate sides (a1 == a2 or a2 == a3) grade their single point 1,
        and NaN, which lies in no support, grades 0.  A side wider than the
        float range is graded on halved operands, exact at such magnitudes,
        and an infinite end by the formula's limit: an infinite support end
        grades 0 and its side's finite points 1 (0.5 if the mode is infinite
        too), an infinite mode 1 and the finite points 0.
        """
        x = float(x)
        a1, a2, a3 = self.a1, self.a2, self.a3
        if not a1 <= x <= a3:
            return 0.0
        if isinf(x) or isinf(a1 if x <= a2 else a3):  # an infinite end, as above
            return float(x == a2) if isinf(x) else (1.0 + isfinite(a2)) / 2
        if x <= a2:
            if a1 == a2:
                return 1.0
            if not isfinite(a2 - a1):
                a1, a2, x = a1 / 2, a2 / 2, x / 2
            return (x - a1) / (a2 - a1)
        if not isfinite(a3 - a2):
            a2, a3, x = a2 / 2, a3 / 2, x / 2
        return (a3 - x) / (a3 - a2)

    @property
    def is_crisp(self) -> bool:
        return self.a1 == self.a2 == self.a3


def check_alpha(alpha: float) -> float:
    """Validate a level value, returning it as a float in [0, 1], -0.0 as 0.0."""
    alpha = float(alpha)
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    return alpha + 0.0


def _cut_ends(end, slope, mode, alpha: float, side: int) -> np.ndarray:
    """The alpha-cut ends, as a new array, of triples given as flat arrays: support end
    a1 (side 0) or a3 (side 1), slope a2 - a1 or a3 - a2, and mode a2.  Each is the
    affine step a1 + alpha*slope or a3 - alpha*slope, clamped to its side of the mode
    by numpy's minimum or maximum (a tie keeps the mode, a NaN stays).  Rounding can
    carry an end out of the exact cut, where membership grades it below alpha (at
    (-5e-324, 0, 0) and alpha = 0.5 the step underflows to 0 and the end a1 grades
    0); such an end is moved one float towards the mode."""
    if side == 0:
        flat = np.minimum(end + alpha * slope, mode)
        gap = flat - end
    else:
        flat = np.maximum(end - alpha * slope, mode)
        gap = end - flat
    # membership's grade gap / slope is below alpha where the end rounded out of
    # the cut; a zero slope has flat == mode, and its 0 / 0 is NaN
    with np.errstate(invalid="ignore"):
        out = (flat != mode) & (gap / slope < alpha)
    flat[out] = np.nextafter(flat[out], mode[out])
    return flat


def alpha_cut(t: TriangularFuzzyNumber, alpha: float) -> Interval:
    return t.alpha_cut(alpha)


def membership(t: TriangularFuzzyNumber, x: float) -> float:
    return t.membership(x)
