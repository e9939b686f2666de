"""Triangular fuzzy numbers, their alpha-cuts, and closed-interval arithmetic."""
from __future__ import annotations

from dataclasses import dataclass
from math import isfinite


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
                self.lo * other.lo,
                self.lo * other.hi,
                self.hi * other.lo,
                self.hi * other.hi,
            )
            return Interval(min(products), max(products))
        return self.scale(other)

    def __rmul__(self, k: float) -> "Interval":
        return self.scale(k)

    def scale(self, k: float) -> "Interval":
        """Scalar multiple; a negative factor swaps the endpoints."""
        k = float(k)
        if k >= 0.0:
            return Interval(k * self.lo, k * self.hi)
        return Interval(k * self.hi, k * self.lo)

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

        The cut at alpha = 1 is the core [a2, a2] exactly.  Below it, rounding
        can carry an endpoint an ulp past the mode a2, which the exact cut
        always contains; each endpoint is clamped to its side of a2 as numpy's
        minimum and maximum clamp lower_qp and upper_qp, so both give the same
        bytes: a tie, such as 0.0 against -0.0, keeps a2, and a NaN stays.

        A triple whose spread a3 - a1 overflows has no finite cut ends below
        alpha = 1 (0 * inf in the affine step); there it raises ValueError in
        FuzzyQP validation's words, "spread is not finite".
        """
        alpha = check_alpha(alpha)
        a2 = self.a2
        if alpha == 1.0:
            return Interval(a2, a2)
        if not isfinite(self.a3 - self.a1):
            raise ValueError(f"spread is not finite: ({self.a1}, {self.a2}, {self.a3})")
        lo = self.a1 + alpha * (a2 - self.a1)
        hi = self.a3 - alpha * (self.a3 - a2)
        return Interval(a2 if a2 <= lo else lo, a2 if a2 >= hi else hi)

    def membership(self, x: float) -> float:
        """Membership grade of x: 0 outside [a1, a3], 1 at a2, linear between.

        Degenerate sides (a1 == a2 or a2 == a3) grade their single point 1,
        and NaN, which lies in no support, grades 0.
        """
        x = float(x)
        if not self.a1 <= x <= self.a3:
            return 0.0
        if x <= self.a2:
            if self.a1 == self.a2:
                return 1.0
            return (x - self.a1) / (self.a2 - self.a1)
        if self.a2 == self.a3:
            return 1.0
        return (self.a3 - x) / (self.a3 - self.a2)

    @property
    def is_crisp(self) -> bool:
        return self.a1 == self.a2 == self.a3


def check_alpha(alpha: float) -> float:
    """Validate a level value, returning it as a float in [0, 1], -0.0 as 0.0."""
    alpha = float(alpha)
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    return alpha + 0.0


def alpha_cut(t: TriangularFuzzyNumber, alpha: float) -> Interval:
    return t.alpha_cut(alpha)


def membership(t: TriangularFuzzyNumber, x: float) -> float:
    return t.membership(x)
