"""Unit and property tests for triangular fuzzy numbers and intervals."""
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fuzzyqp import Interval, TriangularFuzzyNumber, alpha_cut, membership

# Keeping magnitudes moderate lets the absolute 1e-12 comparisons hold;
# the cut formula accumulates ~ulp(value) of rounding.
_coord = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False)
_alpha = st.floats(min_value=0.0, max_value=1.0, allow_nan=False, allow_infinity=False)


@st.composite
def tfns(draw):
    a, b, c = sorted(draw(st.tuples(_coord, _coord, _coord)))
    return TriangularFuzzyNumber(a, b, c)


@st.composite
def intervals(draw):
    a, b = sorted(draw(st.tuples(_coord, _coord)))
    return Interval(a, b)


class TestAlphaCut:
    def test_midpoint(self):
        assert TriangularFuzzyNumber(1, 2, 3).alpha_cut(0.5) == Interval(1.5, 2.5)

    def test_top_collapses_to_mode(self):
        assert TriangularFuzzyNumber(1, 2, 3).alpha_cut(1.0) == Interval(2, 2)

    def test_bottom_is_support(self):
        assert TriangularFuzzyNumber(-6, -5, -4).alpha_cut(0.0) == Interval(-6, -4)

    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    def test_overflowing_spread_is_named(self, alpha):
        # each entry is finite, a3 - a1 is not: 0 * inf made the lower end NaN
        t = TriangularFuzzyNumber(-1e308, 1e308, 1e308)
        with pytest.raises(ValueError, match=r"^spread is not finite: \(-1e\+308, 1e\+308, 1e\+308\)$"):
            t.alpha_cut(alpha)

    @pytest.mark.parametrize("triple", [(-1e308, 1e308, 1e308), (0.0, 1.0, float("inf"))])
    def test_core_of_an_overflowing_spread_is_the_mode(self, triple):
        assert TriangularFuzzyNumber(*triple).alpha_cut(1.0) == Interval(triple[1], triple[1])

    def test_core_is_exactly_the_mode(self):
        # 0 + 1.0 * (1e-6 - 0) is exactly 1e-6, and 9 - 1.0 * (9 - 1e-6) is clamped up to it
        t = TriangularFuzzyNumber(0.0, 1e-6, 9.0)
        cut = t.alpha_cut(1.0)
        assert cut == Interval(1e-6, 1e-6)
        assert t.membership(cut.lo) == 1.0

    def test_core_of_ends_that_round_off_the_mode(self):
        # -0.7 + 1.0 * (0.1 - -0.7) rounds below 0.1 and 1.1 - 1.0 * (1.1 - 0.1)
        # above it: both land inside the cut, where no clamp reaches
        t = TriangularFuzzyNumber(-0.7, 0.1, 1.1)
        assert t.alpha_cut(1.0) == Interval(0.1, 0.1)

    @pytest.mark.parametrize("alpha", [-0.1, 1.1, 2.0, -1e-9])
    def test_alpha_out_of_range(self, alpha):
        with pytest.raises(ValueError):
            TriangularFuzzyNumber(1, 2, 3).alpha_cut(alpha)

    def test_free_function_matches_method(self):
        t = TriangularFuzzyNumber(0, 1, 4)
        assert alpha_cut(t, 0.25) == t.alpha_cut(0.25)


class TestMembership:
    def test_modal_value_is_normal(self):
        assert TriangularFuzzyNumber(1, 2, 3).membership(2) == 1.0

    def test_rising_midpoint(self):
        assert TriangularFuzzyNumber(1, 2, 3).membership(1.5) == 0.5

    def test_outside_support(self):
        t = TriangularFuzzyNumber(1, 2, 3)
        assert t.membership(4) == 0.0
        assert t.membership(0.999) == 0.0

    def test_support_endpoints_are_zero(self):
        t = TriangularFuzzyNumber(1, 2, 3)
        assert t.membership(1) == 0.0
        assert t.membership(3) == 0.0

    def test_degenerate_left_side(self):
        t = TriangularFuzzyNumber(1, 1, 3)
        assert t.membership(1) == 1.0
        assert t.membership(2) == 0.5

    def test_degenerate_right_side(self):
        t = TriangularFuzzyNumber(1, 3, 3)
        assert t.membership(3) == 1.0

    def test_crisp_indicator(self):
        t = TriangularFuzzyNumber(2, 2, 2)
        assert t.membership(2) == 1.0
        assert t.membership(2 + 1e-12) == 0.0
        assert t.membership(2 - 1e-12) == 0.0

    def test_free_function_matches_method(self):
        t = TriangularFuzzyNumber(0, 1, 4)
        assert membership(t, 2.5) == t.membership(2.5)


class TestConstruction:
    def test_reversed_triple_rejected(self):
        with pytest.raises(ValueError):
            TriangularFuzzyNumber(3, 2, 1)

    def test_mode_outside_rejected(self):
        with pytest.raises(ValueError):
            TriangularFuzzyNumber(1, 5, 3)

    def test_interval_reversed_rejected(self):
        with pytest.raises(ValueError):
            Interval(2, 1)

    def test_coercion_to_float(self):
        t = TriangularFuzzyNumber(1, 2, 3)
        assert isinstance(t.a1, float) and isinstance(t.a3, float)


class TestIntervalArithmetic:
    def test_add(self):
        assert Interval(1, 2) + Interval(3, 4) == Interval(4, 6)
        assert Interval(0, 0) + Interval(3, 4) == Interval(3, 4)
        assert Interval(-6, -4) + Interval(1, 2) == Interval(-5, -2)

    def test_scale(self):
        assert 2 * Interval(1, 3) == Interval(2, 6)
        assert -1 * Interval(1, 3) == Interval(-3, -1)
        assert 0 * Interval(1, 3) == Interval(0, 0)
        assert Interval(1, 3).scale(-2) == Interval(-6, -2)

    def test_mul(self):
        assert Interval(1, 2) * Interval(3, 4) == Interval(3, 8)
        # four endpoint products: -3, -4, 6, 8
        assert Interval(-1, 2) * Interval(3, 4) == Interval(-4, 8)
        assert Interval(0, 0) * Interval(-5, 7) == Interval(0, 0)

    def test_an_unbounded_end_times_zero_is_zero(self):
        # each raised "interval endpoints out of order" on a product nan = 0 * inf
        inf = np.inf
        assert Interval(0, 1) * Interval(-inf, inf) == Interval(-inf, inf)
        assert Interval(-1, 0) * Interval(1, inf) == Interval(-inf, 0)
        assert Interval(-inf, inf).scale(0) == Interval(0, 0)
        assert 0.0 * Interval(1, inf) == Interval(0, 0)
        assert np.signbit((-0.0 * Interval(1, inf)).lo)  # -0.0 * 1 keeps its sign

    def test_scalar_via_mul(self):
        assert Interval(1, 3) * 2 == Interval(2, 6)

    def test_contains(self):
        assert 1.5 in Interval(1, 2)
        assert 2.5 not in Interval(1, 2)


@given(tfns(), _alpha, _alpha)
def test_cuts_are_nested(t, a1, a2):
    lo_level, hi_level = min(a1, a2), max(a1, a2)
    outer = t.alpha_cut(lo_level)
    inner = t.alpha_cut(hi_level)
    assert outer.lo <= inner.lo + 1e-12 and inner.hi <= outer.hi + 1e-12


@given(tfns())
def test_cut_endpoint_consistency(t):
    support = t.alpha_cut(0.0)
    assert support == Interval(t.a1, t.a3)
    core = t.alpha_cut(1.0)
    assert abs(core.lo - t.a2) <= 1e-12
    assert abs(core.hi - t.a2) <= 1e-12


@given(tfns(), _alpha, st.floats(min_value=0.0, max_value=1.0))
# alpha*(a2 - a1) underflows to 0, so the nearest lower end is a1, graded 0
@example(TriangularFuzzyNumber(-5e-324, 0.0, 0.0), 0.5, 0.0)
# a spread of 0.01 at -1000: the nearest ends are graded about 4.5e-12 below alpha
@example(TriangularFuzzyNumber(-1000.0, -999.99, -999.98), 0.7, 0.0)
@example(TriangularFuzzyNumber(-1000.0, -999.99, -999.98), 0.7, 1.0)
def test_membership_cut_duality(t, alpha, frac):
    cut = t.alpha_cut(alpha)
    x = cut.lo + frac * (cut.hi - cut.lo)
    x = min(max(x, cut.lo), cut.hi)
    assert t.membership(x) >= alpha - 1e-12


# ends anywhere in the float range, so a side can be wider than it
_wide = st.floats(min_value=-1.7e308, max_value=1.7e308)
_frac = st.floats(min_value=0.0, max_value=1.0)


@pytest.mark.parametrize("triple, x, grade", [
    ((-1e308, 1e308, 1e308), 1e308, 1.0),  # inf / inf was NaN at the mode
    ((-1e308, 1e308, 1e308), 0.0, 0.5),  # 1e308 / inf was 0
    ((-1e308, -1e308, 1e308), 0.0, 0.5),
    # an infinite end grades by the formula's limit; each was NaN
    ((0.0, 1.0, np.inf), 2.0, 1.0),
    ((-np.inf, 0.0, 1.0), -1.0, 1.0),
    ((0.0, 1.0, np.inf), np.inf, 0.0),
    ((0.0, np.inf, np.inf), np.inf, 1.0),
    ((-np.inf, np.inf, np.inf), 0.0, 0.5),  # both infinite: the limit of (-M, M, M)
])
def test_side_wider_than_the_float_range(triple, x, grade):
    assert TriangularFuzzyNumber(*triple).membership(x) == grade


@given(st.tuples(_wide, _wide, _wide), _frac, _frac)
@example((-1e308, 1e308, 1e308), 0.25, 0.5)
@example((-1e308, -1e308, 1e308), 0.5, 0.75)
def test_membership_is_a_monotone_grade(triple, f, g):
    t = TriangularFuzzyNumber(*sorted(triple))
    assert t.membership(t.a2) == 1.0
    # two points of the support, x <= y, by a convex combination that cannot overflow
    x, y = (min(max((1 - h) * t.a1 + h * t.a3, t.a1), t.a3) for h in sorted((f, g)))
    gx, gy = t.membership(x), t.membership(y)
    assert 0.0 <= gx <= 1.0 and 0.0 <= gy <= 1.0
    if y <= t.a2:
        assert gx <= gy
    if t.a2 <= x:
        assert gx >= gy


@given(intervals(), intervals(), st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=0.0, max_value=1.0))
def test_arithmetic_containment(a, b, fa, fb):
    u = a.lo + fa * (a.hi - a.lo)
    v = b.lo + fb * (b.hi - b.lo)
    u = min(max(u, a.lo), a.hi)
    v = min(max(v, b.lo), b.hi)
    s = a + b
    assert s.lo <= u + v <= s.hi
    p = a * b
    assert p.lo <= u * v <= p.hi


@given(intervals(), _coord, st.floats(min_value=0.0, max_value=1.0))
def test_scale_containment(a, k, fa):
    u = a.lo + fa * (a.hi - a.lo)
    u = min(max(u, a.lo), a.hi)
    s = a.scale(k)
    assert s.lo <= k * u <= s.hi


@given(_coord, _alpha, _coord)
def test_crisp_tfn_behaves_like_a_real(c, alpha, x):
    t = TriangularFuzzyNumber(c, c, c)
    assert t.alpha_cut(alpha) == Interval(c, c)
    assert t.membership(x) == (1.0 if x == c else 0.0)
    assert t.is_crisp


# few distinct values, so that crisp and one-sided triples are common
_corner = st.one_of(st.sampled_from([-1.0, 0.0, 2.0]), _coord)


@given(st.tuples(_corner, _corner, _corner))
@example((0.0, 0.0, 0.0))
@example((1.0, 2.0, 2.0))
@example((1.0, 1.0, 2.0))
@example((1.0, 2.0, 3.0))
def test_nan_lies_in_no_support(triple):
    assert TriangularFuzzyNumber(*sorted(triple)).membership(float("nan")) == 0.0


@given(_coord, _coord, _coord, _coord)
def test_crisp_interval_arithmetic_is_real_arithmetic(u, v, k, _unused):
    a, b = Interval(u, u), Interval(v, v)
    assert (a + b) == Interval(u + v, u + v)
    assert (a * b) == Interval(u * v, u * v)
    assert a.scale(k) == Interval(k * u, k * u)
