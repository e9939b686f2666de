"""Every projection outcome checked exactly (tests/exact.py): a point with
its multipliers, a Farkas certificate, or the named float-range outcome.

The property draws rows of eighths scaled by 2^-1000..2^1000 and right-hand
sides up to +-1e308 of either sign, so it reaches the projector's exact row
scaling and its float-range shift; it holds only while ldexp and each leg's
BLAS scale exactly, so it is marked numpy_contract, which CI runs with a
larger example budget on every numpy leg.  So is the property that a
projector's call returns x itself exactly where 2^j x meets every row of G
by the one feasibility rule, (G 2^j x)_i <= top_i + 1e-12 max|2^j x|,
whichever face the projector holds.  A seeded walk checks that a warm
projector returns x itself exactly where a cold one does, and that where
their bytes differ both outcomes check exactly.

Every fixed projection case is a row of one table, _CASES: the small
instances a projection must get right and each outcome that once ran
wrong, all judged by _outcome as the property is and held to the pins of
their first tests.  The two rows whose h overflows keep a stricter row
check, with no slack on the scale of y.  Both checks are shown to reject
an outcome that misses one of their conditions.
"""
import sys
import warnings
from fractions import Fraction
from math import hypot

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from exact import check_farkas, check_point
from fuzzyqp import InfeasibleError, UnboundedError, project
from fuzzyqp.projector import _Projector

_FLOAT_MAX = Fraction(sys.float_info.max)
_eighths = st.integers(-16, 16).map(lambda k: k / 8.0)  # exact, never subnormal

# the planned row rule, with no rounding term, fails here: y2 = 2.23e-12 > 1e-12 (0 + 1)
_FOUND = ([0.0, 0.0], [[0.0, 1.0], [-0.6644605902100658, -0.96875]], [0.0, -4676.0])


def _outcome(x, A, b):
    """project's outcome for (x, A, b), checked: ("point", y, mu),
    ("certificate", mu, message) or ("float range", None, message), with no
    warning on the way."""
    x, A, b = np.array(x), np.array(A), np.array(b)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            proj = _Projector(A, b)
            y = project(x, A, b, _warm=proj)
        except InfeasibleError as err:
            if err.certificate is None:
                assert "float range" in str(err)
                return ("float range", None, str(err))
            check_farkas(A, b, err.certificate)
            return ("certificate", err.certificate, str(err))
        mu = proj.multipliers(x)
        if not np.isfinite(mu).all():
            exact = _exact_multipliers(proj, x)
            assert all(e > _FLOAT_MAX / 2 for e, m in zip(exact, mu.tolist()) if m == np.inf)
            mu = exact
    check_point(x, A, b, y, mu)
    return ("point", y, mu)


def _exact_multipliers(proj, x):
    """multipliers(x) as Fractions, for one that is +inf, beyond the float
    range: the held face's mu_P, in the projector's units, taken back to the
    caller's exactly (the Fraction form of _Projector._caller_units)."""
    _, k, _, _, Kx, P = proj._held  # the face that multipliers(x) read
    mu = [Fraction(0)] * len(proj.h)
    for i, lam in zip(P, (Kx(np.ldexp(x, proj._j)) - k).tolist()):
        if i < proj.first_bound:
            lam = Fraction(lam) / Fraction(float(proj._norms[i])) * Fraction(2) ** int(proj._shift[i])
        mu[i] = Fraction(lam) * Fraction(2) ** -proj._j
    return mu


@st.composite
def _instances(draw):
    """(x, A, b) with n, m <= 4: x of eighths times 1.5, as TestMixedScaleRows
    draws it, each row of A eighths times 2^k_i, k_i in -1000..1000, and each
    b_i either eighths times the row's 2^k_i or any float up to +-1e308."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    k = np.array(draw(st.lists(st.integers(-1000, 1000), min_size=m, max_size=m)))
    x = 1.5 * np.array(draw(st.lists(_eighths, min_size=n, max_size=n)))
    A = np.ldexp(np.reshape(draw(st.lists(_eighths, min_size=m * n, max_size=m * n)), (m, n)), k[:, None])
    b = [draw(st.one_of(_eighths.map(lambda v, ki=ki: float(np.ldexp(v, ki))), st.floats(-1e308, 1e308)))
         for ki in k.tolist()]
    return x.tolist(), A.tolist(), b


@pytest.mark.numpy_contract
@given(_instances())
@settings(deadline=None)
@example(_FOUND)
def test_every_projection_outcome_checks_exactly(instance):
    _outcome(*instance)


def _returns_itself(proj, x) -> bool:
    """Whether proj(x) is x, which keeps the held face; False where it raises."""
    held = proj._held
    try:
        itself = proj(x) is x
    except (InfeasibleError, UnboundedError):
        return False
    assert proj._held is held or not itself
    return itself


def _meets_every_row(proj, x) -> bool:
    """Every row of G xs within its top plus the rounding slack 1e-12 max|xs|,
    xs = 2^j x, one product over all of G: the one feasibility rule."""
    xs = np.ldexp(x, proj._j)
    return bool((proj.G @ xs - proj._top <= 1e-12 * np.abs(xs).max()).all())


@pytest.mark.numpy_contract
@given(_instances(), st.lists(_eighths, min_size=4, max_size=4), st.integers(0, 40))
@settings(deadline=None)
def test_a_call_returns_x_itself_exactly_where_it_meets_every_row(instance, other, s):
    """One feasibility rule: from the empty face and from the face held
    after projecting another point, and on that point's projection, which
    lies on the rows within their tolerances.  x is taken times 2^s, so
    some x lie between a top and the rule's slack."""
    x, A, b = (np.array(v) for v in instance)
    x = np.ldexp(x, s)
    try:
        proj = _Projector(A, b)
    except InfeasibleError:  # a row that no float point meets
        return
    assert _returns_itself(proj, x) == _meets_every_row(proj, x)
    other = 1.5 * np.array(other[:len(x)])
    try:
        y = proj(other)
    except InfeasibleError:
        y = None
    assert _returns_itself(proj, x) == _meets_every_row(proj, x)
    if y is not None:
        assert _returns_itself(proj, y) == _meets_every_row(proj, y)


def _walks(count: int):
    """(A, b, rng) for count seeded walks: n, m in 1..8, A normal with every
    fourth instance's rows times 2^-40..2^39, b normal plus 2 on every third;
    rng draws the walk's points."""
    rng = np.random.default_rng(36)
    for i in range(count):
        n, m = (int(v) for v in rng.integers(1, 9, size=2))
        A = rng.normal(size=(m, n))
        if i % 4 == 0:
            A = np.ldexp(A, rng.integers(-40, 40, size=(m, 1)))
        yield A, rng.normal(size=m) + (2.0 if i % 3 == 0 else 0.0), rng


def test_a_warm_call_returns_x_itself_exactly_where_a_cold_one_does():
    """Along 100 seeded walks of 15 calls, each x the last cold projection
    plus noise of 0.5 or 1e-3 (the first normal times 2), until the
    polyhedron shows empty: a fresh projector returns x's bytes only as x
    itself, and one warm from the walk's last call returns x itself exactly
    where the fresh one does; where their bytes differ, neither holds x's
    bytes and both outcomes check exactly with their own multipliers(x)."""
    for A, b, rng in _walks(100):
        warm, x = _Projector(A, b), 2.0 * rng.normal(size=A.shape[1])
        for _ in range(15):
            cold = _Projector(A, b)
            try:
                y_cold = cold(x)
            except InfeasibleError:
                break
            y_warm = warm(x)
            assert (y_cold is x) == (y_cold.tobytes() == x.tobytes()) == (y_warm is x)
            if y_cold.tobytes() != y_warm.tobytes():
                assert x.tobytes() not in (y_cold.tobytes(), y_warm.tobytes()), x.tolist()
                check_point(x, A, b, y_cold, cold.multipliers(x))
                check_point(x, A, b, y_warm, warm.multipliers(x))
            x = y_cold + rng.choice([0.5, 1e-3]) * rng.normal(size=x.size)


# Every fixed projection case, the textbook ones first, then the outcomes
# that ran wrong before the projector's fixes: (x, A, b) and the outcome's
# kind, then the pins its first test asserted, each a pair:
#   ("==", v): the point or certificate is v exactly;
#   ("close", v): the point is v to a relative 1e-12, the half-space formula;
#   ("ray", v): the certificate over its largest entry is v to a relative
#   1e-15 (and 0 where v is), a ray's direction at any positive scale;
#   ("in", text): the error's message holds text.
_CASES = {
    "feasible-point-unchanged": ([0.2, 0.3], [[1.0, 1.0]], [1.0], ("point", ("==", [0.2, 0.3]))),
    "single-halfspace-formula": ([1.0, 1.0], [[1.0, 1.0]], [1.0], ("point", ("close", [0.5, 0.5]))),
    "orthant-clamp": ([-1.0, 2.0], [[1.0, 1.0]], [10.0], ("point", ("==", [0.0, 2.0]))),
    # x1 <= 1 and x2 <= 1 from (2, 2): the corner
    "two-active-constraints": ([2.0, 2.0], [[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0], ("point", ("close", [1.0, 1.0]))),
    "empty-polyhedron": ([0.0, 0.0], [[1.0, 0.0]], [-1.0], ("certificate",)),
    # the all-zero row 0 <= 1 never binds
    "zero-row-slack-ignored": ([2.0], [[0.0]], [1.0], ("point", ("==", [2.0]))),
    # a certificate with b'mu_A = 2341 > 0 for a nonempty polyhedron: at |y| ~ 7e136
    # the rounding of y2 read as a violated bound (slack now on max|y| too)
    "false-certificate": ([12288.0, 0.0], [[0.0, 1.8448846400653416e-81], [-2.1272782735378335e-124, -2.1272782735378335e-124]],
                          [4.3180842775472223e-78, -14556562803410.842], ("point",)),
    # RuntimeError "active-set projection is cycling": y1 ~ 1e35 lies below
    # the rounding of y2 ~ 5e259, and its row flipped in and out
    "cycling": ([-1.125, -0.75], [[-7.872201966280717e+261, 0.0], [3.7218383881977644e+37, -1.595073594941899e+37]],
                [-7.848056028786488e+296, -7.848056028786488e+296], ("point",)),
    # x - y - (A'mu_A - mu_I) = 6.6e-5: at j = -64 a multiplier went back to
    # the caller's units through a subnormal (one ldexp now)
    "subnormal-multiplier": ([1.5, 0.875, -1.0], [[1.7996361766747571e-240, -5.998787255582524e-240, -5.998787255582524e-240],
                                                  [1.607262910779401e+301, 2.0090786384742512e+301, -2.1430172143725346e+301],
                                                  [1.7329185588255093e+128, -9.74766689339349e+127, -1.0830740992659433e+128],
                                                  [1.236792945344869e+73, 6.183964726724345e+72, 1.236792945344869e+73]],
                             [4.956015586279597e+298, 0.0, -2.0515061646959372e+16, 7.067388259113537e+72], ("point",)),
    # a certificate with A'mu_A - mu_I = 0.31: |h| = 1.07e307 took no shift,
    # a step overflowed to inf and read as a Farkas ray (shift from 2^1000 now)
    "h-near-overflow": ([1.125, 2.0, 1.5], [[-1.7618285302889447e-19, -1.3552527156068805e-20, 5.421010862427522e-20],
                                             [-1.8909140209225187e-124, -1.8909140209225187e-124, 9.454570104612593e-125],
                                             [1.2488417311177149e+45, 1.605653654294205e+45, -1.78405961588245e+44],
                                             [-1.6264247436475752e+283, -6.970391758489608e+282, 1.161731959748268e+282]],
                        [2.5929196041426086e-307, -3.033246318510624e+183, 2.0024033801262704e+16, -3.033246318510624e+183],
                        ("certificate",)),
    # "overflow encountered in divide": over mu_i = 1.5e301, a rounding-level
    # r_i = 4e-17 > 0 gave a ratio past the float range (no limit now), and the
    # Farkas ray then carried -r_i < 0 (read as 0 now)
    "ray-with-rounding-r": ([0.0, 0.0, 0.0], [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0],
                                              [-4.276423536147513e-50, 6.41463530422127e-50, 2.1382117680737565e-50],
                                              [0.5, -0.75, 0.375]], [0.0, 0.0, -8.572557311653681e+251, 0.0], ("certificate",)),
    # "overflow encountered in multiply": with P = (0, 1, 4) and p = 3, -e_2
    # lies in the span of P (zz = 1.2e-31), and x_3's bound has r = 3.4e-16,
    # exactly 0 in exact arithmetic, whose ratio 2.9e307 took mu - step r
    # past the float range on r_0 = -9.54 (no limit now; the ray reads it as 0)
    "ratio-step-past-the-float-range": ([0.0, 0.0, 0.0, 3.99168061906944e+292],
                                        [[0.0, 0.125, 0.375, 1.125], [0.0, 0.0, -0.625, -1.875]],
                                        [0.0, -1.99584030953472e+292],
                                        ("certificate", ("ray", [1.0, 0.6, 0.0, 0.125, 0.0, 0.0]))),
    # "overflow encountered in ldexp": the multiplier of the row 1e-302 y2 >= 0
    # is 1.8e308 in its own units (+inf now, as multipliers documents)
    "multiplier-past-the-float-range": ([0.0, 2097152.0, 0.0], [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 1.1665795231290236e-302, 0.0]],
                                        [0.0, 0.0, 0.0], ("point",)),
    # the row 0 <= -1, reported by the row exchanges' one Farkas path
    "zero-row-negative-bound": ([0.0], [[0.0]], [-1.0], ("certificate", ("==", [1.0, 0.0]))),
    # 0 <= b fails only beyond tol = 1e-12 (1 + |b|), as x <= b does; among
    # other rows its certificate is still e_i
    "zero-row-within-its-tolerance": ([0.0], [[0.0]], [-1e-13], ("point", ("==", [0.0]))),
    "unit-row-within-its-tolerance": ([0.0], [[1.0]], [-1e-13], ("point", ("==", [0.0]))),
    "zero-row-among-others": ([0.5, 0.25], [[1.0, 1.0], [0.0, 0.0]], [1.0, -1.0],
                              ("certificate", ("==", [0.0, 1.0, 0.0, 0.0]))),
    "two-opposite-rows": ([0.0, 0.0], [[1.0, 1.0], [-1.0, -1.0]], [1.0, -2.0], ("certificate",)),
    # The active set reaches n = 4 independent rows, which span R^4, and
    # rounding leaves the next row's normal a residual above 1e-24: it
    # took a fifth row and a QR of a 4 x 5 G_P' raised numpy's LinAlgError
    "full-active-set": ([0.0, 0.0, 0.0, 0.0], [[0.42, 49.0, 0.0062, 13.0], [130.0, 4.4, -0.18, -0.011], [-0.11, 160.0, -0.0094, -0.68],
                                               [1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]],
                        [0.72, -0.49, 1.0, 2.0, 2.0, 2.0, 2.0], ("certificate",)),
    # b / ||a|| is about -1e310, -inf in h, so the row's top h + tol was NaN
    # and the "certificate" [1e10, 0] had A'mu_A - mu_I = 1; it is the ray
    # e_i, then a_i
    "row-beyond-the-float-range-one": ([1.0], [[1e-10]], [-1e300], ("certificate", ("ray", [1.0, 1e-10]))),
    "row-beyond-the-float-range-two": ([1.0, 1.0], [[1e-10, 1e-10]], [-1e300], ("certificate", ("ray", [1.0, 1e-10, 1e-10]))),
    # the row's norm overflowed, or its square underflowed to a zero row:
    # both returned 5
    "row-norm-1e200": ([5.0], [[1e200]], [1e200], ("point", ("==", [1.0]))),
    "row-norm-1e-300": ([5.0], [[1e-300]], [1e-300], ("point", ("==", [1.0]))),
    # the row's norm is beyond the float range: dividing by it gave the row
    # the entry 0, and [0, 1, 1] has A'mu_A - mu_I = (-1, -1)
    "row-norm-overflows": ([0.0, 0.0], [[1.5e308, 1.5e308]], [-1e300], ("certificate",)),
    # A x on the rows as given overflowed: "overflow encountered in dot"
    "containment-reads-the-scaled-rows": ([1.0, 1.0], [[1.5e308, 1.5e308]], [-1.0], ("point",)),
    # b / ||a|| = 1e310 is +inf in h: the row holds for every finite y.  A
    # shared tolerance of inf returned (-1, 5) with an overflow warning; and
    # the row is never in a certificate
    "overflowing-h": ([-1.0, 5.0], [[1e-10, 0.0], [0.0, 1.0]], [1e300, 1.0], ("point", ("==", [0.0, 1.0]))),
    "overflowing-h-certificate": ([0.0, 0.0], [[1e-10, 0.0], [0.0, 1.0], [1.0, 1.0]], [1e300, 1.0, -1.0],
                                  ("certificate", ("ray", [0.0, 0.0, 1.0, 1.0, 1.0]), ("in", "b'mu_A = -1."))),
    # h = -inf raised a false certificate, h = +inf "b'mu_A = inf < 0"
    "h-minus-inf": ([1.0, 1.0], [[-0.5, -0.5]], [-1.3e308], ("point", ("close", [1.3e308, 1.3e308]))),
    "h-plus-inf": ([1.7e308, 1.5e308], [[1e-10, 1e-10]], [3e298], ("point", ("close", [1.6e308, 1.4e308]))),
    # h_0 = 2^2098 and h_1 = 1: a shift that brings h_0 into range took x and
    # b_1 below the smallest subnormal, so (1, 1) was "feasible"; with
    # b_0 < 0, row 0 needs y1 <= -2e631: no float vector, no certificate
    "h-2-to-the-2000-apart-b-half": ([1.0, 1.0], [[5e-324, 0.0], [0.0, 1.0]], [1e308, 0.5], ("point", ("==", [1.0, 0.5]))),
    "h-2-to-the-2000-apart-b-zero": ([1.0, 1.0], [[5e-324, 0.0], [0.0, 1.0]], [1e308, 0.0], ("point", ("==", [1.0, 0.0]))),
    "h-2-to-the-2000-apart-empty": ([0.0, 0.0], [[5e-324, 0.0], [0.0, 1.0]], [1e308, -1.0], ("certificate",)),
    "h-2-to-the-2000-apart-beyond": ([1.0, 1.0], [[5e-324, 0.0], [0.0, 1.0]], [-1e308, 0.5], ("float range",)),
    # needs x2 - x1 >= 1e310; needs x >= 2e323, where the certificate was [inf, 0]
    "beyond-the-float-range-difference": ([1.0, 1.0], [[1e-10, -1e-10]], [-1e300],
                                          ("float range", ("in", "beyond the float range"))),
    "beyond-the-float-range-subnormal-row": ([0.0], [[-5e-324]], [-1.0], ("float range", ("in", "beyond the float range"))),
}


@pytest.mark.parametrize("x, A, b, want", _CASES.values(), ids=_CASES.keys())
def test_outcomes_that_were_wrong(x, A, b, want):
    kind, value, detail = _outcome(x, A, b)
    assert kind == want[0]
    for how, pin in want[1:]:
        if how == "==":
            assert value.tolist() == pin
        elif how == "close":
            np.testing.assert_allclose(value, pin, rtol=1e-12)
        elif how == "ray":
            np.testing.assert_allclose(value / value.max(), pin, rtol=1e-15, atol=0.0)
        else:
            assert how == "in" and pin in detail


@pytest.mark.parametrize("case", ["h-minus-inf", "h-plus-inf"])
def test_a_row_whose_h_overflows_is_met_without_the_rounding_slack(case):
    """y >= 0 and a_i.y <= b_i + 1e-12 (||a_i|| + |b_i|), exactly: the row
    rule without check_point's 1e-12 ||a_i|| max|x, y| and rounding terms,
    which at |y| ~ 1e308 are as wide as the rest; and y is inside, as the
    projector tests it."""
    x, A, b, _ = _CASES[case]
    _, y, _ = _outcome(x, A, b)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert project(y, A, b).tobytes() == y.tobytes()
    assert min(y.tolist()) >= 0.0
    for row, bi in zip(A, b):
        excess = sum(Fraction(a) * Fraction(v) for a, v in zip(row, y.tolist())) - Fraction(bi)
        assert excess <= Fraction(1e-12) * (Fraction(hypot(*row)) + abs(Fraction(bi)))


def test_a_certificate_that_misses_one_condition_fails():
    """From two-opposite-rows' certificate mu: one entry times 1 + 1e-9,
    within the float bound 1e-9 max|mu| on A'mu_A - mu_I that the suite
    once used; mu + t (0, 1, -1, -1), t = mu_1, which keeps A'mu_A - mu_I
    = 0 and b'mu_A < 0; and (2t, t, t, t), which keeps A'mu_A - mu_I = 0
    with b'mu_A = 0."""
    x, A, b, _ = _CASES["two-opposite-rows"]
    _, mu, _ = _outcome(x, A, b)
    A, b, t = np.array(A), np.array(b), mu[1]
    for bad, message in [(mu * [1.0, 1.0 + 1e-9, 1.0, 1.0], r"^A'mu_A - mu_I is"),
                         (mu + t * np.array([0.0, 1.0, -1.0, -1.0]), "^a negative multiplier$"),
                         (np.array([2.0 * t, t, t, t]), r"^b'mu_A >= 0$")]:
        with pytest.raises(AssertionError, match=message):
            check_farkas(A, b, bad)


def test_the_found_instance_passes_with_its_rounding_term():
    kind, y, mu = _outcome(*_FOUND)
    assert kind == "point" and y[1] > 1e-12  # beyond the planned rule, within the rounding term


def test_a_point_moved_past_an_active_row_fails():
    x, A, b = (np.array(v) for v in _FOUND)
    _, y, mu = _outcome(x, A, b)
    active = np.flatnonzero(mu[:2])
    assert active.size
    for i in active:
        moved = y + 1e-6 * A[i] / np.linalg.norm(A[i])  # 1e-6 past row i, which is tight
        with pytest.raises(AssertionError, match=r"^row \d"):
            check_point(x, A, b, moved, mu)
