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
"""
import sys
import warnings
from fractions import Fraction

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
    ("certificate", mu) or ("float range",), with no warning on the way."""
    x, A, b = np.array(x), np.array(A), np.array(b)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            proj = _Projector(A, b)
            y = project(x, A, b, _warm=proj)
        except InfeasibleError as err:
            if err.certificate is None:
                assert "float range" in str(err)
                return ("float range",)
            check_farkas(A, b, err.certificate)
            return ("certificate", err.certificate)
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


# Outcomes that were wrong before the projector's fixes, each found by the
# property: (x, A, b) and what went wrong.
_MENDED = {
    # a certificate with b'mu_A = 2341 > 0 for a nonempty polyhedron: at |y| ~ 7e136
    # the rounding of y2 read as a violated bound (slack now on max|y| too)
    "false-certificate": ([12288.0, 0.0], [[0.0, 1.8448846400653416e-81], [-2.1272782735378335e-124, -2.1272782735378335e-124]],
                          [4.3180842775472223e-78, -14556562803410.842]),
    # RuntimeError "active-set projection is cycling": y1 ~ 1e35 lies below
    # the rounding of y2 ~ 5e259, and its row flipped in and out
    "cycling": ([-1.125, -0.75], [[-7.872201966280717e+261, 0.0], [3.7218383881977644e+37, -1.595073594941899e+37]],
                [-7.848056028786488e+296, -7.848056028786488e+296]),
    # x - y - (A'mu_A - mu_I) = 6.6e-5: at j = -64 a multiplier went back to
    # the caller's units through a subnormal (one ldexp now)
    "subnormal-multiplier": ([1.5, 0.875, -1.0], [[1.7996361766747571e-240, -5.998787255582524e-240, -5.998787255582524e-240],
                                                  [1.607262910779401e+301, 2.0090786384742512e+301, -2.1430172143725346e+301],
                                                  [1.7329185588255093e+128, -9.74766689339349e+127, -1.0830740992659433e+128],
                                                  [1.236792945344869e+73, 6.183964726724345e+72, 1.236792945344869e+73]],
                             [4.956015586279597e+298, 0.0, -2.0515061646959372e+16, 7.067388259113537e+72]),
    # a certificate with A'mu_A - mu_I = 0.31: |h| = 1.07e307 took no shift,
    # a step overflowed to inf and read as a Farkas ray (shift from 2^1000 now)
    "h-near-overflow": ([1.125, 2.0, 1.5], [[-1.7618285302889447e-19, -1.3552527156068805e-20, 5.421010862427522e-20],
                                             [-1.8909140209225187e-124, -1.8909140209225187e-124, 9.454570104612593e-125],
                                             [1.2488417311177149e+45, 1.605653654294205e+45, -1.78405961588245e+44],
                                             [-1.6264247436475752e+283, -6.970391758489608e+282, 1.161731959748268e+282]],
                        [2.5929196041426086e-307, -3.033246318510624e+183, 2.0024033801262704e+16, -3.033246318510624e+183]),
    # "overflow encountered in divide": over mu_i = 1.5e301, a rounding-level
    # r_i = 4e-17 > 0 gave a ratio past the float range (no limit now), and the
    # Farkas ray then carried -r_i < 0 (read as 0 now)
    "ray-with-rounding-r": ([0.0, 0.0, 0.0], [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0],
                                              [-4.276423536147513e-50, 6.41463530422127e-50, 2.1382117680737565e-50],
                                              [0.5, -0.75, 0.375]], [0.0, 0.0, -8.572557311653681e+251, 0.0]),
    # "overflow encountered in ldexp": the multiplier of the row 1e-302 y2 >= 0
    # is 1.8e308 in its own units (+inf now, as multipliers documents)
    "multiplier-past-the-float-range": ([0.0, 2097152.0, 0.0], [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 1.1665795231290236e-302, 0.0]],
                                        [0.0, 0.0, 0.0]),
}


@pytest.mark.parametrize("instance", _MENDED.values(), ids=_MENDED.keys())
def test_outcomes_that_were_wrong(instance):
    _outcome(*instance)


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
