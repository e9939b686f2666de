"""Projected gradient solver, exact projection, and the enumeration oracle."""
import re
import tracemalloc
import warnings
from itertools import combinations
from math import comb
from random import Random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from exact import check_farkas, check_point
from helpers import (
    LIP_AT_1,
    LIP_LOWER_AT_0,
    X_AT_1,
    X_LOWER_AT_0,
    X_UPPER_AT_0,
    Z_AT_1,
    Z_LOWER_AT_0,
    Z_UPPER_AT_0,
    convex_qp,
    enumerate_oracle_reference,
    _ReferenceProjector,
    pg_reference,
    random_convex_qp,
)

from fuzzyqp import (
    CrispQP,
    InfeasibleError,
    SolverOptions,
    UnboundedError,
    gradient,
    lipschitz_constant,
    lower_qp,
    objective,
    project,
    solve_oracle,
    solve_pg,
    upper_qp,
)
import fuzzyqp.oracle as oracle_module
import fuzzyqp.solver as solver_module
from fuzzyqp.cli import parse_alpha_spec
from fuzzyqp.oracle import ORACLE_MAX_N, _conflict_pairs, _next_level
from fuzzyqp.projector import _BOUND_FACE_N, _Projector, _bound_face, _diff_max_le, _min_ge
from fuzzyqp.solver import (
    _TIE,
    UNBOUNDED_LIMIT,
    _least,
    _scan,
    _stationarity,
    _step_rule,
    is_convex,
)


def modal_qp() -> CrispQP:
    return CrispQP(
        c=[-5.0, 1.5],
        Q=[[6.0, -2.0], [-2.0, 4.0]],
        A=[[1.0, 1.0], [2.0, -1.0]],
        b=[2.0, 4.0],
    )


class TestObjective:
    def test_modal_interior_value(self):
        assert objective(modal_qp(), X_AT_1) == pytest.approx(Z_AT_1, abs=1e-12)

    def test_zero_point(self):
        assert objective(modal_qp(), [0.0, 0.0]) == 0.0

    def test_pure_quadratic(self):
        q = CrispQP(c=[0.0, 0.0], Q=2.0 * np.eye(2), A=[[1.0, 1.0]], b=[10.0])
        assert objective(q, [1.0, 0.0]) == 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            objective(modal_qp(), [1.0, 2.0, 3.0])

    def test_opposite_overflows_give_the_exact_sum(self):
        # c'x and x'Qx/2 round to -inf and +inf; the exact sums are -5e313,
        # +5e317 and 12, so no NaN and no warning; in the last case c'x alone
        # rounds to +inf, and the exact sum 2e308 - 0.75e308 is a float
        assert objective(_overflow_qp(), [1e7]) == -np.inf
        q = CrispQP(c=[-1e300], Q=[[1e300]], A=[[1.0]], b=[1e10])
        assert objective(q, [1e9]) == np.inf
        q = CrispQP(c=[-1e308, 1.0], Q=[[1e308, 0.0], [0.0, 2.0]], A=[[1.0, 1.0]], b=[10.0])
        assert objective(q, [2.0, 3.0]) == 12.0
        q = CrispQP(c=[1e308, 1e308], Q=[[-1.5e308, 0.0], [0.0, 0.0]], A=[[1.0, 1.0]], b=[10.0])
        assert objective(q, [1.0, 1.0]) == 1.25e308


def _overflow_qp():
    """min -1e307 x + 1e300 x^2 / 2 on [0, 1e8]: the minimiser x = 1e7 has
    z = -5e313, beyond the float range, from terms that overflow apart."""
    return CrispQP(c=[-1e307], Q=[[1e300]], A=[[1.0]], b=[1e8])


class TestGradient:
    def test_interior_stationary_point(self):
        np.testing.assert_allclose(gradient(modal_qp(), X_AT_1), [0.0, 0.0], atol=1e-12)

    def test_at_origin_is_c(self):
        np.testing.assert_array_equal(gradient(modal_qp(), [0.0, 0.0]), [-5.0, 1.5])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            gradient(modal_qp(), [1.0])

    def test_matches_central_differences(self):
        rng = np.random.default_rng(3)
        h = 1e-6
        for _ in range(100):
            n = int(rng.integers(1, 7))
            M = rng.normal(size=(n, n))
            q = CrispQP(
                c=rng.normal(size=n), Q=M + M.T,
                A=rng.normal(size=(1, n)), b=[1.0],
            )
            x = rng.normal(size=n)
            g = gradient(q, x)
            for i in range(n):
                e = np.zeros(n)
                e[i] = h
                fd = (objective(q, x + e) - objective(q, x - e)) / (2 * h)
                assert abs(g[i] - fd) <= 1e-6 * max(1.0, abs(fd))


class TestLipschitz:
    def test_indefinite_example(self):
        assert lipschitz_constant([[4.0, -3.0], [-3.0, 2.0]]) == pytest.approx(
            LIP_LOWER_AT_0, rel=1e-10
        )

    def test_identity(self):
        assert lipschitz_constant(np.eye(3)) == pytest.approx(1.0, rel=1e-12)

    def test_modal_example(self):
        assert lipschitz_constant([[6.0, -2.0], [-2.0, 4.0]]) == pytest.approx(
            LIP_AT_1, rel=1e-10
        )

    def test_zero_matrix_convention(self):
        assert lipschitz_constant(np.zeros((4, 4))) == 1.0
        assert is_convex(np.zeros((4, 4))) is True

    def test_step_rule_matches_spectrum(self):
        rng = np.random.default_rng(21)
        matrices = [np.zeros((3, 3)), np.eye(3), np.diag([1e-300, 0.0, 0.0]),
                    [[4.0, -3.0], [-3.0, 2.0]], [[6.0, -2.0], [-2.0, 4.0]]]
        for n in (1, 2, 5, 40):
            M = rng.normal(size=(n, n))
            matrices += [M + M.T, M.T @ M]
        for Q in matrices:
            Q = np.asarray(Q, dtype=float)
            n = Q.shape[0]
            q = CrispQP(c=rng.normal(size=n), Q=Q, A=np.ones((1, n)), b=[1.0])
            step, convex = _step_rule(q)
            if Q.any():
                assert step == 1.0 / lipschitz_constant(Q)
            else:
                assert step == 1.0 / max(float(np.linalg.norm(q.c)), 1.0)
            assert convex is is_convex(Q)

    @pytest.mark.parametrize("c, want", [
        ([-1e160, 0.0], 1e-160),
        ([1e308, -1e308], 1e-308 / 2 ** 0.5),  # ||c|| is a float, c'c is not
        ([1.5e308, 1.5e308], 1 / 1.5e308 / 2 ** 0.5),  # ||c|| is beyond the float range
    ], ids=["square-overflows", "sum-overflows", "norm-overflows"])
    def test_lp_step_where_the_norm_of_c_overflows(self, c, want):
        # np.linalg.norm(c) overflowed, with a RuntimeWarning, and the step was 0
        q = CrispQP(c=c, Q=np.zeros((2, 2)), A=[[1.0, 1.0]], b=[1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _step_rule(q)[0] == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("c", [[1e-200, 0.0], [0.3] * 16, [3.0, 1e-300], [2.0 ** 500, -7.0]],
                             ids=["tiny", "norm-above-max", "tiny-entry", "large"])
    def test_lp_step_keeps_the_bytes_of_a_finite_norm(self, c):
        q = CrispQP(c=c, Q=np.zeros((len(c), len(c))), A=np.ones((1, len(c))), b=[1.0])
        assert _step_rule(q)[0] == 1.0 / max(float(np.linalg.norm(q.c)), 1.0)

    def test_lp_whose_norm_of_c_overflows_leaves_the_origin(self):
        # with step 0 solve_pg returned x = (0, 0), z = 0, converged and stationary
        q = CrispQP(c=[-1e160, 0.0], Q=np.zeros((2, 2)), A=[[1.0, 1.0]], b=[1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = solve_pg(q)
        np.testing.assert_allclose(s.x, [1.0, 0.0], rtol=1e-12, atol=0.0)
        assert s.z == pytest.approx(-1e160, rel=1e-12) and s.converged

    def test_large_matrix_matches_svd(self):
        # An independent route to the spectral norm: the largest singular value.
        rng = np.random.default_rng(11)
        M = rng.normal(size=(40, 40))
        Q = M + M.T
        assert lipschitz_constant(Q) == pytest.approx(np.linalg.norm(Q, 2), rel=1e-8)

    def test_close_top_eigenvalues_not_underestimated(self):
        # A near-tied top pair slows an iterative estimate to a value below K,
        # which would make the step 1/K too long.
        rng = np.random.default_rng(12)
        U, _ = np.linalg.qr(rng.normal(size=(33, 33)))
        eigs = np.concatenate([[5.0, 5.0 - 1e-6], np.linspace(-4.0, 4.0, 31)])
        Q = U @ np.diag(eigs) @ U.T
        Q = 0.5 * (Q + Q.T)
        assert lipschitz_constant(Q) >= np.linalg.norm(Q, 2) * (1 - 1e-12)


class TestProject:
    @pytest.mark.parametrize("A, b, outside, inside", [
        ([[1.0, 1.0]], [1.0], [2.0, 2.0], [0.2, 0.3]),
        ([[1e-10, 1e-10]], [3e298], [1.7e308, 1.5e308], [1.0, 1.0]),  # h overflows: x is taken as 2^j x
    ], ids=["unshifted", "shifted"])
    def test_projector_returns_an_inside_point_itself(self, A, b, outside, inside):
        """The projector's call is the whole projection: an x that meets
        every row comes back as the same array, and the face held
        from the call before stays, so no warm start moves."""
        proj = _Projector(np.array(A), np.array(b))
        assert bool(proj._j) == (b[0] > 1.0)
        proj(np.array(outside))
        held = proj._held
        assert held is not None and held[5] == (0,)
        x = np.array(inside)
        assert proj(x) is x and proj._held is held
        assert project(x, A, b, _warm=proj) is x and proj._held is held

    def test_a_warm_projector_returns_a_point_within_tolerance_itself(self):
        """x exceeds the row a.x <= 1 within the rule: by 1e-13, within the
        row's tolerance, where a projector holding that row's face returned
        x moved 5e-14 along the row; by 5e-7, within the rounding slack
        1e-12 max|x| = 1e-6, where a cold projector returned a copy of x on
        the empty face and one holding the row's face returned (1, 1e6).
        Both return x itself and keep the face they hold."""
        for a, first, x in [([1.0, 1.0], [2.0, 2.0], [0.5, 0.5 + 1e-13]),
                            ([1.0, 0.0], [2.0, 1e6], [1.0 + 5e-7, 1e6])]:
            A, b, x = np.array([a]), np.array([1.0]), np.array(x)
            cold, warm = _Projector(A, b), _Projector(A, b)
            warm(np.array(first))
            assert warm._held[5] == (0,)
            assert project(x, A, b).tobytes() == x.tobytes()
            assert cold(x) is x and cold._held is None
            assert warm(x) is x and warm._held[5] == (0,)

    def test_multipliers_after_an_inside_point_are_zero(self):
        """An x inside ends on no active row, so x - P(x) = 0 = A'mu_A - mu_I
        takes mu = 0, not the multipliers of the face an earlier call held."""
        A, b = np.array([[1.0, 1.0]]), np.array([1.0])
        proj = _Projector(A, b)
        project(np.array([2.0, 2.0]), A, b, _warm=proj)
        x = np.array([0.2, 0.3])
        project(x, A, b, _warm=proj)
        assert proj.multipliers(x).tolist() == [0.0, 0.0, 0.0]
        assert proj._held[5] == (0,)  # the warm face is kept for the next call

    @pytest.mark.parametrize("A, b, first, x, want", [
        ([[1.0, 1.0]], [1.0], [2.0, 2.0], [-1.0, 0.5], [0.0, 1.0, 0.0]),
        ([[1e-10, 1e-10]], [3e298], [1.7e308, 1.5e308], [-1e300, 1e308], [0.0, 1e300, 0.0]),
    ], ids=["unshifted", "shifted"])
    def test_multipliers_answer_for_the_x_given(self, A, b, first, x, want):
        """multipliers(x) projects x itself: the face the call before ended
        on, row 0 for first, gave (-0.75, 0, 0) for the unshifted x, a
        negative multiplier, where P(x) = (0, 0.5) lies on the bound x1 >= 0."""
        A, b, x = np.array(A), np.array(b), np.array(x)
        proj = _Projector(A, b)
        assert bool(proj._j) == (b[0] > 1.0)
        proj(np.array(first))
        mu = proj.multipliers(x)
        assert mu.tolist() == want
        y = project(x, A, b)
        assert (x - y).tolist() == (A.T @ mu[:1] - mu[1:]).tolist()

    def test_multipliers_on_an_empty_polyhedron_raise(self):
        # reading the face of an earlier call, or the empty face, returned
        # multipliers with no error
        A, b = np.array([[1.0, 1.0], [-1.0, -1.0]]), np.array([1.0, -2.0])
        with pytest.raises(InfeasibleError) as err:
            _Projector(A, b).multipliers(np.array([0.0, 0.0]))
        check_farkas(A, b, err.value.certificate)

    def test_idempotent_and_nonexpansive(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(1, 6))
            m = int(rng.integers(1, 6))
            A = rng.normal(size=(m, n))
            b = rng.uniform(0.1, 2.0, size=m)
            x = 3.0 * rng.normal(size=n)
            y = 3.0 * rng.normal(size=n)
            px = project(x, A, b)
            py = project(y, A, b)
            assert np.max(np.abs(project(px, A, b) - px)) <= 1e-8
            assert np.linalg.norm(px - py) <= np.linalg.norm(x - y) + 1e-8
            assert np.all(A @ px <= b + 1e-8) and np.all(px >= -1e-9)
            check_point(x, A, b, px, _Projector(A, b).multipliers(x))
            check_point(y, A, b, py, _Projector(A, b).multipliers(y))

    def test_no_constraint_rows(self):
        # empty A and b leave only the orthant x >= 0
        np.testing.assert_array_equal(project([-1.0, 2.0], [], []), [0.0, 2.0])
        x = np.array([0.5, 2.0])
        np.testing.assert_array_equal(project(x, [], []), x)

    @pytest.mark.parametrize(
        "field, args",
        [
            # was InfeasibleError with a Farkas "certificate" claiming b'mu = 1 < 0
            ("x", ([np.nan, 1.0], [[1.0, 1.0]], [1.0])),
            # returned the infeasible point [2, 2]
            ("b", ([2.0, 2.0], [[1.0, 1.0]], [-np.inf])),
            ("A", ([2.0, 2.0], [[np.inf, 1.0]], [1.0])),
            ("x", ([-np.inf, 1.0], [], [])),
        ],
        ids=["x-nan", "b-minus-inf", "A-inf", "x-inf-no-rows"],
    )
    def test_non_finite_rejected(self, field, args):
        with pytest.raises(ValueError, match=f"^{field} has a non-finite entry$"):
            project(*args)

    @pytest.mark.parametrize(
        "args, shape",
        [
            ((1.0, [[1.0]], [1.0]), "()"),  # was a bare IndexError
            ((np.ones((2, 2)), [[1.0, 1.0]], [1.0]), "(2, 2)"),  # was a TypeError in a list scan
            (([], np.zeros((0, 0)), []), "(0,)"),  # was "max() arg is an empty sequence"
        ],
        ids=["scalar", "matrix", "empty"],
    )
    def test_x_must_be_a_nonempty_vector(self, args, shape):
        with pytest.raises(ValueError, match=rf"^x must be a nonempty vector, got shape {re.escape(shape)}$"):
            project(*args)

    @pytest.mark.parametrize(
        "A, b, message",
        [
            (np.ones((1, 2, 1)), [1.0], "A must have 2 columns, got (1, 2, 1)"),  # was numpy's unpacking error
            ([[1.0, 1.0]], [[1.0]], "b must have length 1, got (1, 1)"),
            ([[1.0]], [1.0], "A must have 2 columns, got (1, 1)"),
        ],
        ids=["A-3d", "b-2d", "A-columns"],
    )
    def test_misshapen_rows_in_crispqps_words(self, A, b, message):
        with pytest.raises(ValueError) as crisp:
            CrispQP(c=[1.0, 1.0], Q=np.eye(2), A=A, b=b)
        with pytest.raises(ValueError) as projected:
            project([1.0, 1.0], A, b)
        assert str(crisp.value) == str(projected.value) == message

    def test_crispqp_reads_an_empty_a_as_no_rows(self):
        q = CrispQP(c=[1.0, 1.0], Q=np.eye(2), A=[], b=[])
        assert q.A.shape == (0, 2) and q.b.shape == (0,)
        x = np.array([-1.0, 2.0])
        assert project(x, q.A, q.b).tobytes() == project(x, [], []).tobytes()


def _kkt_violation(x, A, b):
    """Project x, then the worst breach of the projection's KKT conditions:
    y = x - G'mu, mu >= 0, Gy <= h and mu_i (Gy - h)_i = 0, with G = [A; -I]."""
    A, b = np.asarray(A, dtype=float), np.asarray(b, dtype=float)
    proj = _Projector(A, b)
    y = proj(x)
    mu = proj.multipliers(x)
    G = np.vstack([A, -np.eye(A.shape[1])])
    slack = G @ y - np.concatenate([b, np.zeros(A.shape[1])])
    np.testing.assert_array_equal(y, project(x, A, b))
    return max(
        float(np.max(np.abs(x - G.T @ mu - y))),
        float(-mu.min()),
        float(slack.max()),
        float(np.max(np.abs(mu * slack))),
    )


def _random_polyhedron(rng):
    """Nonempty {Ax <= b, x >= 0} (the origin is feasible), with some rows
    duplicated up to a positive factor and some parallel to a bound."""
    n = int(rng.integers(1, 6))
    m = int(rng.integers(1, 6))
    A = rng.normal(size=(m, n))
    b = rng.uniform(0.1, 2.0, size=m)
    extra_rows, extra_b = [], []
    for _ in range(int(rng.integers(0, 3))):
        i, k = int(rng.integers(m)), float(rng.uniform(0.5, 3.0))
        extra_rows.append(k * A[i])
        extra_b.append(k * b[i])
    for _ in range(int(rng.integers(0, 2))):
        j = int(rng.integers(n))
        row = np.zeros(n)
        row[j] = float(rng.choice([-1.0, 1.0])) * rng.uniform(0.5, 2.0)
        extra_rows.append(row)
        extra_b.append(0.0 if rng.uniform() < 0.5 else float(rng.uniform(0.1, 2.0)))
    if extra_rows:
        A = np.vstack([A, extra_rows])
        b = np.concatenate([b, extra_b])
    return A, b


class TestExactProjection:
    def test_kkt_certificate_on_random_polyhedra(self):
        rng = np.random.default_rng(31)
        worst = 0.0
        for _ in range(400):
            A, b = _random_polyhedron(rng)
            x = 3.0 * rng.normal(size=A.shape[1])
            worst = max(worst, _kkt_violation(x, A, b))
            # a point already on a face, and one pushed out along the face's normals
            y = project(x, A, b)
            worst = max(worst, _kkt_violation(y, A, b))
            worst = max(worst, _kkt_violation(y + (x - y) * 2.0, A, b))
        assert worst <= 1e-10

    def test_farkas_certificates_on_random_empty_polyhedra(self):
        # the last row is a negative combination of the others with a bound
        # below what that combination allows, so no point satisfies all rows
        rng = np.random.default_rng(32)
        for _ in range(200):
            n, m = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            A = rng.normal(size=(m, n))
            b = rng.uniform(-1.0, 2.0, size=m)
            lam = rng.uniform(0.1, 2.0, size=m)
            A = np.vstack([A, -lam @ A])
            b = np.append(b, -lam @ b - rng.uniform(0.01, 1.0))
            with pytest.raises(InfeasibleError) as err:
                project(3.0 * rng.normal(size=n), A, b)
            check_farkas(A, b, err.value.certificate)

    @staticmethod
    def _with_zero_rows(rng, n, m, zero_rows, fill=0.0, b_zero=None):
        """A and b with the rows zero_rows of A filled with fill, 0.0 or an
        entry whose square underflows (norm 0 either way), and b_zero, if
        given, the b of the first of them.  _Projector keeps an all-zero row
        as 0 <= b and scales an underflowing one to unit norm; the reference
        drops both."""
        A = rng.normal(size=(m, n))
        A[zero_rows] = fill
        b = rng.uniform(0.1, 2.0, size=m)
        if b_zero is not None:
            b[zero_rows[0]] = b_zero
        return A, b

    # zero rows, their fill and the b of the first: a row whose squares underflow,
    # and an exact zero row whose b = 1e6 must not raise the other rows' tol
    _UNDERFLOW, _LARGE_B = ([1], 1e-300, None), ([1], 0.0, 1e6)

    @pytest.mark.parametrize("zero_rows, fill, b_zero", [
        ([], 0.0, None), ([1], 0.0, None), ([0, 2], 0.0, None), _UNDERFLOW, _LARGE_B,
    ], ids=["zero_rows0", "zero_rows1", "zero_rows2", "underflow", "large-b"])
    def test_certificate_data_on_demand_is_the_eager_data(self, zero_rows, fill, b_zero):
        """A row's norm is read back only when a certificate or multipliers
        ask, through _caller_units; the reference builds origin and scale in
        its constructor, as first written.  An all-zero row is the row
        0 <= b in G: +0.0 in G, b in h and norm 1.0.  A row whose squares
        underflow, which the reference drops, is scaled by a power of two
        first, so it is a unit-norm row of G.  Each row is met up to its own
        tol 1e-12 (1 + |h_i|) over h, so no row moves another's."""
        rng = np.random.default_rng(len(zero_rows))
        A, b = self._with_zero_rows(rng, 3, 4, zero_rows, fill, b_zero)
        proj, ref = _Projector(A, b), _ReferenceProjector(A, b)
        rows = ref.origin  # row i of the reference's G is row origin[i] of _Projector's
        back = proj._caller_units(list(range(4 + 3)), np.ones(4 + 3))  # 1 / each row's norm
        assert back[rows].tobytes() == (1.0 / ref.scale).tobytes()
        for got, want in (proj.G, ref.G), (proj.h, ref.h):
            assert (got.dtype, got[rows].tobytes()) == (want.dtype, want.tobytes())
        assert proj._top.tolist() == (proj.h + 1e-12 * (1.0 + np.abs(proj.h))).tolist()
        assert proj._top[rows].tolist() == (ref.h + 1e-12 * (1.0 + np.abs(ref.h))).tolist()
        assert proj.G.shape == (4 + 3, 3) and proj.first_bound == 4
        if fill:  # the underflowing row: a unit-norm G row, its true norm read back
            np.testing.assert_allclose(proj.G[zero_rows], np.sqrt(1.0 / 3.0), rtol=1e-15)
            np.testing.assert_allclose(1.0 / back[zero_rows], np.sqrt(3.0) * fill, rtol=1e-15)
            np.testing.assert_allclose(proj.h[zero_rows], b[zero_rows] / (np.sqrt(3.0) * fill), rtol=1e-15)
        else:
            assert all(e == 0.0 and not np.signbit(e) for e in proj.G[zero_rows].ravel().tolist())
            assert proj.h[zero_rows].tobytes() == b[zero_rows].tobytes()
            assert back[zero_rows].tolist() == [1.0] * len(zero_rows)

    @pytest.mark.parametrize("zero_rows, fill, b_zero", [
        ([1], 0.0, None), ([0, 2], 0.0, None), _UNDERFLOW, _LARGE_B,
    ], ids=["zero_rows0", "zero_rows1", "underflow", "large-b"])
    def test_farkas_certificate_with_dropped_zero_rows(self, zero_rows, fill, b_zero):
        rng = np.random.default_rng(40 + len(zero_rows))
        for _ in range(50):
            A, b = self._with_zero_rows(rng, 3, 4, zero_rows, fill, b_zero)
            lam = rng.uniform(0.1, 2.0, size=4)
            A, b = np.vstack([A, -lam @ A]), np.append(b, -lam @ b - rng.uniform(0.01, 1.0))
            x = 3.0 * rng.normal(size=3)
            certificates = []
            for build in _Projector, _ReferenceProjector:
                with pytest.raises(InfeasibleError) as err:
                    build(A, b)(x)
                certificates.append(err.value.certificate.tobytes())
            assert certificates[0] == certificates[1]
            check_farkas(A, b, err.value.certificate)
            assert not err.value.certificate[zero_rows].any()

    @pytest.mark.parametrize("zero_rows, fill, b_zero", [
        ([1], 0.0, None), ([0, 2], 0.0, None), _UNDERFLOW, _LARGE_B,
    ], ids=["zero_rows0", "zero_rows1", "underflow", "large-b"])
    def test_multipliers_with_dropped_zero_rows(self, zero_rows, fill, b_zero):
        rng = np.random.default_rng(50 + len(zero_rows))
        for _ in range(50):
            A, b = self._with_zero_rows(rng, 3, 4, zero_rows, fill, b_zero)
            x = 3.0 * rng.normal(size=3)
            proj, ref = _Projector(A, b), _ReferenceProjector(A, b)
            y = proj(x)
            assert y.tobytes() == ref(x).tobytes()
            mu = proj.multipliers(x)
            assert mu.tobytes() == ref.multipliers(x).tobytes()
            # one multiplier per row of [A; -I], zero on the zero rows
            assert mu.shape == (4 + 3,) and not mu[zero_rows].any()
            np.testing.assert_allclose(x - y, A.T @ mu[:4] - mu[4:], atol=1e-9)
            check_point(x, A, b, y, mu)

    @pytest.mark.parametrize("eps", [0.01, 0.003])
    def test_thin_wedge(self, eps):
        # The wedge eps*(x1 - 1) <= x2 - 1 <= 2*eps*(x1 - 1) has its apex at
        # (1, 1), which is the projection of (0, 1).  Alternating projections
        # between its nearly parallel sides need far more than 10 000 sweeps.
        A = [[eps, -1.0], [-2.0 * eps, 1.0]]
        b = [eps - 1.0, 1.0 - 2.0 * eps]
        out = project([0.0, 1.0], A, b)
        np.testing.assert_allclose(out, [1.0, 1.0], atol=1e-12)
        budget = SolverOptions(projection_tol=1e-3, projection_max_sweeps=1)
        np.testing.assert_array_equal(project([0.0, 1.0], A, b, budget), out)
        assert _kkt_violation(np.array([0.0, 1.0]), np.array(A), np.array(b)) <= 1e-10

    def test_warm_projections_in_pg_match_cold(self):
        rng = np.random.default_rng(33)
        checked = 0
        for _ in range(30):
            q = random_convex_qp(rng, n_max=5, m_max=6)
            q = CrispQP(c=5.0 * q.c, Q=q.Q, A=q.A, b=q.b)
            step = 1.0 / lipschitz_constant(q.Q)
            trace = []
            solve_pg(q, callback=lambda x: trace.append(x.copy()))
            for x, x_next in zip(trace, trace[1:]):
                y = x - step * gradient(q, x)
                cold = project(y, q.A, q.b)
                assert np.max(np.abs(cold - x_next)) <= 1e-10
                checked += not np.array_equal(cold, y)
        assert checked >= 100


class TestMixedScaleRows:
    """Each row of [A; -I] has one rule: scaled exactly by a power of two,
    then to unit norm, and judged by its own tolerance 1e-12 (1 + |h_i|).
    So a big-M row does not loosen the others, and no finite row's norm
    overflows or underflows to zero; the cases at the float range's ends
    are rows of tests/test_exact.py's table."""

    _eighths = st.integers(-16, 16).map(lambda k: k / 8.0)  # exact, never subnormal

    @pytest.mark.numpy_contract
    @given(st.data())
    @settings(deadline=None)
    def test_one_rescaled_row(self, data):
        # Row i's b is scaled by 10^k (a big-M row), or row i of [A | b] by
        # 2^k, which leaves the polyhedron as it was; b >= 0 keeps the
        # origin feasible.
        n, m = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
        A = np.array(data.draw(st.lists(self._eighths, min_size=m * n, max_size=m * n))).reshape(m, n)
        b = np.array(data.draw(st.lists(self._eighths.map(abs), min_size=m, max_size=m)))
        x = 1.5 * np.array(data.draw(st.lists(self._eighths, min_size=n, max_size=n)))
        i, big_m = data.draw(st.integers(0, m - 1)), data.draw(st.booleans())
        A_s, b_s = A.copy(), b.copy()
        if big_m:
            b_s[i] *= 10.0 ** data.draw(st.integers(0, 14))
        else:
            k = data.draw(st.integers(-600, 600))
            A_s[i], b_s[i] = np.ldexp(A[i], k), np.ldexp(b[i], k)

        y = project(x, A_s, b_s)
        check_point(x, A_s, b_s, y, _Projector(A_s, b_s).multipliers(x))  # each row by its own tolerance
        if not big_m:  # a power-of-two scale is exact, so the projection keeps its bytes
            assert y.tobytes() == project(x, A, b).tobytes()
        # the projection QP min ||y - x||^2 / 2, solved on the polyhedron itself:
        # at 2^-600 the oracle's feasibility tolerance would no longer be relative
        reference = solve_oracle(CrispQP(c=-x, Q=np.eye(n), A=A_s if big_m else A, b=b_s if big_m else b))
        assert np.abs(y - reference.x).max() <= 1e-9 * (1.0 + np.abs(x).max())

    def test_a_big_m_row_loosens_no_other_row(self):
        # the shared tolerance 1e-12 (1 + max|h|) = 100 returned x = (1, 1),
        # which breaks x2 <= 0.5, with converged=True, and the oracle called
        # the true optimum unconverged
        q = CrispQP(c=[-1.0, -1.0], Q=np.eye(2), A=np.eye(2), b=[1e14, 0.5])
        for solve in solve_pg, solve_oracle:
            s = solve(q)
            assert (s.x.tolist(), s.z, s.converged) == ([1.0, 0.5], -0.875, True)


class TestFloatRangeShift:
    """Where an oracle coefficient leaves the float range, the oracle
    solves at one power of two 2^j and reports in the caller's units, as
    the projector does where an h leaves it (the rows of tests/test_exact.py's
    table whose h overflow).  Each case ran wrong before: an overflow
    warning or the wrong vertex."""

    def test_oracle_vertex_whose_objective_overflows(self):
        # the KKT system of the vertex (10, 0) overflowed, so the oracle
        # returned x = (0, 0) and z = 0
        q = CrispQP(c=[1e308, 1e308], Q=[[-1.5e308, 0.0], [0.0, 0.0]], A=[[1.0, 1.0]], b=[10.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = solve_oracle(q)
            assert s.x[0] == 10.0 and s.z == -np.inf == objective(q, s.x)

    def test_oracle_ties_in_the_callers_units(self):
        # the vertex (2, 0) beats the origin by 1e-9; with c2 = 1e308 the
        # systems run at 2^-24, and a tie taken there, within 1e-12 2^24,
        # took the lexicographically smaller origin
        q = CrispQP(c=[2.0 - 5e-10, 1e308], Q=[[-2.0, 0.0], [0.0, 0.0]], A=np.eye(2), b=[2.0, 1.0])
        s = solve_oracle(q)
        assert s.x.tolist() == [2.0, 0.0] and s.z == objective(q, s.x) < -9e-10

    def test_oracle_shift_keeps_c_and_q_at_1_or_more(self):
        # unbounded below; the subnormal row asked for a shift to 2^-64, where
        # the LP step clamp made the origin stationary and converged
        s = solve_oracle(CrispQP(c=[-1.0], Q=[[0.0]], A=[[-5e-324]], b=[1.0]))
        assert s.x.tolist() == [0.0] and s.stationarity == 1.0 and not s.converged

    def test_oracle_vertex_whose_multiplier_overflows(self):
        # c and Q are in range, but the vertex x = 10 has the multiplier 1e310:
        # its system gave inf and the oracle returned x = 0, z = 0
        q = CrispQP(c=[-1e300], Q=[[0.0]], A=[[1e-10]], b=[1e-9])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for solve in solve_oracle, solve_pg:
                s = solve(q)
                assert s.x.tolist() == [10.0] and s.z == -1e301 and s.converged


class TestSolvePg:
    def test_lower_qp_at_zero_multistart(self, example_problem):
        s = solve_pg(lower_qp(example_problem, 0.0))
        assert s.z == pytest.approx(Z_LOWER_AT_0, abs=1e-6)
        np.testing.assert_allclose(s.x, X_LOWER_AT_0, atol=1e-6)
        assert not s.convex
        assert s.converged

    def test_lower_qp_at_zero_from_origin_only(self, example_problem):
        # the reference value is reachable from the plain origin start
        opts = SolverOptions(multistart=((0.0, 0.0),))
        s = solve_pg(lower_qp(example_problem, 0.0), opts)
        assert s.z == pytest.approx(Z_LOWER_AT_0, abs=1e-6)

    def test_upper_qp_at_zero(self, example_problem):
        s = solve_pg(upper_qp(example_problem, 0.0))
        assert s.z == pytest.approx(Z_UPPER_AT_0, abs=1e-6)
        np.testing.assert_allclose(s.x, X_UPPER_AT_0, atol=1e-6)
        assert s.convex and s.converged

    def test_modal_qp_interior_optimum(self):
        s = solve_pg(modal_qp())
        assert s.z == pytest.approx(Z_AT_1, abs=1e-6)
        np.testing.assert_allclose(s.x, X_AT_1, atol=1e-6)

    def test_solution_invariants(self, example_problem):
        q = lower_qp(example_problem, 0.0)
        s = solve_pg(q)
        assert np.all(s.x >= -1e-9)
        assert np.all(q.A @ s.x <= q.b + 1e-8)
        assert s.z == pytest.approx(objective(q, s.x), rel=1e-12)
        assert s.stationarity <= 1e-7

    def test_descent_on_convex_instances(self):
        # projection_tol has no effect on the exact projection; the 1e-12
        # descent slack only absorbs rounding
        opts = SolverOptions(projection_tol=1e-12)
        rng = np.random.default_rng(17)
        for _ in range(10):
            q = random_convex_qp(rng)
            trace = []
            solve_pg(q, opts, callback=lambda x: trace.append(objective(q, x)))
            drops = np.diff(trace)
            assert np.all(drops <= 1e-12)

    def test_deterministic(self, example_problem):
        q = lower_qp(example_problem, 0.0)
        s1, s2 = solve_pg(q), solve_pg(q)
        assert s1.z == s2.z
        assert np.array_equal(s1.x, s2.x)
        assert s1.iterations == s2.iterations

    def test_infeasible_propagates(self):
        q = CrispQP(c=[1.0], Q=[[1.0]], A=[[1.0]], b=[-1.0])
        with pytest.raises(InfeasibleError):
            solve_pg(q)

    def test_unbounded_diverges_loudly(self):
        q = CrispQP(c=[0.0, 0.0], Q=[[-1.0, 0.0], [0.0, -1.0]], A=[[-1.0, -1.0]], b=[-1.0])
        with pytest.raises(UnboundedError):
            solve_pg(q)

    def test_no_farkas_certificate_from_a_non_finite_point(self):
        # c + Qx overflows at the first step, so the point to project holds an
        # inf or a NaN; the feasible set is not empty, but a row exchange from
        # that point made a "certificate" with b'mu_A = +10.  numpy's overflow
        # warning from gradient stays: an errstate there would tax every step
        q = CrispQP(c=[1e308, 1e308], Q=[[-1.5e308, 0.0], [0.0, 0.0]], A=[[1.0, 1.0]], b=[10.0])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(UnboundedError, match="float range"):
                solve_pg(q)

    def test_lp_fallback_step(self):
        # Q = 0 is an LP; the fixed point at the optimal vertex still registers
        q = CrispQP(c=[-1.0, 0.0], Q=np.zeros((2, 2)), A=[[1.0, 0.0]], b=[1.0])
        s = solve_pg(q)
        assert s.converged
        assert s.z == pytest.approx(-1.0, abs=1e-9)

    def test_objective_beyond_float_range(self):
        # the first step reaches x = 1e7; later iterates alternate with the
        # float one ulp below, so a small budget suffices
        s = solve_pg(_overflow_qp(), SolverOptions(max_iter=50))
        assert abs(s.x[0] - 1e7) <= np.spacing(1e7) and s.z == -np.inf

    def test_honest_nonconvergence_flag(self, example_problem):
        s = solve_pg(modal_qp(), SolverOptions(max_iter=2))
        assert not s.converged
        assert s.iterations == 2

    @pytest.mark.parametrize("starts", [((0.0,), (1.0,)), ((1.0,), (0.0,))])
    def test_converged_run_beats_unconverged_one(self, starts):
        # z = -x^2/2 on [0, 10] with step 1 doubles x: the start at 1 stops
        # unconverged at x = 4, z = -8, below the converged z = 0 at the origin
        q = CrispQP(c=[0.0], Q=[[-1.0]], A=[[1.0]], b=[10.0])
        origin = solve_pg(q, SolverOptions(max_iter=2, multistart=((0.0,),)))
        far = solve_pg(q, SolverOptions(max_iter=2, multistart=((1.0,),)))
        assert (origin.x.tolist(), origin.z, origin.iterations, origin.converged) == ([0.0], 0.0, 1, True)
        assert (far.x.tolist(), far.z, far.iterations, far.converged) == ([4.0], -8.0, 2, False)
        s = solve_pg(q, SolverOptions(max_iter=2, multistart=starts))
        assert s.x.tolist() == [0.0] and s.z == 0.0 and s.converged


def _tie_qp(tilt):
    """_tie_lp made indefinite: Q = diag(0, 0, -1) with the row x3 <= 0, so
    the feasible set is the bottom polygon and its seven vertices are
    stationary, each with z = -tilt x1."""
    q = _tie_lp(tilt)
    return CrispQP(c=q.c, Q=np.diag([0.0, 0.0, -1.0]),
                   A=np.vstack([q.A, [0.0, 0.0, 1.0]]), b=np.append(q.b, 0.0))


_TIE_VERTICES = [(7.0 - k, (3.0 - k) ** 2 + 1.0, 0.0) for k in range(7)]


@pytest.mark.numpy_contract
class TestTieRule:
    """Of the candidates within _TIE of the least objective the one with the
    lexicographically smallest x wins, whatever the order they come in."""

    @pytest.mark.parametrize("order", [
        list(range(7)), list(range(7))[::-1], [1, 2, 3, 4, 5, 6, 0], [3, 6, 0, 5, 1, 4, 2],
    ])
    def test_multistart_order_does_not_pick_the_winner(self, order):
        # Started at the vertices P_k, the runs end with z = -0.9e-12 (7 - k)
        # plus rounding.  Only P_0 (the least z, -6.3e-12) and P_1 lie within
        # _TIE of it, and P_1 = (6, 5, 0) has the smaller x.  A pairwise rule
        # returns P_6, P_0 or P_2 for these orders.
        starts = tuple(_TIE_VERTICES[k] for k in order)
        s = solve_pg(_tie_qp(0.9e-12), SolverOptions(multistart=starts))
        np.testing.assert_allclose(s.x, [6.0, 5.0, 0.0], atol=1e-11)
        assert s.converged and not s.convex
        assert -6.3e-12 <= s.z <= -6.3e-12 + _TIE

    @given(
        st.lists(st.tuples(st.tuples(st.integers(0, 3), st.integers(0, 3)), st.integers(0, 8)),
                 min_size=1, max_size=12, unique_by=lambda c: c[0]),
        st.sampled_from([0.9 * _TIE, 0.5 * _TIE, _TIE, 1.1 * _TIE, 3 * _TIE]),
        st.sampled_from([0.0, -6.3e-12, 1.0, -3.0, 1e4]),
        st.booleans(),
        st.randoms(use_true_random=False),
    )
    @example([((k, 0), 7 - k) for k in range(7)], 0.9 * _TIE, 0.0, False, Random(0))
    @example([((7 - k, 0), k) for k in range(7)], 0.9 * _TIE, -6.3e-12, False, Random(1))
    @example([((k % 3, k), k) for k in range(9)], 0.9 * _TIE, 1.0, True, Random(2))
    def test_least_is_order_free(self, cells, spacing, base, nan, rnd):
        # z values spaced about _TIE apart, every third one NaN if nan.  Each
        # x is distinct, and the first candidate is repeated as an exact tie.
        candidates = [(np.array(x, dtype=float), np.nan if nan and i % 3 == 0 else base + k * spacing)
                      for i, (x, k) in enumerate(cells)]
        candidates.append((candidates[0][0].copy(), candidates[0][1]))
        x, z = _least(candidates)
        for order in candidates[::-1], rnd.sample(candidates, len(candidates)):
            x_o, z_o = _least(order)
            assert x_o.tobytes() == x.tobytes() and (z_o == z or z_o != z_o and z != z)
        finite = [c[1] for c in candidates if c[1] == c[1]]
        if finite:
            assert z <= min(finite) + _TIE
            assert all(x.tolist() <= c[0].tolist() for c in candidates if c[1] <= min(finite) + _TIE)
        else:
            assert all(x.tolist() <= c[0].tolist() for c in candidates)

    @given(
        st.lists(st.one_of(st.sampled_from(_TIE_VERTICES),
                           st.tuples(st.floats(0.0, 8.0), st.floats(0.0, 11.0), st.floats(-1.0, 1.0))),
                 min_size=1, max_size=9),
        st.integers(0, 7),
        st.randoms(use_true_random=False),
    )
    @example(_TIE_VERTICES, 2, Random(0))
    @example(_TIE_VERTICES[::-1], 2, Random(1))
    @settings(deadline=None)
    def test_solve_pg_is_order_free(self, starts, instance, rnd):
        # Instances 0-3 are _tie_qp at tilts 0, 0.5, 0.9 and 1.1 _TIE; 4-7
        # are random indefinite ones.  Each run starts from the empty face,
        # so not even a run's rounding depends on the runs before it.  Two
        # runs may end on the same x, and then the first one's iterations
        # and stationarity are reported, so only the solution is compared.
        if instance < 4:
            q = _tie_qp([0.0, 0.45e-12, 0.9e-12, 1.1e-12][instance])
        else:
            q = _pg_instance(np.random.default_rng(instance), 1, 3, 2)
        solutions = [solve_pg(q, SolverOptions(multistart=order))
                     for order in (starts, rnd.sample(starts, len(starts)))]
        assert len({(s.x.tobytes(), s.z, s.converged) for s in solutions}) == 1


def _outcome(solve, q, opts=None):
    """(QpSolution fields as bytes, callback iterates), or the error raised."""
    trace = []
    try:
        s = solve(q, opts, callback=lambda x: trace.append(x.tobytes()))
    except (InfeasibleError, UnboundedError) as e:
        return type(e), trace
    fields = (s.x.tobytes(), s.z, s.iterations, s.converged, s.stationarity, s.convex)
    return fields, trace


def _pg_instance(rng, kind, n, m):
    """kind 0..3: convex, indefinite, Q = 0, convex with duplicated rows of A.

    A holds m random rows, then the box x <= 2 so that every instance is
    bounded, and x = 0 is feasible.
    """
    M = rng.normal(size=(n, n))
    Q = {1: 0.5 * (M + M.T), 2: np.zeros((n, n))}.get(kind, M.T @ M + 0.1 * np.eye(n))
    A = rng.normal(size=(m, n))
    b = rng.uniform(0.1, 2.0, size=m)
    if kind == 3:
        rows = rng.integers(m, size=2)
        A, b = np.vstack([A, A[rows]]), np.append(b, b[rows])
    A, b = np.vstack([A, np.eye(n)]), np.append(b, np.full(n, 2.0))
    return CrispQP(c=3.0 * rng.normal(size=n), Q=Q, A=A, b=b)


@pytest.mark.numpy_contract
class TestLeanPgMatchesReference:
    """solve_pg decides its comparisons by scanning Python lists and writes
    down every face with no row of A; it must match
    pg_reference, which reduces every vector in numpy and runs a QR for
    every face, bit for bit."""

    def test_fixture_grid(self, example_problem):
        for alpha in parse_alpha_spec("0:1:0.01"):
            for q in lower_qp(example_problem, alpha), upper_qp(example_problem, alpha):
                assert _outcome(solve_pg, q) == _outcome(pg_reference, q)

    @pytest.mark.parametrize("kind", [0, 1, 2, 3])
    @pytest.mark.parametrize("n, m", [(1, 1), (3, 2), (6, 5), (12, 10), (20, 30), (40, 20), (80, 40)])
    def test_random_instances(self, kind, n, m):
        rng = np.random.default_rng(700 + 10 * kind + n)
        opts = SolverOptions(max_iter=3000)
        for _ in range(4 if n + m <= 32 else 2):
            q = _pg_instance(rng, kind, n, m)
            assert _outcome(solve_pg, q, opts) == _outcome(pg_reference, q, opts)

    @pytest.mark.parametrize("seed", [0, 3, 2**70 + 5, np.uint8(7)], ids=repr)
    def test_default_starts(self, seed):
        # the reference draws its starts with numpy.random, solve_pg without
        q = _pg_instance(np.random.default_rng(711), 1, 5, 4)
        opts = SolverOptions(max_iter=3000, seed=seed)
        assert _outcome(solve_pg, q, opts) == _outcome(pg_reference, q, opts)

    def test_unbounded_and_infeasible(self):
        unbounded = CrispQP(c=[0.0, 0.0], Q=-np.eye(2), A=[[-1.0, -1.0]], b=[-1.0])
        infeasible = CrispQP(c=[1.0], Q=[[1.0]], A=[[1.0]], b=[-1.0])
        for q in unbounded, infeasible:
            assert _outcome(solve_pg, q) == _outcome(pg_reference, q)

    def test_empty_face_is_the_qr_face(self):
        A, b = np.array([[1.0, 2.0], [3.0, -1.0], [0.0, 1.0]]), np.ones(3)
        proj = _Projector(A, b)
        assert proj._faces == {}  # a projector builds each face when it first needs it
        face, built = proj._face(()), _ReferenceProjector(A, b)._face(())
        for a, c in zip(face[:3], built[:3]):
            assert (a.shape, a.strides, a.tobytes()) == (c.shape, c.strides, c.tobytes())
        assert face[3].tolist() == built[3] == []
        assert face[5] == ()
        x = np.array([0.25, -0.0])
        K, k, Gt, pinned, Kx, _ = face
        assert Kx(x).tobytes() == (K @ x).tobytes()
        assert proj._point(x, K @ x - k, Gt, pinned).tobytes() == x.tobytes()


class TestBoundRows:
    """The rows of G past first_bound: -I, -0.0 off the diagonal, in
    _Projector, where first_bound is m, and in _ReferenceProjector, which
    writes them its own way after the rows of A it keeps."""

    @pytest.mark.parametrize("drop", [False, True], ids=["all-rows", "zero-row"])
    @pytest.mark.parametrize("n", [1, 2, 32, 33, 80])
    def test_bound_rows_are_negative_identity(self, n, drop):
        A = np.random.default_rng(n).normal(size=(3, n))
        if drop:
            A[1] = 0.0
        proj, ref = _Projector(A, np.ones(3)), _ReferenceProjector(A, np.ones(3))
        assert (proj.first_bound, ref.first_bound) == (3, 3 - drop)
        rows = proj.G[proj.first_bound:]
        assert rows.tobytes() == ref.G[ref.first_bound:].tobytes()
        diagonal = np.eye(n, dtype=bool)
        assert rows.shape == (n, n)
        assert (rows[diagonal] == -1.0).all()
        assert (rows[~diagonal] == 0.0).all() and np.signbit(rows[~diagonal]).all()


class TestSharedBoundFaces:
    """A face with no row of A (the empty set, or bounds only) comes from
    _bound_face, in closed form: cached and shared for n <= _BOUND_FACE_N,
    built per projector above.  It must be byte for byte the face that a QR
    of the projector's own rows gives."""

    @pytest.mark.parametrize("n", [*range(1, 13), 33, 40, 64])
    def test_cached_face_is_the_qr_face(self, n):
        rng = np.random.default_rng(n)
        A = rng.normal(size=(3, n))
        A[1] = 0.0  # a zero row: the reference drops it, so its first_bound is 2, not 3
        proj, fresh = _Projector(A, np.ones(3)), _ReferenceProjector(A, np.ones(3))
        singles = [(j,) for j in range(n)]
        pairs = [(i, j) for i, j in ((0, n - 1), (n // 3, 2 * n // 3), (0, 1)) if i < j < n]
        _bound_face.cache_clear()
        for bounds in [()] + singles + pairs + [tuple(range(n))]:
            P = tuple(proj.first_bound + j for j in bounds)
            shared, built = proj._face(P), fresh._face(tuple(fresh.first_bound + j for j in bounds))
            assert shared[5] == P
            if n <= _BOUND_FACE_N:
                assert all(a is b for a, b in zip(shared[:5], _bound_face(n, bounds), strict=True))
            for a, b in zip(shared[:3], built[:3]):
                assert (a.shape, a.strides) == (b.shape, b.strides)
                assert a.tobytes() == b.tobytes()
            assert shared[3].tolist() == built[3] == list(bounds)
        if n > _BOUND_FACE_N:  # built for this projector alone
            assert _bound_face.cache_info().currsize == 0

    @pytest.mark.parametrize("n", [3, 40])
    def test_only_faces_with_rows_of_a_take_a_qr(self, n, monkeypatch):
        qr_calls = []
        qr = np.linalg.qr
        monkeypatch.setattr(np.linalg, "qr", lambda a: qr_calls.append(a.shape) or qr(a))
        proj = _Projector(np.ones((2, n)), np.ones(2))
        for P in (), (2,), (2, n + 1), tuple(range(2, n + 2)):
            proj._face(P)
        assert qr_calls == []
        proj._face((0, 2))
        assert qr_calls == [(n, 2)]

    def test_shared_arrays_are_read_only(self):
        *arrays, product = _bound_face(3, (0, 2))  # K, k, G_P', pinned and v -> Kv
        assert product.__self__ is arrays[0]
        for arr in arrays:
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0

    @pytest.mark.parametrize("n", [2, 32, 40])
    def test_projectors_share_one_record(self, n):
        # over different A, two projectors hold one K and one product for a
        # face of bounds only, up to _BOUND_FACE_N variables; above, neither
        # is shared nor cached
        rng = np.random.default_rng(n)
        _bound_face.cache_clear()
        one, two = (_Projector(rng.normal(size=(m, n)), np.ones(m)) for m in (2, 3))
        shared = n <= _BOUND_FACE_N
        for bounds in (), (0,), (0, n - 1), tuple(range(n)):
            a = one._face(tuple(one.first_bound + j for j in bounds))
            b = two._face(tuple(two.first_bound + j for j in bounds))
            assert (a[0] is b[0], a[4] is b[4]) == (shared, shared)
        if not shared:
            assert _bound_face.cache_info().currsize == 0

    def test_faces_with_rows_of_a_are_not_shared(self):
        proj = _Projector(np.array([[1.0, 2.0]]), np.ones(1))
        _bound_face.cache_clear()
        proj._face((0, 2))
        proj._face((2,))
        assert _bound_face.cache_info().currsize == 1


_SPECIALS = [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, 1e-12, -1e-12, 1e8, -1e8, 1e308, -1e308]
_check_entries = st.one_of(st.sampled_from(_SPECIALS), st.floats())
_check_bound = st.one_of(st.sampled_from([0.0, 1e-12, 1e-9, 1.0, 1e8]), st.floats(allow_nan=False))


@st.composite
def _check_lists(draw):
    """(u, v, t): two lists of one length from 0 to 160 and a bound t."""
    n = draw(st.integers(0, 160))
    u, v = (draw(st.lists(_check_entries, min_size=n, max_size=n)) for _ in range(2))
    return u, v, draw(_check_bound)


def _pinned(n):
    """An example of length n on either side of 32 and at wide-interior's
    m + n = 120: NaN, infinities and signed zeros at the ends."""
    u = [-0.0] + [float(i % 7) - 3.0 for i in range(n - 3)] + [np.inf, np.nan]
    v = [0.0] + [float(i % 5) - 2.0 for i in range(n - 3)] + [np.inf, -1.0]
    return u, v, 1.0


_PINNED = [_pinned(n) for n in (32, 33, 120)] + [
    ([0.0] * 31 + [1e-12], [0.0] * 32, 0.0),  # beyond the bound at the last entry
    ([-1e8] * 33, [1e8] * 33, 1e8),
    ([5e-324] * 120, [-5e-324] * 120, 0.0),
]


def _with_pinned(test):
    for args in _PINNED:
        test = example(args)(test)
    return test


@st.composite
def _scan_args(draw):
    """(u, v, limit, tol): _check_lists with a second bound for _scan."""
    return (*draw(_check_lists()), draw(_check_bound))


def _with_pinned_scan(test):
    """The pinned examples, each at its own bound and at UNBOUNDED_LIMIT."""
    for u, v, t in _PINNED:
        for limit in (t, UNBOUNDED_LIMIT):
            test = example((u, v, limit, t))(test)
    return test


@pytest.mark.numpy_contract
class TestChecks:
    """The list scans decide as numpy's reductions do, at every length, NaN,
    infinities and signed zeros included.  They are the only decision code
    of a projected-gradient step, and numpy's NaN semantics are numpy's to
    change, so CI runs these under the larger example budget too."""

    @given(_check_lists())
    @_with_pinned
    def test_single_vector_checks(self, args):
        v, _, t = args
        a = np.array(v, dtype=float)
        assert _min_ge(v, t) == (np.minimum.reduce(a, initial=np.inf) >= t)

    @given(_scan_args())
    @_with_pinned_scan
    def test_iterate_scan(self, args):
        """solve_pg's one scan of an iterate gives both answers of numpy's
        reductions: divergence max|u| > limit and convergence max|u - v| <= tol."""
        u, v, limit, tol = args
        a = np.array(u, dtype=float)
        with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, 1e308 - -1e308
            d = a - np.array(v, dtype=float)
        assert _scan(u, v, limit, tol) == (
            np.maximum.reduce(np.abs(a), initial=-np.inf) > limit,
            np.maximum.reduce(np.abs(d), initial=-np.inf) <= tol,
        )

    @given(_check_lists())
    @_with_pinned
    def test_difference_check(self, args):
        u, v, t = args
        with np.errstate(invalid="ignore", over="ignore"):
            d = np.array(u, dtype=float) - np.array(v, dtype=float)
        assert _diff_max_le(u, v, t) == (np.maximum.reduce(d, initial=-np.inf) <= t)

    def test_empty_vector_passes(self):
        # as max(initial=0.0) <= 0.0 and min(initial=0.0) >= 0.0 do, for
        # m = 0 rows and for the multipliers of the empty face
        assert _diff_max_le([], [], 0.0) and _min_ge([], 0.0)
        assert _scan([], [], 0.0, 0.0) == (False, True)


class TestTracedNames:
    """perfbench counts solver.project_calls and solver.gradient_calls by
    wrapping the module attributes project and gradient, so the PG loop
    must call them by those names."""

    @pytest.mark.parametrize("case", ["convex", "indefinite", "long"])
    def test_one_project_and_gradient_call_per_iteration(self, monkeypatch, example_problem, case):
        q = {
            "convex": lambda: upper_qp(example_problem, 0.0),
            "indefinite": lambda: lower_qp(example_problem, 0.0),
            "long": lambda: _pg_instance(np.random.default_rng(3), 0, 30, 10),
        }[case]()
        calls = {"project": 0, "gradient": 0}
        runs = []

        def counting(name):
            original = getattr(solver_module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(solver_module, name, wrapper)

        counting("project")
        counting("gradient")
        pg_run = solver_module._pg_run

        def counted_run(*args):
            out = pg_run(*args)
            runs.append(out[1])
            return out
        monkeypatch.setattr(solver_module, "_pg_run", counted_run)

        s = solve_pg(q)
        assert len(runs) == (1 if s.convex else 9)
        # one start projection per run and one stationarity check per solve
        assert calls["gradient"] == sum(runs) + 1
        assert calls["project"] == sum(runs) + len(runs) + 1

    def test_oracle_stationarity_calls_the_solver_names(self, monkeypatch):
        # oracle-check's traced project and gradient calls include these
        calls = {"project": 0, "gradient": 0}

        def counting(name):
            original = getattr(solver_module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(solver_module, name, wrapper)

        counting("project")
        counting("gradient")
        solve_oracle(modal_qp())
        assert calls["project"] >= 1 and calls["gradient"] >= 1


def _oracle_instance(rng, kind):
    """kind 0..4: convex, indefinite, Q = 0, a row of A repeated exactly, empty."""
    A, b = _random_polyhedron(rng)
    n = A.shape[1]
    M = rng.normal(size=(n, n))
    Q = {1: 0.5 * (M + M.T), 2: np.zeros((n, n))}.get(kind, M.T @ M + 0.1 * np.eye(n))
    if kind == 3:
        A, b = np.vstack([A, A[:1]]), np.append(b, b[0])
    if kind == 4:
        lam = rng.uniform(0.1, 2.0, size=A.shape[0])
        A, b = np.vstack([A, -lam @ A]), np.append(b, -lam @ b - rng.uniform(0.01, 1.0))
    return CrispQP(c=rng.normal(size=n), Q=Q, A=A, b=b)


def _box_instance(rng, n, convex):
    """The family of perfbench's oracle-check: A is a positive permuted
    diagonal, so each row of A is parallel to one bound and many
    stationarity systems are exactly singular."""
    M = rng.normal(size=(n, n))
    Q = M.T @ M + 0.1 * np.eye(n) if convex else 0.5 * (M + M.T)
    A = np.zeros((n, n))
    A[np.arange(n), rng.permutation(n)] = rng.uniform(0.5, 1.5, n)
    return CrispQP(c=rng.normal(size=n), Q=Q, A=A, b=rng.uniform(1.0, 2.0, n))


def _catalogue(q):
    """The rows and right-hand sides of [A; I] that solve_oracle pins."""
    return np.vstack([q.A, np.eye(q.n)]), np.concatenate([q.b, np.zeros(q.n)])


def _count_systems(monkeypatch):
    """Patch the oracle's batched solve to count the systems it is given."""
    count = [0]
    solve1 = oracle_module._solve1

    def counting(kkt, rhs, **kwargs):
        count[0] += len(kkt)
        return solve1(kkt, rhs, **kwargs)

    monkeypatch.setattr(oracle_module, "_solve1", counting)
    return count


@st.composite
def _degenerate_qps(draw):
    """Convex, indefinite, Q = 0 or zero-row QPs with n, m <= 4 whose entries
    are eighths, often equal and often zero, so that degenerate vertices come
    out of several subsets; some rows of b cut off the origin."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["convex", "indefinite", "zero Q", "zero row"]))

    def entries(size, values=TestMixedScaleRows._eighths):
        return np.array(draw(st.lists(values, min_size=size, max_size=size)))

    M = entries(n * n).reshape(n, n)
    Q = {"indefinite": 0.5 * (M + M.T), "zero Q": np.zeros((n, n))}.get(kind, M @ M.T + 0.1 * np.eye(n))
    A = entries(m * n).reshape(m, n)
    if kind == "zero row":
        A[draw(st.integers(0, m - 1))] = 0.0
    b = entries(m, TestMixedScaleRows._eighths.filter(lambda v: v >= -0.5))
    return CrispQP(c=entries(n), Q=Q, A=A, b=b)


def _oracle_bytes(q, block_bytes):
    """solve_oracle's outcome with ORACLE_BLOCK_BYTES = block_bytes, as bytes:
    x, z, iterations, converged, stationarity and convex, or the Farkas
    certificate of an empty polyhedron."""
    saved, oracle_module.ORACLE_BLOCK_BYTES = oracle_module.ORACLE_BLOCK_BYTES, block_bytes
    try:
        s = solve_oracle(q)
    except InfeasibleError as err:
        return err.certificate.tobytes()
    finally:
        oracle_module.ORACLE_BLOCK_BYTES = saved
    return s.x.tobytes(), np.array([s.z, s.stationarity]).tobytes(), s.iterations, s.converged, s.convex


def _tie_lp(tilt):
    """min -tilt x1 + x3 over a prism: its bottom face x3 = 0 is the polygon
    with the vertices P_k = (7 - k, (3 - k)^2 + 1), k = 0..6.

    Row k < 6 of A is the edge P_k P_{k+1}, row 6 the closing edge x2 <= 10,
    so the bottom vertices come in the order P_1, P_0, P_2, ..., P_6, with
    x1 falling from P_1 on.  Every bottom vertex has z = -tilt x1.
    """
    P = np.array([(7.0 - k, (3.0 - k) ** 2 + 1.0) for k in range(7)])
    rows, rhs = [], []
    for k in range(6):
        normal = np.array([P[k + 1, 1] - P[k, 1], P[k, 0] - P[k + 1, 0]])
        if normal @ (P.mean(axis=0) - P[k]) > 0:
            normal = -normal
        rows.append([normal[0], normal[1], 0.0])
        rhs.append(normal @ P[k])
    rows.append([0.0, 1.0, 0.0])
    rhs.append(10.0)
    return CrispQP(c=[-tilt, 0.0, 1.0], Q=np.zeros((3, 3)), A=rows, b=rhs)


class TestOracle:
    def test_objective_beyond_float_range(self):
        # a NaN z for x = 1e7 would lose the tie rule to x = 0
        s = solve_oracle(_overflow_qp())
        assert s.x.tolist() == [1e7] and s.z == -np.inf and s.converged

    def test_lower_qp_at_zero(self, example_problem):
        s = solve_oracle(lower_qp(example_problem, 0.0))
        assert s.z == pytest.approx(Z_LOWER_AT_0, abs=1e-10)
        np.testing.assert_allclose(s.x, X_LOWER_AT_0, atol=1e-10)
        assert s.converged

    def test_modal_interior(self):
        s = solve_oracle(modal_qp())
        assert s.z == pytest.approx(Z_AT_1, abs=1e-12)
        np.testing.assert_allclose(s.x, X_AT_1, atol=1e-12)
        assert s.converged

    def test_unconstrained_minimum_at_origin(self):
        q = CrispQP(c=[0.0, 0.0], Q=np.eye(2), A=[[1.0, 1.0]], b=[1.0])
        s = solve_oracle(q)
        assert s.z == 0.0
        np.testing.assert_allclose(s.x, [0.0, 0.0], atol=1e-12)

    def test_unbounded_instance_not_converged(self):
        # z = -x1 + x2^2/2 falls without bound along x1; the best candidate,
        # the origin, is no fixed point of the projected-gradient map
        q = CrispQP(c=[-1.0, 0.0], Q=[[0.0, 0.0], [0.0, 1.0]], A=[[0.0, 1.0]], b=[1.0])
        s = solve_oracle(q)
        assert s.z == 0.0 and s.stationarity == 1.0
        assert not s.converged

    def test_too_large_rejected(self):
        n = 9
        q = CrispQP(c=np.zeros(n), Q=np.eye(n), A=np.ones((1, n)), b=[1.0])
        with pytest.raises(ValueError, match="n <= 8"):
            solve_oracle(q)

    def test_feasibility_tolerance_decides_the_winner(self):
        # the unconstrained minimum x = 1 violates x <= b by 5e-7, so a
        # feasibility tolerance of 1e-6 would accept it in place of x = b
        b = 1.0 - 5e-7
        s = solve_oracle(CrispQP(c=[-100.0], Q=[[100.0]], A=[[1.0]], b=[b]))
        assert s.x.shape == (1,) and abs(s.x[0] - b) <= 1e-15  # so feasible to 1e-15
        assert s.converged

    def test_feasibility_tolerance_is_relative_to_b(self):
        # max x1 + x2 over a x <= B: an absolute 1e-9 rejected the vertex
        # B / min(a), where a x rounds an ulp of B above B, on 8 of 300
        # draws, and returned the other vertex with converged=True (at
        # a = (0.99, 0.34), B = 1e9: z = -1.008e9, not -2.957e9)
        rng = np.random.default_rng(24)
        for B in 10.0 ** np.arange(6, 15):
            for _ in range(34):
                a = rng.uniform(0.1, 1.0, size=2)
                s = solve_oracle(CrispQP(c=[-1.0, -1.0], Q=np.zeros((2, 2)), A=[a], b=[B]))
                j = int(np.argmin(a))
                assert s.z == pytest.approx(-B / a[j], rel=1e-12)
                assert s.x[1 - j] == 0.0 and s.converged

    def test_residual_filter_decides_the_winner(self):
        # Rows 0 and 1 of this LP differ by about 1e-14.  The system pinning
        # both has a feasible x = (30.6, 17.4) with z = -65.4, far below the
        # winner's, but its multipliers near 3e15 leave a residual of about
        # 0.1, which the 1e-8 relative residual filter rejects.  The LP is
        # unbounded below, so the winner is only the best kept candidate.
        q = CrispQP(
            c=[-1.3580283315469712, -1.3729608820118997], Q=np.zeros((2, 2)),
            A=[[-0.44194586458588375, 0.9463476513843941],
               [-0.44194586458588675, 0.9463476513843991]],
            b=[2.994376178008913, 2.994376178008908],
        )
        kkt = np.block([[q.Q, q.A.T], [q.A, np.zeros((2, 2))]])
        rhs = np.concatenate([-q.c, q.b])
        sol = np.linalg.solve(kkt, rhs)
        x_far = sol[:2]
        assert x_far.min() >= 0.0 and (q.A @ x_far - q.b).max() <= 1e-9
        assert np.abs(kkt @ sol - rhs).max() > 1e3 * 1e-8 * (1.0 + np.abs(rhs).max())

        s = solve_oracle(q)
        x, z, _ = enumerate_oracle_reference(q)
        assert s.x.tobytes() == x.tobytes() and s.z == z
        assert s.x[0] == 0.0 and s.x[1] == pytest.approx(3.164139704503388, rel=1e-12)
        assert s.z == pytest.approx(-4.344240039503844, rel=1e-12)
        assert objective(q, x_far) < s.z - 60.0
        assert not s.converged

    def test_infeasible(self):
        q = CrispQP(c=[1.0], Q=[[1.0]], A=[[1.0]], b=[-2.0])
        with pytest.raises(InfeasibleError) as err:
            solve_oracle(q)
        check_farkas(q.A, q.b, err.value.certificate)

    def test_batched_enumeration_matches_per_subset_reference(self):
        rng = np.random.default_rng(505)
        for i in range(200):
            q = _oracle_instance(rng, i % 5)
            try:
                x, z, examined = enumerate_oracle_reference(q)
            except InfeasibleError:
                with pytest.raises(InfeasibleError) as err:
                    solve_oracle(q)
                check_farkas(q.A, q.b, err.value.certificate)
                continue
            s = solve_oracle(q)
            assert s.x.tobytes() == x.tobytes() and s.z == z
            assert s.iterations == examined == sum(comb(q.m + q.n, k) for k in range(q.n + 1))
            assert s.stationarity == _stationarity(q, x, _step_rule(q)[0])

    def test_singular_heavy_family_matches_per_subset_reference(self, monkeypatch):
        singular = 0
        solve = np.linalg.solve

        def counting_solve(a, b):
            nonlocal singular
            try:
                return solve(a, b)
            except np.linalg.LinAlgError:
                singular += 1
                raise

        monkeypatch.setattr(np.linalg, "solve", counting_solve)
        rng = np.random.default_rng(3)
        examined_total = 0
        for n in range(3, 7):
            for convex in (True, False):
                q = _box_instance(rng, n, convex)
                x, z, examined = enumerate_oracle_reference(q)
                s = solve_oracle(q)
                assert s.x.tobytes() == x.tobytes() and s.z == z
                assert s.iterations == examined
                examined_total += examined
        # 2348 of the 6706 systems have an exact zero pivot
        assert singular > examined_total // 4

    def test_box_instances_solve_one_system_per_choice(self, monkeypatch):
        # Row i of A pins its variable to b_i / a_i > 0 and that variable's
        # bound pins it to 0, so no subset holding both is solved: each
        # variable is free, pinned by its row or pinned by its bound.
        systems = _count_systems(monkeypatch)
        rng = np.random.default_rng(21)
        for n in range(1, ORACLE_MAX_N):
            for convex in (True, False):
                q = _box_instance(rng, n, convex)
                systems[0] = 0
                s = solve_oracle(q)
                assert systems[0] == 3 ** n
                assert s.iterations == sum(comb(2 * n, k) for k in range(n + 1))

    def test_consistent_parallel_pair_is_not_pruned(self):
        # Draw 198 of the equivalence family.  Row 5 of A pins x_3 to 0, as
        # its bound does; both can hold, so the pair is no conflict.  The
        # winner's x_3 is a rounding artefact, and skipping the subsets that
        # hold both rows hands the lexicographic tie to another candidate.
        rng = np.random.default_rng(505)
        for i in range(199):
            q = _oracle_instance(rng, i % 5)
        assert q.b[5] == 0.0 and np.flatnonzero(q.A[5]).tolist() == [2]
        assert not _conflict_pairs(q, *_catalogue(q)).any()
        s = solve_oracle(q)
        x, z, examined = enumerate_oracle_reference(q)
        assert s.x.tobytes() == x.tobytes() and s.z == z
        assert s.iterations == examined
        assert 0.0 < abs(s.x[2]) < 1e-15

    @pytest.mark.parametrize("gap, pruned", [(0.99, False), (1.01, True)])
    def test_conflict_bound(self, monkeypatch, gap, pruned):
        # x_1 <= 1 and 2 x_1 <= 2 v pin x_1 to 1 and v; they conflict only
        # when v - 1 exceeds 2 tau (1/1 + 1/2) + 4u (1 + v), where
        # tau = 1e-8 (1 + max(||c||, ||b||)) = 4e-8
        tau = 1e-8 * (1.0 + 3.0)
        u = np.finfo(float).eps / 2
        v = 1.0 + gap * (3.0 * tau + 8.0 * u) / (1.0 - 4.0 * gap * u)
        q = CrispQP(c=[3.0, -1.0], Q=np.eye(2), A=[[1.0, 0.0], [2.0, 0.0]], b=[1.0, 2.0 * v])
        assert _conflict_pairs(q, *_catalogue(q))[0, 1] == pruned
        systems = _count_systems(monkeypatch)
        s = solve_oracle(q)
        # of the 11 subsets, the two that pin x_1 by a row and its bound
        # (1 or v against 0) are never solved; {row 0, row 1} is, unless pruned
        assert systems[0] == 9 - pruned
        x, z, examined = enumerate_oracle_reference(q)
        assert s.x.tobytes() == x.tobytes() and s.z == z
        assert s.iterations == examined == 11

    def test_levels_without_conflicts_are_the_combinations(self):
        for N in range(1, 17):
            level = np.empty((1, 0), dtype=np.intp)
            for size in range(1, N + 1):
                level = _next_level(level, np.zeros((N, N), dtype=bool))
                expected = np.array(list(combinations(range(N), size)), dtype=np.intp)
                assert np.array_equal(level, expected)

    def test_levels_skip_every_superset_of_a_conflict_pair(self):
        rng = np.random.default_rng(16)
        for N in (5, 9, 12):
            conflict = np.triu(rng.uniform(size=(N, N)) < 0.2, 1)
            conflict |= conflict.T
            level = np.empty((1, 0), dtype=np.intp)
            for size in range(1, N + 1):
                level = _next_level(level, conflict)
                expected = [S for S in combinations(range(N), size)
                            if not any(conflict[i, j] for i, j in combinations(S, 2))]
                assert level.tolist() == [list(S) for S in expected]

    @pytest.mark.parametrize("tilt", [0.0, 0.9e-12])
    def test_tie_heavy_lp_matches_per_subset_reference(self, tilt):
        # With no tilt the bottom vertices tie exactly and P_6 = (1, 10, 0)
        # has the smallest x.  With a tilt of 0.9e-12 each one ties with the
        # one before, but only P_1 = (6, 5, 0) lies within _TIE of the least
        # z, -6.3e-12 at P_0: a pairwise rule chained down to P_6.
        q = _tie_lp(tilt)
        s = solve_oracle(q)
        x, z, examined = enumerate_oracle_reference(q)
        assert s.x.tobytes() == x.tobytes() and s.z == z
        assert s.iterations == examined
        if tilt:
            np.testing.assert_allclose(s.x, [6.0, 5.0, 0.0], atol=1e-12)
            assert -6.3e-12 <= s.z <= -6.3e-12 + _TIE
        else:
            np.testing.assert_allclose(s.x, [1.0, 10.0, 0.0], atol=1e-12)

    def test_each_system_is_factorised_once(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the oracle's solve alone factorises each system")

        monkeypatch.setattr(np.linalg, "slogdet", refuse)
        monkeypatch.setattr(np.linalg, "det", refuse)
        rng = np.random.default_rng(55)
        for q in (convex_qp(rng, 5, 5), _box_instance(rng, 5, convex=False)):
            x, z, examined = enumerate_oracle_reference(q)
            s = solve_oracle(q)
            assert s.x.tobytes() == x.tobytes() and s.z == z
            assert s.iterations == examined

    def test_private_solve_gufunc_contract(self):
        # solve_oracle calls numpy's private _umath_linalg.solve1, the
        # gufunc behind np.linalg.solve, so that a singular system in a
        # stack comes back as NaN rather than raising.  A numpy release that
        # changes what it returns or warns fails here.
        regular = np.array([[4.0, 1.0, 0.5], [1.0, 3.0, -1.0], [0.5, -1.0, 2.0]])
        singular = np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0], [0.0, 1.0, 5.0]])
        stack = np.stack([regular, singular, regular @ regular.T - 2.0 * np.eye(3)])
        rhs = np.array([[1.0, -2.0, 0.5], [1.0, 1.0, 1.0], [0.3, 0.0, -4.0]])
        stack_before, rhs_before = stack.copy(), rhs.copy()
        with np.errstate(invalid="ignore", divide="ignore", over="ignore", under="ignore"):
            sol = oracle_module._solve1(stack, rhs, signature="dd->d")
        assert stack.tobytes() == stack_before.tobytes()
        assert rhs.tobytes() == rhs_before.tobytes()
        for i in (0, 2):
            assert sol[i].tobytes() == np.linalg.solve(stack[i], rhs[i]).tobytes()
        assert not np.isfinite(sol[1]).any()
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(singular, rhs[1])

    def test_memory_bounded_at_the_size_cap(self):
        # one subset size at n = m = 8 stacked at once is 12 870 KKT
        # matrices of 16 x 16, about 26 MB
        q = convex_qp(np.random.default_rng(8), ORACLE_MAX_N, ORACLE_MAX_N)
        tracemalloc.start()
        try:
            solve_oracle(q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    def test_memory_does_not_grow_with_the_subsets(self):
        # 198 440 subsets of at most 7 of the 21 rows: holding each whole
        # size at once, 116 280 subsets of size 7, peaked at 19.9e6 bytes
        rng = np.random.default_rng(3)
        M = rng.normal(size=(7, 7))
        q = CrispQP(c=-rng.uniform(1.0, 3.0, 7), Q=M @ M.T + np.eye(7),
                    A=rng.uniform(0.1, 1.0, (14, 7)), b=rng.uniform(1.0, 2.0, 14))
        tracemalloc.start()
        try:
            solve_oracle(q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    def test_one_system_per_block_gives_the_same_bytes(self):
        # A block of one byte holds one KKT system, so the subsets are solved
        # one by one and in another order than in 1 MB blocks.  The outcome
        # is the same only while solve1 solves each stacked system on its own.
        rng = np.random.default_rng(501)
        for n in (5, 6, 7):
            for convex in (True, False):
                q = _box_instance(rng, n, convex)
                assert _oracle_bytes(q, 1) == _oracle_bytes(q, oracle_module.ORACLE_BLOCK_BYTES)
        # The optimum x = 0 is pinned by the row -x/8 <= 0, whose solve gives
        # -0.0, and by the bound, whose solve gives +0.0: both come out as +0.0.
        q = CrispQP(c=[0.125], Q=[[0.1]], A=[[-0.125]], b=[0.0])
        assert _oracle_bytes(q, 1) == _oracle_bytes(q, oracle_module.ORACLE_BLOCK_BYTES)
        assert _oracle_bytes(q, 1)[0] == np.array([0.0]).tobytes()

    @pytest.mark.numpy_contract
    @given(_degenerate_qps())
    @settings(deadline=None)
    def test_block_size_never_changes_the_result(self, q):
        # Degenerate vertices come out of several subsets with x equal but
        # for the sign of a zero.  Each zero comes out as +0.0, so those x
        # are equal as bytes, whichever block solved them.
        assert _oracle_bytes(q, 1) == _oracle_bytes(q, oracle_module.ORACLE_BLOCK_BYTES)

    @given(_degenerate_qps())
    @example(CrispQP(c=[0.125], Q=[[0.1]], A=[[-0.125]], b=[0.0]))  # a solve gives x = -0.0
    @settings(deadline=None)
    def test_x_holds_no_negative_zero(self, q):
        # an entry may be negative, within the feasibility tolerance, but not -0.0
        try:
            x = solve_oracle(q).x
        except InfeasibleError:
            return
        assert not np.signbit(x[x == 0.0]).any()

    def test_agrees_with_pg_on_convex_instances(self):
        rng = np.random.default_rng(1234)
        for _ in range(30):
            q = random_convex_qp(rng)
            z_pg = solve_pg(q).z
            z_oracle = solve_oracle(q).z
            assert abs(z_pg - z_oracle) <= 1e-6

    def test_agrees_with_pg_at_the_size_cap(self):
        rng = np.random.default_rng(4321)
        for _ in range(3):
            q = convex_qp(rng, ORACLE_MAX_N, ORACLE_MAX_N)
            assert abs(solve_pg(q).z - solve_oracle(q).z) <= 1e-6


class TestConvexityInequality:
    def test_objective_is_convex_for_psd_q(self):
        rng = np.random.default_rng(99)
        for _ in range(100):
            n = int(rng.integers(1, 5))
            M = rng.normal(size=(n, n))
            q = CrispQP(
                c=rng.normal(size=n), Q=M.T @ M,
                A=rng.normal(size=(1, n)), b=[1.0],
            )
            x, y = rng.normal(size=n), rng.normal(size=n)
            lam = float(rng.uniform())
            lhs = objective(q, lam * x + (1 - lam) * y)
            rhs = lam * objective(q, x) + (1 - lam) * objective(q, y)
            assert lhs <= rhs + 1e-10


class TestSolverOptions:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tol": 0.0},
            {"tol": -1.0},
            {"max_iter": 0},
            {"projection_tol": 0.0},
            {"projection_max_sweeps": 0},
            {"multistart": ()},
            {"tol": np.nan},
            {"tol": np.inf},
            {"projection_tol": np.nan},
            {"projection_tol": np.inf},
            {"seed": -1},
            {"multistart": ((0.0, np.nan),)},
            {"multistart": ((1.0, 2.0), (np.inf, 0.0))},
            {"max_iter": 2.5},
            {"max_iter": True},
            {"max_iter": 10.0},
            {"projection_max_sweeps": 1.5},
            {"seed": 1.5},
            {"seed": False},
            {"seed": "1"},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            SolverOptions(**kwargs)

    def test_accepts_numpy_integers(self):
        opts = SolverOptions(max_iter=np.int64(5), projection_max_sweeps=np.int32(3), seed=np.uint8(7))
        assert (opts.max_iter, opts.projection_max_sweeps, opts.seed) == (5, 3, 7)

    def test_multistart_normalized(self):
        opts = SolverOptions(multistart=[np.array([1.0, 2.0])])
        assert opts.multistart == ((1.0, 2.0),)

    def test_multistart_shape_mismatch(self, example_problem):
        q = lower_qp(example_problem, 0.0)
        with pytest.raises(ValueError, match="start point"):
            solve_pg(q, SolverOptions(multistart=((0.0, 0.0, 0.0),)))
