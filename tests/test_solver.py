"""Projected gradient solver, exact projection, and the enumeration oracle."""
import numpy as np
import pytest

from helpers import (
    LIP_AT_1,
    LIP_LOWER_AT_0,
    X_AT_1,
    X_LOWER_AT_0,
    X_UPPER_AT_0,
    Z_AT_1,
    Z_LOWER_AT_0,
    Z_UPPER_AT_0,
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
from fuzzyqp.solver import _Projector


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
    def test_feasible_point_unchanged(self):
        x = np.array([0.2, 0.3])
        out = project(x, [[1.0, 1.0]], [1.0])
        np.testing.assert_array_equal(out, x)

    def test_single_halfspace_formula(self):
        out = project([1.0, 1.0], [[1.0, 1.0]], [1.0])
        np.testing.assert_allclose(out, [0.5, 0.5], atol=1e-12)

    def test_orthant_clamp(self):
        out = project([-1.0, 2.0], [[1.0, 1.0]], [10.0])
        np.testing.assert_allclose(out, [0.0, 2.0], atol=1e-12)

    def test_two_active_constraints(self):
        # intersection of x1 <= 1 and x2 <= 1 from (2, 2) is the corner
        out = project([2.0, 2.0], [[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0])
        np.testing.assert_allclose(out, [1.0, 1.0], atol=1e-9)

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

    def test_empty_polyhedron(self):
        with pytest.raises(InfeasibleError):
            project([0.0, 0.0], [[1.0, 0.0]], [-1.0])

    def test_zero_row_negative_bound(self):
        with pytest.raises(InfeasibleError):
            project([0.0], [[0.0]], [-1.0])

    def test_zero_row_slack_ignored(self):
        out = project([2.0], [[0.0]], [1.0])
        np.testing.assert_array_equal(out, [2.0])


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

    def test_farkas_certificate_for_empty_polyhedron(self):
        A = np.array([[1.0, 1.0], [-1.0, -1.0]])
        b = np.array([1.0, -2.0])
        with pytest.raises(InfeasibleError) as err:
            project([0.0, 0.0], A, b)
        mu = err.value.certificate
        assert np.all(mu >= 0.0)
        np.testing.assert_allclose(A.T @ mu[:2] - mu[2:], 0.0, atol=1e-12)
        assert b @ mu[:2] < 0.0

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
            mu = err.value.certificate
            assert mu.min() >= 0.0
            scale = np.max(np.abs(mu))
            assert np.max(np.abs(A.T @ mu[:m + 1] - mu[m + 1:])) <= 1e-9 * scale
            assert b @ mu[:m + 1] < 0.0

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

    def test_lp_fallback_step(self):
        # Q = 0 is an LP; the fixed point at the optimal vertex still registers
        q = CrispQP(c=[-1.0, 0.0], Q=np.zeros((2, 2)), A=[[1.0, 0.0]], b=[1.0])
        s = solve_pg(q)
        assert s.converged
        assert s.z == pytest.approx(-1.0, abs=1e-9)

    def test_honest_nonconvergence_flag(self, example_problem):
        s = solve_pg(modal_qp(), SolverOptions(max_iter=2))
        assert not s.converged
        assert s.iterations == 2


class TestOracle:
    def test_lower_qp_at_zero(self, example_problem):
        s = solve_oracle(lower_qp(example_problem, 0.0))
        assert s.z == pytest.approx(Z_LOWER_AT_0, abs=1e-10)
        np.testing.assert_allclose(s.x, X_LOWER_AT_0, atol=1e-10)

    def test_modal_interior(self):
        s = solve_oracle(modal_qp())
        assert s.z == pytest.approx(Z_AT_1, abs=1e-12)
        np.testing.assert_allclose(s.x, X_AT_1, atol=1e-12)

    def test_unconstrained_minimum_at_origin(self):
        q = CrispQP(c=[0.0, 0.0], Q=np.eye(2), A=[[1.0, 1.0]], b=[1.0])
        s = solve_oracle(q)
        assert s.z == 0.0
        np.testing.assert_allclose(s.x, [0.0, 0.0], atol=1e-12)

    def test_too_large_rejected(self):
        n = 9
        q = CrispQP(c=np.zeros(n), Q=np.eye(n), A=np.ones((1, n)), b=[1.0])
        with pytest.raises(ValueError, match="n <= 8"):
            solve_oracle(q)

    def test_infeasible(self):
        q = CrispQP(c=[1.0], Q=[[1.0]], A=[[1.0]], b=[-2.0])
        with pytest.raises(InfeasibleError):
            solve_oracle(q)

    def test_agrees_with_pg_on_convex_instances(self):
        rng = np.random.default_rng(1234)
        for _ in range(30):
            q = random_convex_qp(rng)
            z_pg = solve_pg(q).z
            z_oracle = solve_oracle(q).z
            assert abs(z_pg - z_oracle) <= 1e-6


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
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            SolverOptions(**kwargs)

    def test_multistart_normalized(self):
        opts = SolverOptions(multistart=[np.array([1.0, 2.0])])
        assert opts.multistart == ((1.0, 2.0),)

    def test_multistart_shape_mismatch(self, example_problem):
        q = lower_qp(example_problem, 0.0)
        with pytest.raises(ValueError, match="start point"):
            solve_pg(q, SolverOptions(multistart=((0.0, 0.0, 0.0),)))
