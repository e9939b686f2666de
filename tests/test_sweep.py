"""Alpha-grid sweep and membership curve inversion."""
import numpy as np
import pytest

from helpers import (
    TABLE_ALPHAS,
    TABLE_Z_LOWER,
    TABLE_Z_UPPER,
    X_AT_1,
    Z_AT_1,
    Z_LOWER_AT_0,
    Z_UPPER_AT_0,
    crisp_problem,
)

from fuzzyqp import (
    AlphaRecord,
    CrispQP,
    CurveShapeError,
    FuzzyQP,
    InfeasibleError,
    MembershipCurve,
    QpSolution,
    SolverOptions,
    TriangularFuzzyNumber,
    UnboundedError,
    membership_of_objective,
    solve_fqp,
    solve_oracle,
    lower_qp,
    upper_qp,
)

T = TriangularFuzzyNumber


@pytest.fixture(scope="module")
def example_curve(example_problem):
    return solve_fqp(example_problem, TABLE_ALPHAS)


class TestSolveFqp:
    def test_reproduces_reference_table(self, example_curve):
        np.testing.assert_allclose(example_curve.z_lower, TABLE_Z_LOWER, atol=1e-2)
        np.testing.assert_allclose(example_curve.z_upper, TABLE_Z_UPPER, atol=1e-2)

    def test_exact_support_and_mode(self, example_curve):
        assert example_curve.z_lower[0] == pytest.approx(Z_LOWER_AT_0, abs=1e-6)
        assert example_curve.z_upper[0] == pytest.approx(Z_UPPER_AT_0, abs=1e-6)
        assert example_curve.z_lower[-1] == pytest.approx(Z_AT_1, abs=1e-6)
        assert example_curve.z_upper[-1] == pytest.approx(Z_AT_1, abs=1e-6)
        np.testing.assert_allclose(example_curve.records[-1].x_lower, X_AT_1, atol=1e-6)

    def test_records_complete_and_sorted(self, example_curve):
        assert example_curve.alphas.tolist() == list(TABLE_ALPHAS)
        for r in example_curve.records:
            assert r.lower_diag.converged and r.upper_diag.converged
            assert r.lower_diag.iterations >= 1

    def test_coincides_at_top_only(self, example_curve):
        assert example_curve.coincidence_alpha == 1.0
        assert abs(example_curve.z_lower[-1] - example_curve.z_upper[-1]) <= 1e-6

    def test_branch_monotone_and_bracketing(self, example_curve):
        # observed structure of the example: rising lower branch, falling upper
        assert np.all(np.diff(example_curve.z_lower) >= -1e-9)
        assert np.all(np.diff(example_curve.z_upper) <= 1e-9)
        assert np.all(example_curve.z_lower <= example_curve.z_upper + 1e-9)

    def test_paper_rule_lower_branch_is_not_a_lower_bound(self, example_problem, example_curve):
        # The paper's rule takes b at its lower cut endpoint too.  The instance
        # (c_L, Q_L, A_L, b_U) lies inside the alpha = 0 cut and its optimum
        # is far below z_lower(0): this pins the disagreement, not a fix.
        lo, up = lower_qp(example_problem, 0.0), upper_qp(example_problem, 0.0)
        for tfn, value in zip(example_problem.b, up.b):
            cut = tfn.alpha_cut(0.0)
            assert cut.lo <= value <= cut.hi
        s = solve_oracle(CrispQP(lo.c, lo.Q, lo.A, up.b))
        assert s.converged
        assert s.z == pytest.approx(-121.0 / 12.0, abs=1e-12)
        np.testing.assert_allclose(s.x, [25.0 / 12.0, 11.0 / 6.0], rtol=0, atol=1e-12)
        assert example_curve.z_lower[0] == pytest.approx(Z_LOWER_AT_0, abs=1e-9)
        assert s.z - example_curve.z_lower[0] == pytest.approx(-6.0, abs=1e-9)  # -121/12 - (-49/12)

    def test_convexity_flags(self, example_curve):
        # the level-0 lower matrix is indefinite, everything else is not
        assert not example_curve.records[0].lower_diag.convex
        assert example_curve.records[0].upper_diag.convex
        assert all(r.lower_diag.convex for r in example_curve.records[1:])

    def test_crisp_problem_constant_curve(self):
        p = crisp_problem()
        crisp_opt = solve_oracle(lower_qp(p, 0.0)).z
        curve = solve_fqp(p, [0.0, 0.25, 0.5, 0.75, 1.0])
        np.testing.assert_allclose(curve.z_lower, crisp_opt, atol=1e-8)
        np.testing.assert_allclose(curve.z_upper, crisp_opt, atol=1e-8)
        assert curve.coincidence_alpha == 0.0

    def test_single_top_level_grid(self, example_problem):
        curve = solve_fqp(example_problem, [1.0])
        assert len(curve.records) == 1
        assert curve.z_lower[0] == curve.z_upper[0]
        assert curve.coincidence_alpha == 1.0

    def test_grid_sorted_and_deduplicated(self, example_problem):
        curve = solve_fqp(example_problem, [1.0, 0.0, 1.0, 0.5])
        assert curve.alphas.tolist() == [0.0, 0.5, 1.0]

    def test_empty_grid_rejected(self, example_problem):
        with pytest.raises(ValueError, match="nonempty"):
            solve_fqp(example_problem, [])

    def test_determinism(self, example_problem):
        c1 = solve_fqp(example_problem, TABLE_ALPHAS)
        c2 = solve_fqp(example_problem, TABLE_ALPHAS)
        assert c1.z_lower.tolist() == c2.z_lower.tolist()
        assert c1.z_upper.tolist() == c2.z_upper.tolist()
        for r1, r2 in zip(c1.records, c2.records):
            assert np.array_equal(r1.x_lower, r2.x_lower)
            assert np.array_equal(r1.x_upper, r2.x_upper)
            assert r1.lower_diag.iterations == r2.lower_diag.iterations

    def test_infeasible_names_level_and_endpoint(self):
        # second constraint row is 0*x <= -1 from level 0.5 upward
        p = FuzzyQP(
            c=(T(0, 0, 0),),
            Q=((T(1, 1, 1),),),
            A=((T(0, 0, 0),),),
            b=(T(-1, -1, 0),),
        )
        with pytest.raises(InfeasibleError, match="lower endpoint .* alpha=1"):
            solve_fqp(p, [1.0])

    def test_unbounded_names_level_and_endpoint(self):
        # at alpha = 0 the lower endpoint is min -x^2 over x >= 0 (-x <= 1 holds
        # there too), so its iterates diverge
        p = FuzzyQP(c=(T(0, 0, 0),), Q=((T(-2, -1, -1),),), A=((T(-1, -1, -1),),), b=(T(1, 1, 1),))
        with pytest.raises(UnboundedError, match=r"^lower endpoint QP unbounded at alpha=0: iterate"):
            solve_fqp(p, [0.0, 1.0])


def _fake_curve(alphas, z_lower, z_upper):
    diag = lambda z: QpSolution(
        x=np.zeros(1), z=z, iterations=1, converged=True, stationarity=0.0, convex=True
    )
    records = tuple(
        AlphaRecord(
            alpha=a, z_lower=zl, z_upper=zu,
            x_lower=np.zeros(1), x_upper=np.zeros(1),
            lower_diag=diag(zl), upper_diag=diag(zu),
        )
        for a, zl, zu in zip(alphas, z_lower, z_upper)
    )
    return MembershipCurve(records=records, coincidence_alpha=None)


class TestMembershipOfObjective:
    def test_apex_is_one(self, example_curve):
        assert membership_of_objective(example_curve, Z_AT_1) == 1.0

    def test_support_ends_are_zero(self, example_curve):
        assert membership_of_objective(example_curve, Z_LOWER_AT_0) == 0.0
        assert membership_of_objective(example_curve, Z_UPPER_AT_0) == 0.0

    def test_outside_support_is_zero(self, example_curve):
        assert membership_of_objective(example_curve, -5.0) == 0.0
        assert membership_of_objective(example_curve, -0.5) == 0.0
        assert membership_of_objective(example_curve, 100.0) == 0.0

    def test_lower_branch_interpolation(self, example_curve):
        # hand interpolation between the 0.6 and 0.8 grid values
        z = -3.0
        zl = example_curve.z_lower
        expected = 0.6 + 0.2 * (z - zl[3]) / (zl[4] - zl[3])
        assert membership_of_objective(example_curve, z) == pytest.approx(expected, abs=1e-12)
        assert membership_of_objective(example_curve, z) == pytest.approx(0.6408, abs=1e-3)

    def test_upper_branch_interpolation(self, example_curve):
        z = -1.25
        zu = example_curve.z_upper
        expected = 0.2 + 0.2 * (z - zu[1]) / (zu[2] - zu[1])
        assert membership_of_objective(example_curve, z) == pytest.approx(expected, abs=1e-12)

    def test_monotone_along_lower_branch(self, example_curve):
        zs = np.linspace(Z_LOWER_AT_0, Z_AT_1, 30)
        mus = [membership_of_objective(example_curve, z) for z in zs]
        assert np.all(np.diff(mus) >= -1e-12)

    def test_crisp_curve_indicator(self):
        curve = solve_fqp(crisp_problem(), [0.0, 0.5, 1.0])
        z_star = curve.z_lower[0]
        assert membership_of_objective(curve, z_star) == 1.0
        assert membership_of_objective(curve, z_star + 0.1) == 0.0
        assert membership_of_objective(curve, z_star - 0.1) == 0.0

    def test_insufficient_grid_rejected(self, example_problem):
        curve = solve_fqp(example_problem, [0.0, 0.5])
        with pytest.raises(ValueError, match="alpha=0 and alpha=1"):
            membership_of_objective(curve, -2.0)

    def test_non_monotone_branch_rejected(self):
        curve = _fake_curve([0.0, 0.5, 1.0], [-4.0, -4.5, -2.0], [-1.0, -1.5, -2.0])
        with pytest.raises(CurveShapeError, match="lower"):
            membership_of_objective(curve, -2.0)
        curve = _fake_curve([0.0, 0.5, 1.0], [-4.0, -3.0, -2.0], [-1.0, -0.5, -2.0])
        with pytest.raises(CurveShapeError, match="upper"):
            membership_of_objective(curve, -2.0)

    def test_non_monotone_branch_blocks_polyline(self):
        from fuzzyqp.cli import polyline

        curve = _fake_curve([0.0, 0.5, 1.0], [-4.0, -4.5, -2.0], [-1.0, -1.5, -2.0])
        with pytest.raises(CurveShapeError):
            polyline(curve)


class TestCoreSolvedOnce:
    """At alpha = 1 the lower and upper instance are one, so one solve serves both."""

    def test_solve_count(self, example_problem, monkeypatch):
        import fuzzyqp.sweep as sweep_module

        solved = []
        real = sweep_module.solve_pg
        monkeypatch.setattr(sweep_module, "solve_pg", lambda q, opts: solved.append(q) or real(q, opts))
        curve = solve_fqp(example_problem, [0.0, 0.5, 1.0])
        assert len(solved) == 5
        top = curve.records[-1]
        assert top.alpha == 1.0
        assert top.z_lower == top.z_upper
        assert top.x_lower.tobytes() == top.x_upper.tobytes()

    def test_argmins_are_not_aliased(self, example_problem):
        top = solve_fqp(example_problem, [1.0]).records[0]
        want = top.x_upper.copy()
        top.x_lower[...] = -1.0
        assert top.x_upper.tobytes() == want.tobytes()
        assert top.upper_diag.x is top.x_upper


class TestSetUpPaidOnce:
    """A sweep builds the cut data once per problem and each shared bound
    face once per process; the per-level work is the clamps and the solve."""

    def test_fixture_sweep_call_counts(self, fixture_text, monkeypatch):
        import fuzzyqp.solver as solver_module
        from fuzzyqp import parse_problem
        from fuzzyqp.cli import parse_alpha_spec

        calls = {"qr": 0, "eigvalsh": 0, "post_init": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(np.linalg, "qr", counting("qr", np.linalg.qr))
        monkeypatch.setattr(np.linalg, "eigvalsh", counting("eigvalsh", np.linalg.eigvalsh))
        monkeypatch.setattr(CrispQP, "__post_init__", counting("post_init", CrispQP.__post_init__))
        solver_module._bound_face.cache_clear()
        p = parse_problem(fixture_text)
        curve = solve_fqp(p, parse_alpha_spec("0:1:0.01"))
        assert len(curve.records) == 101
        assert calls["qr"] == 70  # one per face that holds a row of A; 272 when every face took a QR
        assert calls["eigvalsh"] == 201  # one per distinct crisp QP: the core is solved once
        assert calls["post_init"] == 0  # the cut ends of a validated problem are trusted

    def test_cached_and_trusted_arrays_are_read_only(self, example_problem):
        q, core = lower_qp(example_problem, 0.3), lower_qp(example_problem, 1.0)
        arrays = [q.c, q.Q, q.A, q.b, core.c, core.Q, core.A, core.b]
        for side in example_problem._cut_data:  # flat (end, slope, mode) arrays
            arrays.extend(side)
        for arr in arrays:
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0

    def test_concurrent_sweeps_share_the_caches(self, fixture_text):
        # threads racing to build one problem's cut data and the shared
        # bound faces must each get the sequential sweep, bit for bit
        import sys
        import threading

        import fuzzyqp.solver as solver_module
        from fuzzyqp import parse_problem

        grid = [k / 20 for k in range(21)]
        key = lambda curve: [(r.x_lower.tobytes(), r.x_upper.tobytes(), r.z_lower, r.z_upper,
                              r.lower_diag.iterations, r.upper_diag.iterations)
                             for r in curve.records]
        want = key(solve_fqp(parse_problem(fixture_text), grid))
        solver_module._bound_face.cache_clear()
        shared = parse_problem(fixture_text)
        results = []
        threads = [threading.Thread(target=lambda: results.append(key(solve_fqp(shared, grid))))
                   for _ in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == [want] * len(threads)
