"""Alpha-grid sweep and membership curve inversion."""
import importlib.util
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    REPO_ROOT,
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
    parse_problem,
    solve_fqp,
    solve_oracle,
    lower_qp,
    upper_qp,
)
import fuzzyqp.projector as projector_module
import fuzzyqp.solver as solver_module
import fuzzyqp.sweep as sweep_module

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
        assert example_curve.coincidence_alpha == 1.0 and example_curve.coincided
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

    def test_error_names_the_level_to_10_digits(self):
        # as the CSV prints it: 0.1234561 and 0.1234564 read alike at 6 digits
        p = FuzzyQP(c=(T(0, 0, 0),), Q=((T(1, 1, 1),),), A=((T(0, 0, 0),),), b=(T(-1, -1, 0),))
        with pytest.raises(InfeasibleError, match=r"^lower endpoint QP infeasible at alpha=0\.1234564: "):
            solve_fqp(p, [0.1234564])

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
        # the curve's own ends: test_exact_support_and_mode pins them to -49/12 and -1
        assert membership_of_objective(example_curve, example_curve.z_lower[0]) == 0.0
        assert membership_of_objective(example_curve, example_curve.z_upper[0]) == 0.0

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
        # each endpoint's set-up decomposes its Q once (no Q of the fixture is 0),
        # in one eigvalsh over the block's stack: two endpoints at each level
        # below 1, and the core once
        decomposed = []
        real = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda Q: decomposed.extend(Q.reshape(-1, *Q.shape[-2:])) or real(Q))
        curve = solve_fqp(example_problem, [0.0, 0.5, 1.0])
        assert len(decomposed) == 5
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
        import fuzzyqp.projector as projector_module
        from fuzzyqp import parse_problem
        from fuzzyqp.cli import parse_alpha_spec

        calls = {"qr": 0, "eigvalsh": 0, "post_init": 0, "_solve": 0}

        def counting(name, fn, count=lambda *args: 1):
            def wrapper(*args, **kwargs):
                calls[name] += count(*args)
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(np.linalg, "qr", counting("qr", np.linalg.qr))
        # the matrices decomposed, one call taking a whole stack
        monkeypatch.setattr(np.linalg, "eigvalsh", counting(
            "eigvalsh", np.linalg.eigvalsh, lambda Q: len(Q.reshape(-1, *Q.shape[-2:]))))
        monkeypatch.setattr(CrispQP, "__post_init__", counting("post_init", CrispQP.__post_init__))
        monkeypatch.setattr(projector_module._Projector, "_solve",
                            counting("_solve", projector_module._Projector._solve))
        projector_module._bound_face.cache_clear()
        p = parse_problem(fixture_text)
        curve = solve_fqp(p, parse_alpha_spec("0:1:0.01"))
        assert len(curve.records) == 101
        assert calls["qr"] == 70  # one per face that holds a row of A; 272 when every face took a QR
        assert calls["eigvalsh"] == 201  # one per distinct crisp QP: the core is solved once
        assert calls["post_init"] == 0  # the cut ends of a validated problem are trusted
        # a lane whose step only re-reads the face it holds is read with others
        # of its face size (projector._project_lanes); a call for each would be 2,654
        assert calls["_solve"] <= 600

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

        import fuzzyqp.projector as projector_module
        from fuzzyqp import parse_problem

        grid = [k / 20 for k in range(21)]
        key = lambda curve: [(r.x_lower.tobytes(), r.x_upper.tobytes(), r.z_lower, r.z_upper,
                              r.lower_diag.iterations, r.upper_diag.iterations)
                             for r in curve.records]
        want = key(solve_fqp(parse_problem(fixture_text), grid))
        projector_module._bound_face.cache_clear()
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


def _key(s: QpSolution) -> tuple:
    """Every field of a solution, as bytes where it is a float."""
    return s.x.tobytes(), np.array([s.z, s.stationarity]).tobytes(), s.iterations, s.converged, s.convex


def _outcome(solve):
    """solve()'s records as (alpha, lower key, upper key), or the type, message and
    certificate of what it raised."""
    try:
        return [(r.alpha, _key(r.lower_diag), _key(r.upper_diag)) for r in solve()]
    except Exception as e:
        certificate = getattr(e, "certificate", None)
        return type(e), str(e), None if certificate is None else certificate.tobytes()


def _one_at_a_time(p, alphas, opts):
    """A sweep's records as solving one endpoint after another gives them: solve_pg
    on lower_qp(p, alpha), then on upper_qp(p, alpha) unless it is the same core,
    an error naming the level and endpoint (sweep._solve_endpoint)."""
    records = []
    for alpha in sorted(set(alphas)):
        lo_q, up_q = lower_qp(p, alpha), upper_qp(p, alpha)
        lo = sweep_module._solve_endpoint(lo_q, opts, "lower", alpha)
        up = lo if up_q is lo_q else sweep_module._solve_endpoint(up_q, opts, "upper", alpha)
        records.append(AlphaRecord(alpha, lo.z, up.z, lo.x, up.x, lo, up))
    return records


def _with_block_bytes(block_bytes, solve):
    """_outcome(solve) with LANE_BLOCK_BYTES = block_bytes."""
    saved, sweep_module.LANE_BLOCK_BYTES = sweep_module.LANE_BLOCK_BYTES, block_bytes
    try:
        return _outcome(solve)
    finally:
        sweep_module.LANE_BLOCK_BYTES = saved


def _with_stack_min(stack_min, solve):
    """_outcome(solve) with projector._STACK_MIN = stack_min."""
    saved, projector_module._STACK_MIN = projector_module._STACK_MIN, stack_min
    try:
        return _outcome(solve)
    finally:
        projector_module._STACK_MIN = saved


@st.composite
def _sweeps(draw):
    """(p, alphas, opts): a fuzzy QP of n <= 3 variables whose endpoints are convex,
    indefinite or have Q = 0, bounded by a box row or not, with a zero row of A or a
    b near 2^1000 (so the projector shifts b) drawn in; and a grid of up to 21
    levels k/20, whose up to 41 endpoints can hold more lanes of one face size than
    projector._STACK_MIN, with options that run explicit starts (of the wrong length
    too), another seed, or a max_iter small enough to end runs unconverged."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["convex", "indefinite", "zero"]))
    M = rng.normal(size=(n, n))
    Q = {"convex": M @ M.T + 0.1 * np.eye(n), "indefinite": M + M.T, "zero": np.zeros((n, n))}[kind]
    spread = lambda a, s: np.stack([a - s * rng.random(a.shape), a, a + s * rng.random(a.shape)], -1)
    Q = spread(Q, 0.0 if kind == "zero" else 0.3)
    A, b = rng.normal(size=(m, n)), rng.uniform(0.5, 3.0, size=m)
    if draw(st.booleans()):
        A[draw(st.integers(0, m - 1))] = 0.0
    if draw(st.booleans()):
        b[0] = 2.0 ** 1001
    if draw(st.booleans()):
        A, b = np.vstack([A, np.ones(n)]), np.append(b, 4.0)
    doc = {"n": n, "m": len(b), "c": spread(rng.normal(size=n), 0.5).tolist(),
           "Q": (0.5 * (Q + Q.transpose(1, 0, 2))).tolist(), "A": spread(A, 0.2).tolist(),
           "b": spread(b, 0.2).tolist()}
    alphas = draw(st.lists(st.sampled_from([k / 20 for k in range(21)]), min_size=1, max_size=21))
    opts = draw(st.sampled_from([  # max_iter 200: a run that cycles ends soon
        SolverOptions(max_iter=200), SolverOptions(max_iter=200, seed=draw(st.integers(1, 10 ** 6))),
        SolverOptions(max_iter=draw(st.integers(1, 6))),
        SolverOptions(max_iter=200, multistart=((1.0,) * n, (0.0,) * n, (3.0,) * n)),
        SolverOptions(multistart=((1.0,) * (n + 1),)),
    ]))
    return parse_problem(json.dumps(doc)), alphas, opts


class TestSideBySide:
    """solve_fqp steps the runs of every endpoint side by side
    (solver._pg_lanes) and gives each record the bytes of solving its
    endpoints one after another, every error as that would raise it."""

    @pytest.mark.numpy_contract
    @given(_sweeps())
    @settings(deadline=None)
    def test_every_record_is_its_endpoints_solve_pg(self, case):
        p, alphas, opts = case
        assert _outcome(lambda: solve_fqp(p, alphas, opts).records) == _outcome(
            lambda: _one_at_a_time(p, alphas, opts))

    @pytest.mark.numpy_contract
    @given(_sweeps())
    @settings(deadline=None, max_examples=50)
    def test_block_budget_never_changes_the_result(self, case):
        p, alphas, opts = case
        solve = lambda: solve_fqp(p, alphas, opts).records
        assert _with_block_bytes(1, solve) == _with_block_bytes(sweep_module.LANE_BLOCK_BYTES, solve)

    @pytest.mark.numpy_contract
    @given(_sweeps())
    @settings(deadline=None, max_examples=50)
    def test_group_threshold_never_changes_the_result(self, case):
        # every group of settled lanes read at once, or every lane by its own _solve
        p, alphas, opts = case
        solve = lambda: solve_fqp(p, alphas, opts).records
        assert _with_stack_min(1, solve) == _with_stack_min(10 ** 9, solve)

    def test_fixture_in_blocks(self, example_problem):
        # one endpoint a block, about five, and all 41 levels in one
        solve = lambda: solve_fqp(example_problem, [k / 40 for k in range(41)]).records
        want = _outcome(lambda: _one_at_a_time(example_problem, [k / 40 for k in range(41)], SolverOptions()))
        for block_bytes in (1, 2000, sweep_module.LANE_BLOCK_BYTES):
            assert _with_block_bytes(block_bytes, solve) == want
        for stack_min in (1, 10 ** 9):
            assert _with_stack_min(stack_min, solve) == want

    def test_first_of_two_failing_endpoints(self):
        # both lower endpoints diverge, the one at alpha = 0.5 in fewer iterates
        # (about 70) than the one at 0 (about 190): the one at 0 is raised
        p = FuzzyQP(c=(T(-0.5, 0.5, 1), T(0.5, 0.5, 2)),
                    Q=((T(0.5, 0.5, 0.5), T(1, 1, 1)), (T(1, 1, 1), T(-1, -0.5, 0))),
                    A=((T(0, 2, 2), T(-2, -0.5, 0.5)),), b=(T(-0.5, 0, 1),))
        with pytest.raises(UnboundedError) as err:
            solve_fqp(p, [0.5, 0.0])
        assert str(err.value) == ("lower endpoint QP unbounded at alpha=0: iterate magnitude "
                                  "exceeded 1e+08; instance appears unbounded below")
        assert _outcome(lambda: solve_fqp(p, [0.5, 0.0]).records) == _outcome(
            lambda: _one_at_a_time(p, [0.5, 0.0], SolverOptions()))

    def test_run_failure_before_a_later_set_up_failure(self):
        # the lower endpoint at 0 diverges in its runs; at 0.5 its polyhedron is
        # empty, found when its start is projected, before any run
        p = FuzzyQP(c=(T(-2, -1, 2), T(-2, 0, 0.5)),
                    Q=((T(-1, -1, 2), T(-0.5, 0, 2)), (T(-0.5, 0, 2), T(-2, -0.5, 2))),
                    A=((T(-0.5, 1, 2), T(-0.5, 0.5, 2)),), b=(T(-2, 1, 2),))
        with pytest.raises(InfeasibleError, match="lower endpoint QP infeasible at alpha=0.5: "):
            solve_fqp(p, [0.5])
        with pytest.raises(UnboundedError) as err:
            solve_fqp(p, [0.0, 0.5])
        assert str(err.value) == ("lower endpoint QP unbounded at alpha=0: iterate magnitude "
                                  "exceeded 1e+08; instance appears unbounded below")


class TestFallbacks:
    """solver._pg_lanes steps only the endpoints that solver._setups hands over
    as plain, and sweep._solve_block solves every other one, and every one
    whose runs or judgement raised, by solve_pg: each record still has the
    bytes of solving the endpoints one at a time."""

    @pytest.mark.parametrize("multistart", [None, ((1.0,) * 3,)], ids=["b-near-the-float-range", "long-start"])
    def test_lanes_take_no_shifted_projector_and_no_misshapen_start(self, multistart, monkeypatch):
        # b = 2^1001 at one endpoint of alpha = 0 shifts its projector; a start
        # of 3 entries for n = 2 fits no endpoint
        p = FuzzyQP(c=(T(-2, -1, 0), T(-2, -1, 0)),
                    Q=((T(1, 2, 3), T(0, 0, 0)), (T(0, 0, 0), T(1, 2, 3))),
                    A=((T(1, 1, 1), T(1, 1, 1)), (T(1, 1, 1), T(0, 0, 0))),
                    b=(T(1, 2, 2.0 ** 1001), T(3, 4, 5)))
        opts, alphas = SolverOptions(multistart=multistart), [0.0, 0.5, 1.0]
        received, pg_lanes = [], solver_module._pg_lanes
        monkeypatch.setattr(sweep_module, "_pg_lanes",
                            lambda endpoints, opts: received.extend(endpoints) or pg_lanes(endpoints, opts))
        assert _outcome(lambda: solve_fqp(p, alphas, opts).records) == _outcome(
            lambda: _one_at_a_time(p, alphas, opts))
        served = [(q, set_up) for q, set_up in received if set_up is not None]
        assert len(received) == 5 and len(served) == (4 if multistart is None else 0)
        for q, (_, _, warm, starts) in served:
            assert warm._j == 0
            assert all(isinstance(x0, np.ndarray) and x0.shape == (q.n,) for x0 in starts)

    def test_a_judgement_that_raises(self, monkeypatch):
        # one iterate ends inside the float range; _finish's stationarity
        # projection then leaves it
        crisp = lambda v: T(v, v, v)
        p = FuzzyQP(c=(crisp(-1.587316110376669e299), crisp(-3.736037558505018e299)),
                    Q=((crisp(-1.1635006255829691e306), crisp(7.524000967991355e306)),
                       (crisp(7.524000967991355e306), crisp(-1.2592151208784772e307))),
                    A=((crisp(0.6029065332890343), crisp(-0.9796984254453097)),),
                    b=(crisp(11.523375562332435),))
        opts = SolverOptions(max_iter=1)
        raised, finish = [], sweep_module._finish

        def judged(*args):
            try:
                return finish(*args)
            except Exception as e:
                raised.append(type(e))
                raise
        monkeypatch.setattr(sweep_module, "_finish", judged)
        with np.errstate(all="ignore"):  # the suite turns numpy's overflow warnings into errors
            got = _outcome(lambda: solve_fqp(p, [0.0], opts).records)
            assert got == _outcome(lambda: _one_at_a_time(p, [0.0], opts))
        assert raised == [UnboundedError]
        assert got[:2] == (UnboundedError, "lower endpoint QP unbounded at alpha=0: the iterates left "
                           "the float range; instance appears unbounded below")

    def test_a_stacked_eigvalsh_that_raises(self, example_problem, monkeypatch):
        # every endpoint of the block is then solved by solve_pg, whose eigvalsh takes one matrix
        stacks, real = [], np.linalg.eigvalsh

        def eigvalsh(Q):
            if Q.ndim > 2 and len(Q) > 1:
                stacks.append(len(Q))
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return real(Q)
        monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
        alphas = [k / 10 for k in range(11)]
        assert _outcome(lambda: solve_fqp(example_problem, alphas).records) == _outcome(
            lambda: _one_at_a_time(example_problem, alphas, SolverOptions()))
        assert stacks == [21]


def _workloads():
    """The benchmark's problem generators (perfbench/workloads.py)."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", REPO_ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


class TestBlockBudget:
    """A block of a sweep's endpoints counts each one's whole footprint against
    LANE_BLOCK_BYTES: its crisp QP, its set-up and its lanes (sweep._footprint)."""

    def test_a_wide_sweep_peaks_within_two_blocks(self):
        # n = 80 over 401 levels: 12.5 MB if a block counted its lane stacks alone
        p = parse_problem(json.dumps(_workloads().wide_interior_problem(501)))
        tracemalloc.start()
        try:
            curve = solve_fqp(p, [k / 400 for k in range(401)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(curve.records) == 401
        assert peak < 2 * sweep_module.LANE_BLOCK_BYTES

    def test_every_benchmark_sweep_is_one_block(self, example_problem, monkeypatch):
        workloads = _workloads()
        blocks = []
        set_ups = sweep_module._setups
        monkeypatch.setattr(sweep_module, "_setups",
                            lambda qs, opts: blocks.append(len(qs)) or set_ups(qs, opts))
        solve_fqp(example_problem, [k / 100 for k in range(101)])
        solve_fqp(parse_problem(json.dumps(workloads.wide_interior_problem(501))), [0.0, 0.5, 1.0])
        for index in range(len(workloads.CONVEX_SIZES)):  # each size of convex-grow
            p = parse_problem(json.dumps(workloads.convex_grow_problem(index)))
            solve_fqp(p, workloads.CONVEX_LEVELS)
        assert blocks == [201, 5] + [5] * len(workloads.CONVEX_SIZES)
