"""Extraction of the lower/upper crisp QPs at a level."""
import numpy as np
import pytest

from helpers import crisp_problem, random_fuzzy_qp

import fuzzyqp.problem as problem_module
from fuzzyqp import (
    FuzzyQP,
    TriangularFuzzyNumber,
    ValidationError,
    lower_qp,
    upper_qp,
    validate,
)

T = TriangularFuzzyNumber


class TestExampleExtraction:
    def test_lower_at_zero(self, example_problem):
        q = lower_qp(example_problem, 0.0)
        np.testing.assert_allclose(q.c, [-6.0, 1.0])
        np.testing.assert_allclose(q.Q, [[4.0, -3.0], [-3.0, 2.0]])
        np.testing.assert_allclose(q.A, [[1.0, 0.5], [1.0, -2.0]])
        np.testing.assert_allclose(q.b, [1.0, 2.0])

    def test_lower_at_one_is_modal(self, example_problem):
        q = lower_qp(example_problem, 1.0)
        np.testing.assert_allclose(q.c, [-5.0, 1.5])
        np.testing.assert_allclose(q.Q, [[6.0, -2.0], [-2.0, 4.0]])
        np.testing.assert_allclose(q.A, [[1.0, 1.0], [2.0, -1.0]])
        np.testing.assert_allclose(q.b, [2.0, 4.0])

    def test_upper_at_zero(self, example_problem):
        q = upper_qp(example_problem, 0.0)
        np.testing.assert_allclose(q.c, [-4.0, 2.0])
        np.testing.assert_allclose(q.Q, [[8.0, -1.0], [-1.0, 6.0]])
        # A[1][1] is the right support endpoint of (-2, -1, -0.5).
        np.testing.assert_allclose(q.A, [[1.0, 1.5], [3.0, -0.5]])
        np.testing.assert_allclose(q.b, [3.0, 6.0])

    def test_upper_at_half(self, example_problem):
        q = upper_qp(example_problem, 0.5)
        np.testing.assert_allclose(q.c, [-4.5, 1.75])
        np.testing.assert_allclose(q.Q, [[7.0, -1.5], [-1.5, 5.0]])
        np.testing.assert_allclose(q.b, [2.5, 5.0])

    def test_top_coincidence(self, example_problem):
        lo = lower_qp(example_problem, 1.0)
        up = upper_qp(example_problem, 1.0)
        np.testing.assert_array_equal(lo.c, up.c)
        np.testing.assert_array_equal(lo.Q, up.Q)
        np.testing.assert_array_equal(lo.A, up.A)
        np.testing.assert_array_equal(lo.b, up.b)


class TestProperties:
    @pytest.mark.parametrize("seed", range(5))
    def test_top_coincidence_random(self, seed):
        p = random_fuzzy_qp(np.random.default_rng(seed))
        lo, up = lower_qp(p, 1.0), upper_qp(p, 1.0)
        for a, b in ((lo.c, up.c), (lo.Q, up.Q), (lo.A, up.A), (lo.b, up.b)):
            np.testing.assert_allclose(a, b, atol=1e-12)

    @pytest.mark.parametrize("alpha", [0.0, 0.3, 0.7, 1.0])
    def test_componentwise_ordering(self, alpha, example_problem):
        lo = lower_qp(example_problem, alpha)
        up = upper_qp(example_problem, alpha)
        for a, b in ((lo.c, up.c), (lo.Q, up.Q), (lo.A, up.A), (lo.b, up.b)):
            assert np.all(a <= b + 1e-12)

    def test_affine_in_alpha(self):
        p = random_fuzzy_qp(np.random.default_rng(42))
        for extract in (lower_qp, upper_qp):
            q0, q_half, q1 = (extract(p, a) for a in (0.0, 0.5, 1.0))
            for lo_arr, mid_arr, hi_arr in (
                (q0.c, q_half.c, q1.c),
                (q0.Q, q_half.Q, q1.Q),
                (q0.A, q_half.A, q1.A),
                (q0.b, q_half.b, q1.b),
            ):
                np.testing.assert_allclose(mid_arr, 0.5 * (lo_arr + hi_arr), atol=1e-12)
        # lower endpoints rise with alpha, upper endpoints fall
        assert np.all(lower_qp(p, 0.0).c <= lower_qp(p, 0.5).c + 1e-12)
        assert np.all(lower_qp(p, 0.5).c <= lower_qp(p, 1.0).c + 1e-12)
        assert np.all(upper_qp(p, 0.0).c >= upper_qp(p, 0.5).c - 1e-12)
        assert np.all(upper_qp(p, 0.5).c >= upper_qp(p, 1.0).c - 1e-12)

    @pytest.mark.parametrize("alpha", [0.0, 0.25, 0.8])
    def test_agreement_with_cut_endpoints(self, alpha, example_problem):
        rng = np.random.default_rng(17)
        for p in (example_problem, *(random_fuzzy_qp(rng, 4, 4) for _ in range(20))):
            lo, up = lower_qp(p, alpha), upper_qp(p, alpha)
            for i in range(p.n):
                cut = p.c[i].alpha_cut(alpha)
                assert lo.c[i] == cut.lo and up.c[i] == cut.hi
                for j in range(p.n):
                    cut = p.Q[i][j].alpha_cut(alpha)
                    assert lo.Q[i, j] == cut.lo and up.Q[i, j] == cut.hi
            for i in range(p.m):
                cut = p.b[i].alpha_cut(alpha)
                assert lo.b[i] == cut.lo and up.b[i] == cut.hi
                for j in range(p.n):
                    cut = p.A[i][j].alpha_cut(alpha)
                    assert lo.A[i, j] == cut.lo and up.A[i, j] == cut.hi

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    def test_crisp_problem_unchanged(self, alpha):
        p = crisp_problem()
        for extract in (lower_qp, upper_qp):
            q = extract(p, alpha)
            np.testing.assert_array_equal(q.c, [-5.0, 1.5])
            np.testing.assert_array_equal(q.Q, [[6.0, -2.0], [-2.0, 4.0]])
            np.testing.assert_array_equal(q.A, [[1.0, 1.0], [2.0, -1.0]])
            np.testing.assert_array_equal(q.b, [2.0, 4.0])


class TestErrors:
    def test_invalid_problem_rejected(self):
        p = FuzzyQP(
            c=(T(0, 0, 0), T(0, 0, 0)),
            Q=((T(1, 1, 1), T(0, 0, 0)), (T(2, 2, 2), T(1, 1, 1))),  # asymmetric
            A=((T(1, 1, 1), T(1, 1, 1)),),
            b=(T(1, 1, 1),),
        )
        with pytest.raises(ValidationError):
            lower_qp(p, 0.5)

    def test_validated_once_and_rejected_every_call(self, monkeypatch):
        p = FuzzyQP(
            c=(T(0, 0, 0), T(0, 0, 0)),
            Q=((T(1, 1, 1), T(0, 0, 0)), (T(2, 2, 2), T(1, 1, 1))),  # asymmetric
            A=((T(1, 1, 1), T(1, 1, 1)),),
            b=(T(1, 1, 1),),
        )
        checks = []
        real = problem_module._violations
        monkeypatch.setattr(problem_module, "_violations",
                            lambda *args: checks.append(1) or real(*args))
        expected = validate(p)
        for alpha in (0.0, 0.5, 1.0):
            for extract in (lower_qp, upper_qp):
                with pytest.raises(ValidationError) as err:
                    extract(p, alpha)
                assert err.value.violations == expected
        assert validate(p) == expected
        assert len(checks) == 1

    @pytest.mark.parametrize("alpha", [-0.01, 1.01])
    def test_alpha_range(self, alpha, example_problem):
        with pytest.raises(ValueError):
            upper_qp(example_problem, alpha)
