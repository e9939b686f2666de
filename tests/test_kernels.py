"""The kernel rule: which matrix-vector products go through ndarray.dot.

A product goes through M.dot only where that gives M @ v byte for byte:
M has at least two columns and is aligned and either F-contiguous or of
unit column stride (problem._product), and v is aligned and of unit stride.
Whether dot and matmul reach the same kernel is numpy's to change, so CI
also runs this file under the "kernel-rule" hypothesis profile
(tests/conftest.py), with a larger example budget, on every numpy leg.
"""
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from helpers import _ReferenceProjector, pg_reference, random_convex_qp
from fuzzyqp import CrispQP, SolverOptions, gradient, objective, project, solve_pg
from fuzzyqp.problem import _product
from fuzzyqp.solver import _Projector

# signed zeros, units, the least subnormal, the largest magnitudes, infinities, NaN
SPECIAL = [0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 1e308, -1e308, np.inf, -np.inf, np.nan]
_entries = st.sampled_from(SPECIAL)


def _layout(M: np.ndarray, layout: str) -> np.ndarray:
    """M's values in C order, F order, or as every other row of a taller array."""
    if layout == "F":
        return np.asfortranarray(M)
    if layout == "rows":
        tall = np.full((2 * M.shape[0], M.shape[1]), 7.0)
        tall[::2] = M
        return tall[::2]
    return np.ascontiguousarray(M)


@st.composite
def _matrix_vector(draw, min_cols=2, max_cols=5):
    m = draw(st.integers(0, 5))
    n = draw(st.integers(min_cols, max_cols))
    M = np.array(draw(st.lists(_entries, min_size=m * n, max_size=m * n)), dtype=float)
    v = np.array(draw(st.lists(_entries, min_size=n, max_size=n)), dtype=float)
    return _layout(M.reshape(m, n), draw(st.sampled_from(["C", "F", "rows"]))), v


def _bytes(a: np.ndarray) -> tuple:
    return a.shape, a.tobytes()


class TestKernelRule:
    @given(_matrix_vector())
    @example((np.array([[-0.0, 5e-324], [1.0, -1.0]]), np.array([-5e-324, -0.0])))
    def test_dot_is_matmul_from_two_columns(self, mv):
        M, v = mv
        with np.errstate(all="ignore"):  # inf * 0 in matmul's loop
            want = M @ v
            assert _bytes(M.dot(v)) == _bytes(want)
            assert _bytes(_product(M)(v)) == _bytes(want)
        assert _product(M) == M.dot  # dot is chosen for each of these layouts

    @given(_matrix_vector(min_cols=1, max_cols=1))
    @example((np.array([[1.0]]), np.array([-0.0])))  # dot: 1.0 * -0.0; @: 0.0 + 1.0 * -0.0
    @example((np.array([[0.0], [5e-324]]), np.array([-5e-324])))  # dot's axpy can fuse
    def test_one_column_keeps_matmul(self, mv):
        M, v = mv
        with np.errstate(all="ignore"):
            assert _bytes(_product(M)(v)) == _bytes(M @ v)

    def test_one_column_dot_can_differ(self):
        # the reason for the rule: dot keeps the sign of a zero that @ makes +0.0
        M, v = np.array([[1.0]]), np.array([-0.0])
        assert M.dot(v).tobytes() != (M @ v).tobytes()

    @pytest.mark.parametrize("layout", ["negative rows", "every other column", "unaligned"])
    def test_other_layouts_keep_matmul(self, layout):
        M = np.arange(12.0).reshape(3, 4)
        if layout == "negative rows":
            M = M[::-1]
        elif layout == "every other column":
            M = np.arange(24.0).reshape(3, 8)[:, ::2]
        else:
            raw = np.zeros(M.nbytes + 1, dtype=np.uint8)
            M = np.ndarray(M.shape, float, raw, 1)
            M[...] = np.arange(12.0).reshape(3, 4)
            assert not M.flags.aligned
        assert _product(M) == M.__matmul__

    def test_every_chosen_product_is_matmul(self):
        """Each product a CrispQP, a projector and its faces choose gives @'s
        bytes on signed zeros and on products that underflow, n = 1 and a
        one-row face included."""
        vectors = [[-0.0], [0.0], [5e-324], [-5e-324], [1e-300], [-1e-300]]
        for n in (1, 2, 3):
            rng = np.random.default_rng(n)
            A = np.vstack([rng.normal(size=(2, n)), np.full((1, n), 1e-300)])
            A[0, 0] = -5e-324
            q = CrispQP(c=np.zeros(n), Q=np.eye(n), A=A, b=np.ones(3))
            proj = _Projector(q.A, q.b)
            first = proj.first_bound
            products = [(q.Q, q._Qx), (proj.A, proj._Ax), (proj.G, proj._Gy)]
            for P in [(), (0,), (first,), (0, first), tuple(range(first, first + n))]:
                if len(P) <= n:
                    K = proj._face(P)[0]
                    products.append((K, proj._kernel(P)[1]))
            if n == 1:  # every row of A zero and dropped: G is the 1 x 1 block -I
                proj = _Projector(np.zeros((2, 1)), np.ones(2))
                products.append((proj.G, proj._Gy))
            for M, product in products:
                for v in vectors:
                    v = np.resize(np.array(v), M.shape[1])
                    assert _bytes(product(v)) == _bytes(M @ v), (M, v)


class TestSignedZeros:
    """One-variable solves, where every product has one column, match
    pg_reference bit for bit, signed zeros included: a start at -0.0 with
    c = -0.0 ends at -0.0 only if Qx is taken as @ takes it (0.0 + Qx)."""

    @pytest.mark.parametrize("c, a, b", [
        (-0.0, 1.0, 1.0),   # stays at the start -0.0: no projection
        (1.0, 1.0, 1.0),    # the bound x >= 0 becomes the one active row
        (-3.0, 1.0, 1.0),   # the row x <= 1 becomes the one active row
        (-0.0, -1.0, 0.0),  # the row -x <= 0, parallel to the bound
    ])
    @pytest.mark.parametrize("start", [-0.0, 0.0, 2.0, -1.0])
    def test_one_variable_matches_reference(self, c, a, b, start):
        q = CrispQP(c=[c], Q=[[1.0]], A=[[a]], b=[b])
        opts = SolverOptions(multistart=((start,),))
        got, want = solve_pg(q, opts), pg_reference(q, opts)
        assert (got.x.tobytes(), got.z, got.iterations, got.stationarity) == (
            want.x.tobytes(), want.z, want.iterations, want.stationarity)

    def test_start_at_negative_zero_is_kept(self):
        q = CrispQP(c=[-0.0], Q=[[1.0]], A=[[1.0]], b=[1.0])
        s = solve_pg(q, SolverOptions(multistart=((-0.0,),)))
        assert s.x.tobytes() == np.array([-0.0]).tobytes()


def _strided(a: np.ndarray, kind: str) -> np.ndarray:
    """a's values in another layout: rows (entries) in reverse memory order,
    every other row of a taller array, or Fortran order."""
    if kind == "negative":
        return np.ascontiguousarray(a[::-1])[::-1]
    if kind == "stepped":
        tall = np.zeros((2 * len(a),) + a.shape[1:])
        tall[::2] = a
        return tall[::2]
    return np.asfortranarray(a)


class TestPublicFunctionsOnStridedInputs:
    """gradient, objective and project take any layout of x (and of A for
    project) and return what they returned before the kernel rule: dot is
    used only for an aligned unit-stride x, where it is @ byte for byte."""

    @pytest.mark.parametrize("kind", ["negative", "stepped"])
    def test_gradient_and_objective(self, kind):
        rng = np.random.default_rng(17)
        for _ in range(300):
            q = random_convex_qp(rng, n_max=6, m_max=4)
            x = _strided(rng.normal(size=q.n) * 10.0 ** rng.integers(-3, 4, size=q.n), kind)
            assert gradient(q, x).tobytes() == (q.c + q.Q @ x).tobytes()
            assert objective(q, x) == float(q.c @ x + 0.5 * (x @ q.Q @ x))

    @pytest.mark.parametrize("kind", ["negative", "stepped", "fortran"])
    def test_project(self, kind):
        rng = np.random.default_rng(23)
        for _ in range(100):
            q = random_convex_qp(rng, n_max=6, m_max=4)
            x = rng.normal(size=q.n) * 3.0
            A, b = _strided(q.A, kind), _strided(q.b, kind)
            # the reference takes the same layout: the row norms of A (einsum)
            # can round differently in another layout, before and after the rule
            ref = _ReferenceProjector(A, b)
            want = x if ref.contains(x) else ref(x.copy())
            assert project(_strided(x, kind), A, b).tobytes() == want.tobytes()

