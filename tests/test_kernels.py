"""The kernel rule and the layout rule at the package's boundary.

Arrays enter the package aligned and in C order: CrispQP and project copy
their inputs, and gradient, objective and solve_pg's start points copy an x
of any other layout.  So no result depends on a caller's memory layout, and
every matrix-vector product is taken on C-ordered arrays, through ndarray.dot
from two columns on (problem._product), where dot gives M @ v byte for byte.
A sweep takes every lane's products at once by a stacked np.matmul, which
must give each lane's problem._product bytes (TestStackedProducts), and
sets up and reads its settled lanes by stacked eigvalsh, einsum and matmul
calls that must give each element's bytes (TestStackedPrimitives).
Whether dot and matmul reach the same kernel, and whether a stacked matmul
takes each lane as one matrix-vector product, are numpy's to change, so the
file's tests are marked numpy_contract, which CI runs with a larger example
budget on every numpy leg.
"""
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from helpers import _ReferenceProjector, pg_reference, random_convex_qp
from fuzzyqp import CrispQP, SolverOptions, gradient, objective, project, solve_pg
from fuzzyqp.problem import _product
from fuzzyqp.projector import _Projector

pytestmark = pytest.mark.numpy_contract

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
            products = [(q.Q, q._Qx), (proj.G, proj._Gy)]
            # rows 0 and 2 are scaled by a power of two first: at n = 1 they are
            # the unit rows -1 and 1 of G, with h = +inf and about 1e300
            faces = [(), (0,), (1,), (2,), (first,), (0, first), (1, first), (2, first)]
            for P in faces + [tuple(range(first, first + n))]:
                if len(P) <= n:
                    face = proj._face(P)
                    products.append((face[0], face[4]))
            if n == 1:  # every row of A zero: G is two rows 0 <= 0 over the 1 x 1 block -I
                proj = _Projector(np.zeros((2, 1)), np.ones(2))
                products.append((proj.G, proj._Gy))
            for M, product in products:
                assert M.flags.c_contiguous and M.flags.aligned, M
                for v in vectors:
                    v = np.resize(np.array(v), M.shape[1])
                    assert _bytes(product(v)) == _bytes(M @ v), (M, v)


@st.composite
def _stacks(draw):
    """(M, X): a C-ordered (lanes, r, n) stack of matrices and a (lanes, n) stack
    of vectors, entries from SPECIAL or moderate floats, n = 1 included."""
    lanes, r, n = draw(st.integers(1, 4)), draw(st.integers(1, 6)), draw(st.integers(1, 5))
    values = st.one_of(_entries, st.floats(-1e3, 1e3))
    M, X = (np.array(draw(st.lists(values, min_size=size, max_size=size)), dtype=float)
            for size in (lanes * r * n, lanes * n))
    return M.reshape(lanes, r, n), X.reshape(lanes, n)


def _lane_products(M: np.ndarray, X: np.ndarray) -> list:
    """solver._pg_lanes' products np.matmul(M, X[:, :, None])[:, :, 0], and each
    lane's own product problem._product(M_l)(x_l) on fresh copies, as bytes."""
    with np.errstate(all="ignore"):  # inf * 0 in matmul's loop
        got = np.matmul(M, X[:, :, None])[:, :, 0]
        return [(_bytes(got[l]), _bytes(_product(M[l].copy())(X[l].copy()))) for l in range(len(M))]


class TestStackedProducts:
    """A sweep steps the runs of all its endpoints in lock-step (solver._pg_lanes),
    taking every lane's products Qx and Gy at once as a stacked np.matmul on
    C-ordered (lanes, r, n) and (lanes, n) stacks.  Lane for lane that gives the
    bytes of the product solve_pg takes, problem._product: @ on one column, dot
    from two on.  A gemm over the stack, such as X @ Q.T, does not."""

    @given(_stacks())
    @example((np.array([[[1.0]], [[0.0]]]), np.array([[-0.0], [-5e-324]])))  # @ gives +0.0
    @example((np.array([[[0.0], [5e-324]]]), np.array([[-5e-324]])))  # dot's axpy can fuse
    @example((np.array([[[-0.0, 5e-324], [1.0, -1.0]]]), np.array([[-5e-324, -0.0]])))
    def test_each_lane_is_its_own_product(self, stacks):
        for got, want in _lane_products(*stacks):
            assert got == want

    @pytest.mark.parametrize("n", [1, 2, 5, 12, 80])
    def test_seeded_stacks(self, n):
        # the sizes the benchmark sweeps run (n = 2 to 80), r = m + n rows of G
        rng = np.random.default_rng(n)
        for _ in range(40):
            lanes, r = int(rng.integers(1, 10)), int(rng.integers(1, 2 * n + 2))
            M = rng.normal(size=(lanes, r, n)) * 10.0 ** rng.integers(-3, 4, size=(lanes, r, n))
            X = rng.normal(size=(lanes, n)) * 10.0 ** rng.integers(-3, 4, size=(lanes, n))
            for got, want in _lane_products(M, X):
                assert got == want


def _seeded(rng, shape) -> np.ndarray:
    """Normal entries scaled by 10^-3..10^3, as TestStackedProducts draws them."""
    return rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4, size=shape)


class TestStackedPrimitives:
    """A sweep sets up a block's endpoints at once (solver._setups) and reads the
    settled lanes of one face size at once (projector._project_lanes); each stacked
    call must give every element the bytes of the call solve_pg takes on it:
    eigvalsh over a stack of Q (solver._spectra) that of each matrix, the row
    norms einsum("lij,lij->li") over a stack of A (projector._row_stacks) the
    2-D einsum("ij,ij->i"), and G_P' mu, taken on a transposed view of a
    C-ordered (lanes, p, n) stack of G_P, a face's Gt @ mu, where Gt is the
    transpose of the C-ordered G_P.  A C-ordered copy of the transposes does
    not: it gave other bytes in 437 of 860 seeded draws at these sizes
    (numpy 2.4, OpenBLAS), as a gemm does in TestStackedProducts."""

    @pytest.mark.parametrize("n", [1, 2, 5, 12, 80])
    def test_stacked_eigvalsh(self, n):
        rng = np.random.default_rng(n)
        for _ in range(10 if n == 80 else 40):
            M = _seeded(rng, (int(rng.integers(1, 10)), n, n))
            S = M + M.transpose(0, 2, 1)
            got = np.linalg.eigvalsh(S)
            for l in range(len(S)):
                assert _bytes(got[l]) == _bytes(np.linalg.eigvalsh(S[l].copy()))

    @pytest.mark.parametrize("n", [1, 2, 5, 12, 80])
    def test_stacked_row_norms(self, n):
        rng = np.random.default_rng(n)
        for _ in range(40):
            A = _seeded(rng, (int(rng.integers(1, 10)), int(rng.integers(1, 2 * n + 2)), n))
            got = np.einsum("lij,lij->li", A, A)
            for l in range(len(A)):
                a = A[l].copy()
                assert _bytes(got[l]) == _bytes(np.einsum("ij,ij->i", a, a))

    @pytest.mark.parametrize("n", [1, 2, 5, 12, 80])
    def test_transposed_view_products(self, n):
        rng = np.random.default_rng(n)
        for _ in range(40):
            lanes, p = int(rng.integers(1, 10)), int(rng.integers(1, n + 1))
            G_P, mu = _seeded(rng, (lanes, p, n)), _seeded(rng, (lanes, p))
            got = np.matmul(G_P.transpose(0, 2, 1), mu[:, :, None])[:, :, 0]
            for l in range(lanes):
                Gt = G_P[l].copy().T  # a face's Gt, as _Projector._face builds it
                assert _bytes(got[l]) == _bytes(Gt @ mu[l].copy())


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
    every other row of a taller array, Fortran order, or at an address that
    is not a multiple of 8."""
    if kind == "negative":
        return np.ascontiguousarray(a[::-1])[::-1]
    if kind == "stepped":
        tall = np.zeros((2 * len(a),) + a.shape[1:])
        tall[::2] = a
        return tall[::2]
    if kind == "fortran":
        return np.asfortranarray(a)
    raw = np.zeros(a.nbytes + 1, dtype=np.uint8)
    out = np.ndarray(a.shape, float, raw, 1)
    out[...] = a
    assert not out.flags.aligned
    return out


@st.composite
def _boundary_case(draw):
    """(kind, c, Q, x, A, b): entries from the finite SPECIAL values or
    moderate floats (every public entry point rejects a NaN or an infinity),
    Q symmetric, x, A and b to be laid out as kind."""
    values = st.one_of(st.sampled_from([v for v in SPECIAL if np.isfinite(v)]), st.floats(-1e3, 1e3))
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    Q = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            Q[i, j] = Q[j, i] = draw(values)
    c, x = (np.array(draw(st.lists(values, min_size=n, max_size=n))) for _ in range(2))
    A = np.array(draw(st.lists(values, min_size=m * n, max_size=m * n))).reshape(m, n)
    b = np.array(draw(st.lists(values, min_size=m, max_size=m)))
    return draw(st.sampled_from(["negative", "stepped", "unaligned"])), c, Q, x, A, b


def _outcome(f, *args):
    """f(*args) as bytes, or the type and message of what it raised."""
    try:
        return np.asarray(f(*args)).tobytes()
    except (ValueError, RuntimeError) as e:
        return type(e), str(e)


class TestPublicFunctionsOnStridedInputs:
    """gradient, objective, project and CrispQP take any layout of their
    arrays and return the bytes of the aligned C-ordered copy: the public
    entry points copy every other layout to C order."""

    @pytest.mark.parametrize("kind", ["negative", "stepped"])
    def test_gradient_and_objective(self, kind):
        rng = np.random.default_rng(17)
        for _ in range(300):
            q = random_convex_qp(rng, n_max=6, m_max=4)
            x = _strided(rng.normal(size=q.n) * 10.0 ** rng.integers(-3, 4, size=q.n), kind)
            xc = np.ascontiguousarray(x)
            assert gradient(q, x).tobytes() == (q.c + q.Q @ xc).tobytes()
            assert objective(q, x) == float(q.c @ xc + 0.5 * (xc @ q.Q @ xc))

    @given(_boundary_case())
    @example(("negative", np.zeros(4),  # Qx of a reversed x can round its first entry
              np.array([[-1.0, -1e308, 5e-324, -1e308], [-1e308, 1e308, 3.0, 0.1],
                        [5e-324, 3.0, 0.0, 1e308], [-1e308, 0.1, 1e308, 0.1]]),
              np.array([0.0, -1.0, 1e308, 1.0]), np.ones((1, 4)), np.ones(1)))
    def test_every_layout_gives_c_order_bytes(self, case):
        kind, c, Q, x, A, b = case
        q = CrispQP(c, Q, A, b)
        with np.errstate(all="ignore"):  # 1e308 overflows, inf - inf
            for f, args, relaid in [
                (gradient, (q, x), (q, _strided(x, kind))),
                (objective, (q, x), (q, _strided(x, kind))),
                (project, (x, A, b), (_strided(x, kind), _strided(A, kind), _strided(b, kind))),
            ]:
                assert _outcome(f, *relaid) == _outcome(f, *args), f.__name__

    @pytest.mark.parametrize("kind", ["negative", "stepped", "fortran"])
    def test_project(self, kind):
        rng = np.random.default_rng(23)
        for _ in range(100):
            q = random_convex_qp(rng, n_max=6, m_max=4)
            x = rng.normal(size=q.n) * 3.0
            A, b = _strided(q.A, kind), _strided(q.b, kind)
            ref = _ReferenceProjector(np.ascontiguousarray(A), np.ascontiguousarray(b))
            want = x if ref.contains(x) else ref(x.copy())
            assert project(_strided(x, kind), A, b).tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind", ["negative", "stepped", "fortran"])
    def test_solve_pg(self, kind):
        """CrispQP copies Q and A to C order, so solve_pg's result does not
        depend on their layout: the row norms of A (einsum) and a product
        through dot sum in memory order."""
        rng = np.random.default_rng(31)
        for i in range(100):
            n, m = int(rng.integers(1, 9)), int(rng.integers(1, 9))
            M = rng.normal(size=(n, n))
            Q = M.T @ M + 0.1 * np.eye(n) if i % 2 else 0.5 * (M + M.T)
            A = np.vstack([rng.normal(size=(m, n)) * 10.0 ** rng.integers(-2, 3, size=(m, n)),
                           np.eye(n)])  # the box x <= 2 bounds every instance
            c, b = 3.0 * rng.normal(size=n), np.append(rng.uniform(0.1, 2.0, size=m), np.full(n, 2.0))
            want = solve_pg(CrispQP(c, Q, A, b))
            got = solve_pg(CrispQP(c, _strided(Q, kind), _strided(A, kind), b))
            assert (got.x.tobytes(), got.z, got.iterations, got.stationarity) == (
                want.x.tobytes(), want.z, want.iterations, want.stationarity)
