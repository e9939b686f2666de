"""Crisp QP solving by fixed-step projected gradient (solve_pg).

The step is 1/K, where K is the spectral norm of Q, or 1/max(||c||, 1)
when Q = 0 (an LP).  One eigvalsh per crisp QP, in _spectrum, gives both K
and whether Q is PSD.  Each step projects onto the feasible set
{Ax <= b, x >= 0} exactly (project; the method is fuzzyqp.projector's).

On tiny problems numpy's per-call overhead costs more than the arithmetic,
so a step makes as few numpy calls as give the same bits:
  - The kernel rule (problem._product): a matrix-vector product goes
    through ndarray.dot, which dispatches faster than @ and gives its
    bytes, from two columns on; a one-column product keeps @.  Arrays
    enter the package aligned and in C order (CrispQP, project and
    _vector copy any other layout), so no result depends on a caller's
    layout.  The product is chosen once per CrispQP (Qx), per projector
    (over G's rows of A, and over all of G) and per face (Kx), never per call.
  - Exact comparisons scan Python lists: an iterate takes one projector
    call, whose one feasibility rule (each row within its tolerance)
    returns a point that meets the rows, and one _scan for divergence and
    convergence; faces are built on demand.

An indefinite Q runs 9 starts: the origin and the 8 rows of
numpy.random.default_rng(seed).uniform(0, max(1, max|b|), (8, n)), drawn
by a pure-Python copy of that stream (_pcg64) with numpy's bits, so no
solve imports numpy.random and the points are the same on every numpy
version.  The enumeration oracle that checks solve_pg is fuzzyqp.oracle.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import frexp, isfinite, ldexp
from typing import Callable

import numpy as np

from ._pcg64 import uniform
from .problem import CrispQP, _rows, check_finite
from .projector import UnboundedError, _max, _Projector

UNBOUNDED_LIMIT = 1e8
# Objectives within _TIE of the least one tie; the smallest x wins (_least).
_TIE = 1e-12


@dataclass(frozen=True)
class SolverOptions:
    """Tuning knobs for solve_pg and project.

    multistart is an optional explicit list of start points; when None,
    indefinite instances use the origin plus 8 pseudorandom points, each
    projected onto the feasible set: the stream of
    numpy.random.default_rng(seed).uniform(0, max(1, max|b|), (8, n)),
    drawn without importing numpy.random and the same on every numpy
    version (fuzzyqp._pcg64).  Convex instances
    always run a single start (the first multistart point if given, else
    the origin).

    projection_tol and projection_max_sweeps are deprecated no-ops: they
    are still validated but change no result, since projections are exact
    and finite.  __post_init__ is the one check of every value, the CLI's
    flags included: a NaN or infinite tol or point raises, as do seed < 0
    and a count or seed that is not an integer (a bool is none; a numpy
    integer is one).
    """

    tol: float = 1e-9
    max_iter: int = 100_000
    multistart: tuple[tuple[float, ...], ...] | None = None
    projection_tol: float = 1e-10
    projection_max_sweeps: int = 10_000
    seed: int = 0

    def __post_init__(self):
        for name in ("max_iter", "projection_max_sweeps", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if not 0 < self.tol < np.inf:  # False for a NaN too
            raise ValueError("tol must be positive and finite")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if not 0 < self.projection_tol < np.inf:
            raise ValueError("projection_tol must be positive and finite")
        if self.projection_max_sweeps < 1:
            raise ValueError("projection_max_sweeps must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.multistart is not None:
            pts = tuple(tuple(float(v) for v in p) for p in self.multistart)
            if not pts or not all(np.isfinite(p).all() for p in pts):
                raise ValueError("multistart must contain at least one point, all finite")
            object.__setattr__(self, "multistart", pts)


@dataclass(frozen=True)
class QpSolution:
    """Solver outcome: argmin, value, and diagnostics.

    stationarity is the fixed-point residual ||x - P(x - step * grad)||_inf
    of the projected-gradient map at x; convex records whether Q was PSD
    within tolerance.
    """

    x: np.ndarray
    z: float
    iterations: int
    converged: bool
    stationarity: float
    convex: bool


def _vector(x, shape: tuple[int], name: str) -> np.ndarray:
    """x as an aligned C-ordered float array of the given shape, (n,) for a
    vector, copied only if it is not one already, so that no product's
    rounding depends on the caller's layout."""
    x = np.asarray(x, dtype=float)
    if x.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {x.shape}")
    flags = x.flags
    return x if flags.c_contiguous and flags.aligned else x.copy()


def objective(q: CrispQP, x) -> float:
    """c'x + (1/2) x'Qx.

    When the float sum at a finite x is not finite, as when a term
    overflows, the exact sum is rounded instead: to +-inf if it lies beyond
    the float range.
    """
    x = _vector(x, q.c.shape, "x")
    with np.errstate(over="ignore", invalid="ignore"):
        z = float(q.c @ x + 0.5 * (x @ q.Q @ x))
    if not isfinite(z) and np.isfinite(x).all():
        from fractions import Fraction  # only here, so no other path imports it

        v = [Fraction(e) for e in x.tolist()]
        exact = sum(Fraction(ci) * vi for ci, vi in zip(q.c.tolist(), v)) + sum(
            Fraction(qij) * vi * vj
            for row, vi in zip(q.Q.tolist(), v) for qij, vj in zip(row, v)
        ) / 2
        try:
            z = float(exact)
        except OverflowError:
            z = np.inf if exact > 0 else -np.inf
    return z


def gradient(q: CrispQP, x) -> np.ndarray:
    """c + Qx."""
    return q.c + q._Qx(_vector(x, q.c.shape, "x"))


def lipschitz_constant(Q) -> float:
    """Spectral norm of a symmetric matrix; 1.0 for the zero matrix.

    One eigvalsh per crisp QP gives both K and convexity (see _spectrum).
    """
    return _spectrum(Q)[0] or 1.0


def is_convex(Q) -> bool:
    """Whether the symmetric matrix Q is PSD within a small relative tolerance."""
    return _spectrum(Q)[1]


def _spectrum(Q) -> tuple[float, bool]:
    """(K, convex) from one eigvalsh: the spectral norm and PSD-ness of Q.

    The zero matrix takes no eigvalsh: K = 0.0, and it counts as convex.
    This is the one zero test of Q; callers read K = 0 as Q = 0.
    """
    Q = np.asarray(Q, dtype=float)
    q_max = float(_max(np.abs(Q), axis=None, initial=0.0))
    if not q_max:  # Q = 0; a NaN entry is no zero
        return 0.0, True
    eig = np.linalg.eigvalsh(Q)
    lo, hi = float(eig[0]), float(eig[-1])  # ascending: max|eig| is at an end
    return max(abs(lo), abs(hi)), lo >= -1e-10 * max(1.0, q_max)


def _step_rule(q: CrispQP) -> tuple[float, bool]:
    """(step, convex): step 1/K, or 1/max(||c||, 1) when K = 0 (Q = 0, an LP),
    taken as 2^-e / max(||c 2^-e||, 2^-e) with 2^e from max|c|: an exact
    shift of the same, so ||c|| cannot overflow."""
    K, convex = _spectrum(q.Q)
    if K:
        return 1.0 / K, convex
    e = frexp(float(_max(np.abs(q.c))))[1]
    return ldexp(1.0 / max(float(np.linalg.norm(np.ldexp(q.c, -e))), ldexp(1.0, -e)), -e), convex


def _stationarity(q: CrispQP, x: np.ndarray, step: float,
                  warm: _Projector | None = None) -> float:
    """Fixed-point residual ||x - P(x - step * grad)||_inf of the PG map."""
    y = project(x - step * gradient(q, x), q.A, q.b, _warm=warm)
    return float(_max(np.abs(x - y)))


def project(x, A, b, opts: SolverOptions | None = None,
            _warm: _Projector | None = None) -> np.ndarray:
    """Exact Euclidean projection of x onto {y: Ay <= b, y >= 0}: the
    boundary checks, then one call of a _Projector, the whole projection.

    A point that meets every row within that row's own tolerance,
    a_i.x - b_i <= 1e-12 (||a_i|| + |b_i|) and x_j >= -1e-12, is returned
    unchanged.  Otherwise the projection's dual is solved by a finite
    active-set method (see _Projector), so the result satisfies the KKT
    conditions up to rounding.  An empty polyhedron raises
    InfeasibleError carrying a Farkas certificate; a projection that lies
    beyond the float range raises it with certificate None.  An x that is
    not a nonempty vector raises ValueError, as do a misshapen A or b and
    a NaN or infinite entry in x, A or b, in CrispQP's words.  opts is a
    deprecated no-op, accepted for compatibility.  _warm is a _Projector
    built from the same A and b, which carries the active set from one
    call to the next.
    """
    if _warm is None:
        x = np.asarray(x, dtype=float).copy()
        if x.ndim != 1 or not x.size:
            raise ValueError(f"x must be a nonempty vector, got shape {x.shape}")
        A, b = _rows(A, b, x.shape[0])
        check_finite(x=x, A=A, b=b)
        _warm = _Projector(A, b)
    return _warm(x)


def _scan(u: list, v: list, limit: float, tol: float) -> tuple[bool, bool]:
    """(max|u| > limit, max|u - v| <= tol): solve_pg's divergence and
    convergence tests in one pass, each deciding as numpy's reduction does,
    as the projector's scans do (fuzzyqp.projector)."""
    beyond, near = False, True
    for a, b in zip(u, v):
        if not abs(a) <= limit:  # beyond the limit, or NaN
            if a != a:
                return False, False  # numpy's max|u| and max|u - v| are NaN
            beyond = True
        if near and not abs(a - b) <= tol:
            near = False
    return beyond, near


def _default_starts(q: CrispQP, opts: SolverOptions) -> list[np.ndarray]:
    """The origin and the 8 pseudorandom points of the module docstring."""
    scale = max(1.0, float(np.max(np.abs(q.b))) if q.b.size else 1.0)
    return [np.zeros(q.n), *np.array(uniform(opts.seed, scale, 8, q.n))]


def _pg_run(q, x0, step, opts, callback, warm):
    x = x0
    if callback is not None:
        callback(x)
    tol = float(opts.tol)  # a Python float compared with a float32 tol would round to float32
    v = x.tolist()  # x as the checks take it, once per iterate
    for k in range(opts.max_iter):
        y = x - step * gradient(q, x)
        x_new = project(y, q.A, q.b, _warm=warm)
        if callback is not None:
            callback(x_new)
        v_new = x_new.tolist()
        beyond, near = _scan(v_new, v, UNBOUNDED_LIMIT, tol)
        if beyond:
            raise UnboundedError(
                f"iterate magnitude exceeded {UNBOUNDED_LIMIT:.0e}; "
                "instance appears unbounded below"
            )
        if near:
            return x_new, k + 1, True
        x, v = x_new, v_new
    return x, opts.max_iter, False


def solve_pg(
    q: CrispQP,
    opts: SolverOptions | None = None,
    callback: Callable[[np.ndarray], None] | None = None,
) -> QpSolution:
    """Fixed-step projected gradient descent on a crisp QP.

    The step is 1/K with K the spectral norm of Q (for Q = 0 the instance
    is an LP and the step falls back to 1/max(||c||, 1)).  A PSD Q runs a
    single start; an indefinite Q runs every multistart point.  Of the
    converged runs (all runs if none converged) within 1e-12 of the least
    objective, the one with the lexicographically smallest x is returned,
    whatever the order of the starts.  Non-convergence is reported via the
    converged flag, never hidden.
    """
    opts = opts or SolverOptions()
    step, convex = _step_rule(q)

    if opts.multistart is not None:
        starts = opts.multistart
    elif convex:
        starts = [np.zeros(q.n)]  # the first default start; the random ones serve indefinite Q
    else:
        starts = _default_starts(q, opts)
    if convex:
        starts = starts[:1]

    warm = _Projector(q.A, q.b)
    runs = []
    for x0 in starts:
        warm._held = None  # from the empty face: no run's bits depend on the run before
        x0 = project(_vector(x0, q.c.shape, "start point"), q.A, q.b, _warm=warm)
        x, iters, converged = _pg_run(q, x0, step, opts, callback, warm)
        runs.append((x, objective(q, x), iters, converged, warm._held))

    # the winner's stationarity is taken from the face its own run ended on
    x, z, iters, converged, warm._held = _least([run for run in runs if run[3]] or runs)
    return QpSolution(
        x=x, z=z, iterations=iters, converged=converged,
        stationarity=_stationarity(q, x, step, warm), convex=convex,
    )


def _least(candidates: list) -> tuple:
    """The tie rule of both solvers, over a set of (x, z, ...) tuples: of the
    candidates whose z lies within _TIE of the least z, the one with the
    lexicographically smallest x, the first of those on an exact tie.  A
    NaN z is never near the least, unless every z is NaN."""
    z_min = min((c[1] for c in candidates if c[1] == c[1]), default=np.nan)
    near = [c for c in candidates if c[1] <= z_min + _TIE] or candidates
    return min(near, key=lambda c: c[0].tolist())  # tolist orders as tuple(x), faster



# Last, as fuzzyqp.oracle imports from this module: perfbench/workloads.py and
# tracing.TARGETS read fuzzyqp.solver.solve_oracle (ROADMAP item 13 removes the need).
from .oracle import solve_oracle  # noqa: E402,F401
