"""Crisp QP solving by fixed-step projected gradient (solve_pg).

The step is 1/K, where K is the spectral norm of Q, or 1/max(||c||, 1)
when Q = 0 (an LP).  One eigvalsh per crisp QP, in _spectrum (_spectra for
a stack), gives both K and whether Q is PSD.  Each step projects onto the feasible set
{Ax <= b, x >= 0} exactly (project; the method is fuzzyqp.projector's).

On tiny problems numpy's per-call overhead costs more than the arithmetic,
so a step makes as few numpy calls as give the same bits:
  - The kernel rule (problem._product): a matrix-vector product goes
    through ndarray.dot, which dispatches faster than @ and gives its
    bytes, from two columns on; a one-column product keeps @.  Arrays
    enter the package aligned and in C order (CrispQP, project and
    _vector copy any other layout), so no result depends on a caller's
    layout.  The product is chosen once per CrispQP (Qx), per projector
    (over G) and per face (Kx), never per call.
  - Exact comparisons scan Python lists: an iterate takes one projector
    call, whose one feasibility rule (each row within its tolerance plus
    the rounding slack 1e-12 max(|x|, |y|)) returns a point that meets the
    rows, and one _scan for divergence and convergence; faces are built on
    demand.
  - A sweep's endpoints do not depend on each other, so the work that
    changes no face is done for many at once, each stacked call giving
    every element the bytes of the call solve_pg takes on it
    (tests/test_kernels.py).  A block of endpoints is set up at once
    (_setups: one eigvalsh over the stack of nonzero Q, every projector's
    rows by _row_stacks), and the runs of its plain endpoints step in
    lock-step (_pg_lanes): one iterate of every run takes a few numpy
    calls on stacks, each product a stacked np.matmul, the same decisions
    on the stacked values, and one projection of every step at once (the
    projector's _project_lanes).  A plain endpoint has an unshifted
    projector and starts that are vectors of its n; solve_pg solves every
    other one, and every one whose set-up, runs or judgement raised
    (fuzzyqp.sweep).  solve_pg and the sweep set a run up (_setup) and
    judge its runs (_finish) by one code path, so a sweep's records are
    solve_pg's bytes.

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
from .projector import UnboundedError, _all, _max, _project_lanes, _Projector, _row_stacks

UNBOUNDED_LIMIT = 1e8
# Objectives within _TIE of the least one tie; the smallest x wins (_least).
_TIE = 1e-12
_any = np.logical_or.reduce


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
    """(K, convex) from one eigvalsh: the spectral norm and PSD-ness of Q,
    _spectra's one-element case.

    The zero matrix takes no eigvalsh: K = 0.0, and it counts as convex.
    This is the one zero test of Q; callers read K = 0 as Q = 0.  A Q that
    is not a square matrix raises ValueError.
    """
    Q = np.asarray(Q, dtype=float)
    if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
        raise ValueError(f"Q must be a square matrix, got shape {Q.shape}")
    return _spectra(Q[None])[0]


def _spectra(Qs: np.ndarray) -> list:
    """_spectrum of each matrix of a stack, from one eigvalsh over the stack of
    the nonzero ones, which gives each matrix's own bytes (tests/test_kernels.py)."""
    q_max = _max(np.abs(Qs).reshape(len(Qs), -1), axis=1, initial=0.0).tolist()
    out = [(0.0, True)] * len(Qs)
    nonzero = [l for l, v in enumerate(q_max) if v]  # a NaN entry is no zero
    if nonzero:
        eig = np.linalg.eigvalsh(Qs[nonzero])
        # ascending: max|eig| is at an end
        for l, lo, hi in zip(nonzero, eig[:, 0].tolist(), eig[:, -1].tolist()):
            out[l] = max(abs(lo), abs(hi)), lo >= -1e-10 * max(1.0, q_max[l])
    return out


def _step_rule(q: CrispQP, spectrum: tuple | None = None) -> tuple[float, bool]:
    """(step, convex): step 1/K, or 1/max(||c||, 1) when K = 0 (Q = 0, an LP),
    taken as 2^-e / max(||c 2^-e||, 2^-e) with 2^e from max|c|: an exact
    shift of the same, so ||c|| cannot overflow.  spectrum is Q's (K, convex)
    where a block's were taken at once (_spectra)."""
    K, convex = spectrum or _spectrum(q.Q)
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

    A point that meets every row by the projector's one feasibility rule,
    a_i.x - b_i <= 1e-12 (||a_i|| + |b_i| + ||a_i|| max|x|) and x_j >=
    -1e-12 (1 + max|x|): its own tolerance plus x's rounding, is returned
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


def _setup(q: CrispQP, opts: SolverOptions, spectrum: tuple | None = None,
           rows: tuple | None = None) -> tuple:
    """A solve's set-up: (step, convex, warm, starts), with warm the projector
    its runs share and starts the points they start from, not yet projected
    (_start): the multistart points, or the origin and, for an indefinite Q,
    the 8 default ones; a convex Q keeps the first only.  spectrum and rows
    are q's (K, convex) and projector rows where a block's set-ups were taken
    at once (_setups)."""
    step, convex = _step_rule(q, spectrum)
    if opts.multistart is not None:
        starts = opts.multistart
    elif convex:
        starts = [np.zeros(q.n)]  # the first default start; the random ones serve indefinite Q
    else:
        starts = _default_starts(q, opts)
    return step, convex, _Projector(q.A, q.b, rows), starts[:1] if convex else starts


def _setups(qs: list, opts: SolverOptions) -> list:
    """_setup of each crisp QP of one n and m, its starts as vectors of its n,
    taken as stacks: one eigvalsh over the nonzero Q (_spectra) and every
    projector's rows at once (_row_stacks).  None marks an endpoint that the
    lanes (_pg_lanes) do not serve: one whose set-up raised, whose projector
    is shifted or whose starts are not vectors of its n, and every one should
    the stacked eigvalsh raise; solve_pg solves it (fuzzyqp.sweep)."""
    try:
        spectra = _spectra(np.array([q.Q for q in qs]))
    except np.linalg.LinAlgError:
        return [None] * len(qs)
    rows = _row_stacks(np.array([q.A for q in qs]), np.array([q.b for q in qs]))
    out = []
    for l, (q, spectrum) in enumerate(zip(qs, spectra)):
        try:
            step, convex, warm, starts = _setup(q, opts, spectrum, tuple(r[l] for r in rows))
            starts = [_vector(x0, q.c.shape, "start point") for x0 in starts]
            out.append(None if warm._j else (step, convex, warm, starts))
        except Exception:  # solve_pg raises it again (fuzzyqp.sweep)
            out.append(None)
    return out


def _start(q: CrispQP, x0, warm: _Projector) -> np.ndarray:
    """A run's start: x0 projected from the empty face, which leaves warm
    holding the face it ended on, so no run's bits depend on the run before."""
    warm._held = None
    return project(_vector(x0, q.c.shape, "start point"), q.A, q.b, _warm=warm)


def _finish(q: CrispQP, runs: list, step: float, convex: bool, warm: _Projector) -> QpSolution:
    """A solve's verdict on its runs, each (x, iterations, converged, the face
    its projector held at the end): the tie rule (_least) over the converged
    runs, or over all if none converged, and the winner's stationarity, taken
    from the face its own run ended on."""
    runs = [(x, objective(q, x), *rest) for x, *rest in runs]
    x, z, iters, converged, warm._held = _least([run for run in runs if run[3]] or runs)
    return QpSolution(
        x=x, z=z, iterations=iters, converged=converged,
        stationarity=_stationarity(q, x, step, warm), convex=convex,
    )


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
    step, convex, warm, starts = _setup(q, opts)
    runs = []
    for x0 in starts:
        x, iters, converged = _pg_run(q, _start(q, x0, warm), step, opts, callback, warm)
        runs.append((x, iters, converged, warm._held))
    return _finish(q, runs, step, convex, warm)


def _pg_lanes(endpoints: list, opts: SolverOptions) -> list:
    """_pg_run on every start of every endpoint at once, in lock-step and bit
    for bit: a sweep's solves (fuzzyqp.sweep), callback None.

    endpoints holds (q, _setups' set-up of q) per crisp QP of one n and m,
    the set-up None where the lanes do not serve q.  Each start is a lane,
    which carries the face it holds; the lanes of one endpoint share its
    projector.  The starts are projected at once, each from the empty face
    as _start projects it.  One iterate over the active lanes takes
    y = x - step (c + Qx), each product a stacked np.matmul on C-ordered
    (lanes, r, n) stacks, which gives problem._product's bytes lane for lane
    (tests/test_kernels.py), and projects every y at once (the projector's
    _project_lanes).  A lane whose y is then not within UNBOUNDED_LIMIT
    fails its endpoint, which solve_pg solves again, and the convergence test
    is _scan's on the stack.  A lane leaves the stacks when it converges or
    reaches max_iter, as _pg_run returns.

    Returns, per endpoint, its runs (x, iterations, converged, the face its
    lane held at the end) in start order, or None where it was not served or
    any of its starts or runs raised.
    """
    out, lanes, warms, rows = [], [], [], []  # lanes (endpoint, run), rows their stacked data
    for e, (q, set_up) in enumerate(endpoints):
        out.append(None)
        if set_up is None:
            continue
        step, _, warm, starts = set_up
        out[e] = [None] * len(starts)
        for i, x0 in enumerate(starts):
            lanes.append((e, i))
            warms.append(warm)
            rows.append((x0, q.c, q.Q, [step], warm.G, warm._top))
    if not lanes:
        return out
    faces = [None] * len(lanes)  # each lane's held face, the empty face at first
    X, C, Q, S, G, top = map(np.array, zip(*rows))
    tol = float(opts.tol)
    for k in range(-1, opts.max_iter):  # k = -1 projects the starts
        # one lane's overflow warns for no other; an endpoint that fails is solved again (sweep)
        with np.errstate(all="ignore"):
            Y = X if k < 0 else X - S * (C + np.matmul(Q, X[:, :, None])[:, :, 0])
        failed = {lanes[l][0] for l in _project_lanes(Y, warms, faces, G, top)}
        if k < 0:
            done = np.zeros(len(lanes), dtype=bool)
        else:
            with np.errstate(invalid="ignore"):
                fine = _all(np.abs(Y) <= UNBOUNDED_LIMIT, axis=1)
                done = _all(np.abs(Y - X) <= tol, axis=1)
            if not _all(fine):
                failed.update(lanes[l][0] for l in (~fine).nonzero()[0].tolist())
        for e in failed:
            out[e] = None
        last = k + 1 == opts.max_iter
        if last or failed or _any(done):
            for l in range(len(lanes)) if last else done.nonzero()[0].tolist():
                e, i = lanes[l]
                if out[e] is not None:  # as _pg_run returns, with the face the run ended on
                    iters = k + 1 if done[l] else opts.max_iter
                    out[e][i] = (Y[l].copy(), iters, bool(done[l]), faces[l])
            if last:
                break
            keep = ~done
            if failed:
                keep &= [e not in failed for e, _ in lanes]
            kept = keep.nonzero()[0]
            if not len(kept):
                break
            X, C, Q, S, G, top = (a[kept] for a in (Y, C, Q, S, G, top))
            lanes, warms, faces = ([a[l] for l in kept.tolist()] for a in (lanes, warms, faces))
        else:
            X = Y
    return out


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
