"""The enumeration oracle (solve_oracle): an independent check of solve_pg.

It enumerates active-set candidates, which yields the global optimum for
convex instances with n <= ORACLE_MAX_N, and reaches the projector only
through project: for its winner's stationarity and for the certificate of
an empty polyhedron.  It solves blocks of KKT systems by numpy's private
_umath_linalg.solve1, the gufunc behind np.linalg.solve:
one gesv per system both finds an exact zero pivot and solves, and a
singular system comes back as NaN where np.linalg.solve would raise.
"""
from __future__ import annotations

from math import comb, frexp

import numpy as np
from numpy.linalg._umath_linalg import solve1 as _solve1

from .problem import CrispQP, _read_only
from .projector import InfeasibleError, _max, _range_shift
from .solver import _TIE, QpSolution, SolverOptions, _least, _stationarity, _step_rule, objective, project

ORACLE_MAX_N = 8
# Stacked KKT matrices per batched solve in solve_oracle: 1 MB keeps the
# per-call overhead small without letting memory grow with C(m + n, n).
ORACLE_BLOCK_BYTES = 1 << 20
_U = np.finfo(float).eps / 2  # the unit roundoff


def solve_oracle(q: CrispQP, opts: SolverOptions | None = None) -> QpSolution:
    """Independent small-scale solve by enumerating active-set candidates.

    For every subset S of the m + n constraints (rows of A and the bounds
    x_j >= 0) with |S| <= n, the equality-constrained stationarity system

        [Q  E']  [x ]   [-c]
        [E  0 ]  [mu] = [ d]

    is solved, where E x = d pins the members of S.  Solutions that are
    finite, solve their system to a relative residual of 1e-8 and are
    feasible to 1e-9, row i of A to 1e-9 (1 + |b_i|), are kept (vertices
    arise as the |S| = n systems).  Of those within 1e-12 of the least
    objective, the lexicographically smallest x wins; x holds no -0.0.  For
    PSD Q this is the global optimum; for indefinite Q it is the best
    stationary/vertex point.

    Subsets that can yield no candidate are skipped: those holding a
    conflict pair (_conflict_pairs), two rows that pin one variable to
    values the residual filter never accepts together.  iterations still
    counts every subset of at most n constraints, skipped or solved.  The
    subsets are solved in blocks of about ORACLE_BLOCK_BYTES of stacked
    KKT matrices, and each solved block alone is expanded into blocks of
    the next size (_next_level): a stack holds at most one expansion per
    size, about n blocks of subsets times (m + n), so memory does not grow
    with C(m + n, n).  Only the candidates of a block whose batched
    objective could still win (_contenders) are kept, and the tie rule
    (_least) picks among them, whatever the order of the blocks.

    converged is True when the winner is a fixed point of the projected
    gradient map, stationarity <= 1e-8 * (1 + max|x|).  On an instance
    unbounded below the winner is only the best of finitely many
    candidates, not a stationary point, and converged is False.  An empty
    polyhedron raises InfeasibleError with the Farkas certificate that
    project finds.  Where the size of the KKT solutions, about
    max(|c_i|, |Q_ij|) / min(1, least nonzero |a_ij|), reaches 2^1000, the
    systems are those of c and Q times one power of two 2^j (_range_shift),
    never taking max(|c_i|, |Q_ij|) below 1.  That leaves their x as it is,
    and the step as 2^-j times the caller's (max(||c||, 1) is ||c|| on both
    sides), so stationarity and converged too; the residual filter and the
    conflict pairs judge the shifted system, and the objectives and the tie
    rule stay in the caller's units.  opts is a deprecated no-op, accepted
    for symmetry with solve_pg.
    """
    n, m = q.n, q.m
    if n > ORACLE_MAX_N:
        raise ValueError(f"enumeration oracle supports n <= {ORACLE_MAX_N}, got n = {n}")

    cq = float(_max(np.abs(q.Q), axis=None, initial=_max(np.abs(q.c))))
    a = float(np.minimum.reduce(np.abs(q.A), axis=None, where=q.A != 0, initial=0.5))
    e = frexp(cq)[1]  # max(|c|, |Q|) < 2^e; the shift keeps it at 1 or more
    j = max(_range_shift(e - frexp(a)[1]), min(0, 1 - e))
    qs = CrispQP._trusted(*_read_only(np.ldexp(q.c, j), np.ldexp(q.Q, j)), q.A, q.b) if j else q

    # Constraint catalogue: row i < m is row i of A, row m + j is x_j >= 0.
    rows = np.vstack([q.A, np.eye(n)])
    bounds = np.concatenate([q.b, np.zeros(n)])
    conflict = _conflict_pairs(qs, rows, bounds)
    pool, z_ref = [], np.inf  # the contenders as (x, z), and their least z
    stack = [np.empty((1, 0), dtype=np.intp)]  # blocks of subsets, first the one subset of size 0
    while stack:
        S = stack.pop()
        x = _kkt_candidates(qs, rows[S], bounds[S])
        for i in _contenders(q, x, z_ref):
            z = objective(q, x[i])
            pool.append((x[i], z))
            z_ref = min(z_ref, z)  # a NaN z leaves it
        if S.shape[1] < n:  # this block alone, expanded into blocks of the next size
            block = max(1, ORACLE_BLOCK_BYTES // (8 * (n + S.shape[1] + 1) ** 2))
            children = _next_level(S, conflict)
            stack += (children[i:i + block] for i in range(0, len(children), block))

    if not pool:
        project(np.zeros(n), q.A, q.b)  # an empty polyhedron raises with a certificate here
        raise InfeasibleError("no feasible stationary or vertex candidate found")
    best_x, best_z = _least(pool)

    step, convex = _step_rule(qs)
    stationarity = _stationarity(qs, best_x, step)
    return QpSolution(
        x=best_x, z=best_z, iterations=sum(comb(m + n, k) for k in range(n + 1)),
        converged=stationarity <= 1e-8 * (1.0 + float(np.max(np.abs(best_x)))),
        stationarity=stationarity, convex=convex,
    )


def _conflict_pairs(q: CrispQP, rows: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """(N, N) bool over the N rows of [A; I]: True where two rows have their
    one nonzero in the same column j and pin x_j to values d/a that no
    candidate of _kkt_candidates can meet together.

    Its residual filter keeps a solution only if every row of the computed
    residual is at most t = fl(1e-8 * (1 + max|rhs|)), and rhs = [-c; d]
    with d drawn from [b; 0], so t <= tau (1 + u)^2 with
    tau = 1e-8 * (1 + max(||c||, ||b||)) (infinity norms, u the unit
    roundoff).  A row pinning x_j by a x_j = d has the residual entry
    fl(fl(a x_j) - d): the other terms of its product with the KKT matrix
    are exact zeros.  So |fl(a x_j) - d| <= t / (1 - u), and with
    |a x_j - fl(a x_j)| <= u |a x_j|,

        |x_j - v| <= t / ((1 - u)^2 |a|) + u |v| / (1 - u) < 1.01 (tau / |a| + u |v|)

    for v = d / a.  Two rows both met by one x_j thus have
    |v1 - v2| < 1.01 (tau (1/|a1| + 1/|a2|) + u (|v1| + |v2|)).  The test
    below asks for more than twice that, 2 tau / |a| + 4 u |v| per row,
    which covers the rounding of v and of the test itself; the absolute
    term 4 * tiny covers results that fall below the normal range.  A NaN
    or infinite term never conflicts.  Rows that can both be met, such as
    equal pinned values, are never paired: pruning one of those subsets
    could change which rounding artefact wins a tie.
    """
    N = len(rows)
    nonzero = rows != 0
    j = nonzero.argmax(axis=1)
    col = np.where(nonzero.sum(axis=1) == 1, j, -1 - np.arange(N))  # no shared column unless single
    a = rows[np.arange(N), j]
    tau = 1e-8 * (1.0 + max(_max(np.abs(q.c), initial=0.0), _max(np.abs(q.b), initial=0.0)))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
        v = bounds / a
        reach = 2.0 * tau / np.abs(a) + 4.0 * _U * np.abs(v) + 4.0 * np.finfo(float).tiny
        return (col[:, None] == col[None, :]) & (
            np.abs(v[:, None] - v[None, :]) > reach[:, None] + reach[None, :]
        )


def _next_level(level: np.ndarray, conflict: np.ndarray) -> np.ndarray:
    """The subsets one larger than the rows of level, without those that
    hold a conflict pair.

    level holds increasing index rows in lexicographic order.  Each row is
    followed by every larger index in turn, which is the order of
    itertools.combinations, and a pruned subset is never extended, so no
    superset of a conflict pair is built.
    """
    k, s = level.shape
    last = level[:, -1] if s else np.full(k, -1)
    counts = len(conflict) - 1 - last
    parent = np.repeat(np.arange(k), counts)
    first = np.repeat(np.cumsum(counts) - counts, counts)  # where each parent's run starts
    added = last[parent] + 1 + (np.arange(len(parent)) - first)
    nxt = np.empty((len(parent), s + 1), dtype=np.intp)
    nxt[:, :s] = level[parent]
    nxt[:, s] = added
    return nxt[~conflict[nxt[:, :s], added[:, None]].any(axis=1)]


def _contenders(q: CrispQP, x: np.ndarray, z_ref: float) -> np.ndarray:
    """Indices of the candidates x (one per row, in order) that the tie rule
    (_least) could still pick, given z_ref, the least objective kept so far.

    z is taken here in one batched expression, whose value and objective()'s
    each lie within gamma_{2n+2} (|c|'|x| + 1/2 |x|'|Q||x|) of the exact
    objective; err is more than twice that bound.  So the least objective
    kept is at most ref = min(z_ref, min(z + err)), and a candidate whose z
    exceeds ref by more than _TIE + err can never be within _TIE of it.  A
    NaN z is kept, and with it the whole block.
    """
    n = x.shape[1]
    ax = np.abs(x)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is an inf or NaN, read below
        z = x @ q.c + 0.5 * ((x @ q.Q) * x).sum(axis=1)
        err = (8 * n + 32) * _U * (ax @ np.abs(q.c) + 0.5 * ((ax @ np.abs(q.Q)) * ax).sum(axis=1))
        ref = np.minimum.reduce(z + err, initial=z_ref)
        return np.flatnonzero(~(z - ref > _TIE + err))


def _kkt_candidates(q: CrispQP, E: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Feasible x of the stationarity systems pinned by the stacked (E, d), in order.

    E has shape (k, s, n) and d shape (k, s): k subsets of s constraints.
    """
    k, s, n = E.shape
    kkt = np.zeros((k, n + s, n + s))
    kkt[:, :n, :n] = q.Q
    kkt[:, :n, n:] = E.transpose(0, 2, 1)
    kkt[:, n:, :n] = E
    rhs = np.empty((k, n + s))
    rhs[:, :n] = -q.c
    rhs[:, n:] = d
    # One gesv per system; np.linalg.solve would raise on the first singular
    # one, its gufunc writes a NaN row for it, which the finite filter drops.
    with np.errstate(invalid="ignore", divide="ignore", over="ignore", under="ignore"):
        sol = _solve1(kkt, rhs, signature="dd->d")
    keep = np.isfinite(sol).all(axis=1)
    sol[~keep] = 0.0
    residual = np.abs((kkt @ sol[:, :, None])[:, :, 0] - rhs).max(axis=1)
    keep &= residual <= 1e-8 * (1.0 + np.abs(rhs).max(axis=1))
    x = sol[:, :n]
    keep &= (x >= -1e-9).all(axis=1) & (x @ q.A.T <= q.b + 1e-9 * (1.0 + np.abs(q.b))).all(axis=1)
    return x[keep] + 0.0  # each zero as +0.0, so x equal as lists are equal as bytes
