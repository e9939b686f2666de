"""Freeze the reference objective values of the convex-grow pool.

    python3 perfbench/freeze.py

Solves every pool problem with fuzzyqp at the levels 0, 0.5 and 1 and
keeps a value only after an independent numpy KKT check of its argmin:
active-set multipliers fitted by least squares must be nonnegative and
leave a small stationarity residual.  Writes reference/convex-grow.json.
Rerun only when the pool generator in workloads.py changes.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads as wl  # noqa: E402

ACTIVE_TOL = 1e-6
KKT_TOL = 1e-6


def kkt_residual(c, Q, A, b, x) -> float:
    """Scaled KKT residual of x for min c'x + x'Qx/2 s.t. Ax <= b, x >= 0.

    Fits multipliers of the constraints active at x by least squares,
    g + A_S' mu - nu_T = 0, and returns the largest of the stationarity
    residual, the most negative multiplier and the constraint violation,
    each relative to max(1, |g|_inf).
    """
    g = Q @ x + c
    scale = max(1.0, float(np.max(np.abs(g))))
    rows = np.flatnonzero(A @ x - b >= -ACTIVE_TOL)
    bounds = np.flatnonzero(x <= ACTIVE_TOL)
    G = np.hstack([A[rows].T, -np.eye(len(x))[:, bounds]])
    if G.shape[1]:
        mult = np.linalg.lstsq(G, -g, rcond=None)[0]
        stationarity = float(np.max(np.abs(G @ mult + g)))
        negative = float(max(0.0, -np.min(mult)))
    else:
        stationarity, negative = float(np.max(np.abs(g))), 0.0
    violation = float(max(0.0, np.max(A @ x - b), np.max(-x)))
    return max(stationarity, negative, violation) / scale


def main() -> int:
    from fuzzyqp import parse_problem, solve_fqp

    total = wl.CONVEX_PER_SIZE * len(wl.CONVEX_SIZES)
    values, worst = [], 0.0
    for k in range(total):
        doc = wl.convex_grow_problem(k)
        t = wl.triples(doc)
        curve = solve_fqp(parse_problem(json.dumps(doc)), wl.CONVEX_LEVELS)
        row = []
        for r in curve.records:
            for side, sol in ((0, r.lower_diag), (1, r.upper_diag)):
                c, Q, A, b = wl.endpoint_qp(t, r.alpha, side)
                res = kkt_residual(c, Q, A, b, sol.x)
                if not sol.converged or not sol.convex or res > KKT_TOL:
                    print(f"problem {k} alpha {r.alpha} side {side}: "
                          f"converged={sol.converged} convex={sol.convex} kkt={res:.2e}",
                          file=sys.stderr)
                    return 1
                worst = max(worst, res)
                row.append(sol.z)
        values.append(row)
    out = {
        "pool_seed": wl.POOL_SEED,
        "per_size": wl.CONVEX_PER_SIZE,
        "sizes": [list(s) for s in wl.CONVEX_SIZES],
        "levels": list(wl.CONVEX_LEVELS),
        "columns": "z_lower, z_upper per level",
        "kkt_max_residual": worst,
        "z": values,
    }
    path = HERE / "reference" / "convex-grow.json"
    path.write_text(json.dumps(out, separators=(",", ":")) + "\n", encoding="utf-8")
    print(f"wrote {total} problems to {path.relative_to(HERE.parent)}; "
          f"max KKT residual {worst:.2e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
