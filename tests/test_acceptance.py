"""Acceptance suite: every release criterion, one test and one verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
"""
import subprocess
import sys
import time

import numpy as np

from helpers import (
    FIXTURE_PATH,
    TABLE_ALPHAS,
    TABLE_Z_LOWER,
    TABLE_Z_UPPER,
    Z_AT_1,
    Z_LOWER_AT_0,
    Z_UPPER_AT_0,
    crisp_problem,
    random_convex_qp,
)

from fuzzyqp import (
    CrispQP,
    Interval,
    SolverOptions,
    TriangularFuzzyNumber,
    gradient,
    lower_qp,
    objective,
    project,
    solve_oracle,
    solve_pg,
)
from fuzzyqp.cli import main

FIXTURE = str(FIXTURE_PATH)


def _verdict(num: int, ok: bool, description: str):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {num}: {description}"


def _run_fixture_csv(tmp_path, alphas="0:1:0.2"):
    out = tmp_path / "acceptance.csv"
    code = main(["solve", "--input", FIXTURE, "--alphas", alphas,
                 "--format", "csv", "--output", str(out)])
    rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
    return code, rows


def test_criterion_1_table_reproduction(tmp_path):
    t0 = time.perf_counter()
    code, rows = _run_fixture_csv(tmp_path)
    elapsed = time.perf_counter() - t0
    z_lower = np.array([float(r[1]) for r in rows])
    z_upper = np.array([float(r[2]) for r in rows])
    ok = (
        code == 0
        and list(map(float, (r[0] for r in rows))) == list(TABLE_ALPHAS)
        and np.allclose(z_lower, TABLE_Z_LOWER, atol=1e-2)
        and np.allclose(z_upper, TABLE_Z_UPPER, atol=1e-2)
        and abs(z_lower[0] - Z_LOWER_AT_0) <= 1e-6
        and abs(z_upper[0] - Z_UPPER_AT_0) <= 1e-6
        and abs(z_lower[-1] - Z_AT_1) <= 1e-6
        and abs(z_upper[-1] - Z_AT_1) <= 1e-6
        and elapsed < 1.0
    )
    _verdict(1, ok, (
        "six-level sweep matches the reference objective rows within 1e-2, "
        f"support/mode exact to 1e-6, in {elapsed:.3f}s"
    ))


def test_criterion_2_coincidence_at_top(tmp_path):
    _, rows = _run_fixture_csv(tmp_path)
    gap = abs(float(rows[-1][1]) - float(rows[-1][2]))
    _verdict(2, gap <= 1e-6, f"|z_lower - z_upper| at level 1 is {gap:.2e} <= 1e-6")


def test_criterion_3_oracle_equivalence():
    rng = np.random.default_rng(20240817)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        q = random_convex_qp(rng, n_max=4, m_max=4)
        gap = abs(solve_pg(q).z - solve_oracle(q).z)
        worst = max(worst, gap)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 10.0
    _verdict(3, ok, (
        f"100 convex instances: worst |z_pg - z_oracle| = {worst:.2e} <= 1e-6 "
        f"in {elapsed:.2f}s"
    ))


def test_criterion_4_nonconvex_handling(example_problem):
    q = lower_qp(example_problem, 0.0)
    s = solve_pg(q)
    feasible = bool(np.all(s.x >= -1e-8) and np.all(q.A @ s.x <= q.b + 1e-8))
    gap = abs(s.z - Z_LOWER_AT_0)
    ok = (not s.convex) and gap <= 1e-4 and feasible
    _verdict(4, ok, (
        f"indefinite level-0 lower QP: multistart value within {gap:.2e} of "
        "-4.0833..., argmin feasible within 1e-8"
    ))


def test_criterion_5_projection_properties():
    rng = np.random.default_rng(5150)
    # project() is exact, so projection_max_sweeps has no effect; it is still
    # accepted, and thin wedges among the random polyhedra need no budget
    opts = SolverOptions(projection_max_sweeps=500_000)
    worst_idem = 0.0
    worst_expand = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, 6))
        A = rng.normal(size=(m, n))
        b = rng.uniform(0.1, 2.0, size=m)
        x = 3.0 * rng.normal(size=n)
        y = 3.0 * rng.normal(size=n)
        px = project(x, A, b, opts)
        py = project(y, A, b, opts)
        worst_idem = max(worst_idem, float(np.max(np.abs(project(px, A, b, opts) - px))))
        worst_expand = max(
            worst_expand,
            float(np.linalg.norm(px - py) - np.linalg.norm(x - y)),
        )
    ok = worst_idem <= 1e-8 and worst_expand <= 1e-8
    _verdict(5, ok, (
        f"1000 pairs: idempotence defect {worst_idem:.2e}, "
        f"expansion excess {worst_expand:.2e}, both <= 1e-8"
    ))


def test_criterion_6_gradient_check():
    rng = np.random.default_rng(606)
    h = 1e-6
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 7))
        M = rng.normal(size=(n, n))
        q = CrispQP(c=rng.normal(size=n), Q=M + M.T, A=rng.normal(size=(1, n)), b=[1.0])
        x = rng.normal(size=n)
        g = gradient(q, x)
        for i in range(n):
            e = np.zeros(n)
            e[i] = h
            fd = (objective(q, x + e) - objective(q, x - e)) / (2 * h)
            worst = max(worst, abs(g[i] - fd) / max(1.0, abs(fd)))
    _verdict(6, worst <= 1e-6,
             f"100 instances: worst relative gradient error vs central "
             f"differences {worst:.2e} <= 1e-6")


def test_criterion_7_fuzzy_core_properties():
    rng = np.random.default_rng(707)

    def random_tfn():
        return TriangularFuzzyNumber(*np.sort(rng.uniform(-50.0, 50.0, size=3)))

    nesting_ok = endpoint_ok = duality_ok = containment_ok = True
    for _ in range(1000):
        t = random_tfn()
        a1, a2 = np.sort(rng.uniform(0.0, 1.0, size=2))
        outer, inner = t.alpha_cut(a1), t.alpha_cut(a2)
        nesting_ok &= outer.lo <= inner.lo + 1e-12 and inner.hi <= outer.hi + 1e-12

        support, core = t.alpha_cut(0.0), t.alpha_cut(1.0)
        endpoint_ok &= support == Interval(t.a1, t.a3)
        endpoint_ok &= abs(core.lo - t.a2) <= 1e-12 and abs(core.hi - t.a2) <= 1e-12

        alpha = float(rng.uniform(0.0, 1.0))
        cut = t.alpha_cut(alpha)
        x = float(rng.uniform(cut.lo, cut.hi)) if cut.hi > cut.lo else cut.lo
        duality_ok &= t.membership(x) >= alpha - 1e-12

        a = Interval(*np.sort(rng.uniform(-20.0, 20.0, size=2)))
        b = Interval(*np.sort(rng.uniform(-20.0, 20.0, size=2)))
        u = float(rng.uniform(a.lo, a.hi)) if a.hi > a.lo else a.lo
        v = float(rng.uniform(b.lo, b.hi)) if b.hi > b.lo else b.lo
        k = float(rng.uniform(-5.0, 5.0))
        s, p, sc = a + b, a * b, a.scale(k)
        containment_ok &= s.lo <= u + v <= s.hi
        containment_ok &= p.lo <= u * v <= p.hi
        containment_ok &= sc.lo <= k * u <= sc.hi

    ok = nesting_ok and endpoint_ok and duality_ok and containment_ok
    _verdict(7, ok, (
        "1000-case suites: nesting "
        f"{'ok' if nesting_ok else 'FAILED'}, endpoints "
        f"{'ok' if endpoint_ok else 'FAILED'}, duality "
        f"{'ok' if duality_ok else 'FAILED'}, containment "
        f"{'ok' if containment_ok else 'FAILED'}"
    ))


def test_criterion_8_crisp_degeneracy():
    from fuzzyqp import solve_fqp

    p = crisp_problem()
    crisp_opt = solve_oracle(lower_qp(p, 0.0)).z
    grid = [round(0.1 * k, 12) for k in range(11)]
    curve = solve_fqp(p, grid)
    worst = max(
        float(np.max(np.abs(curve.z_lower - crisp_opt))),
        float(np.max(np.abs(curve.z_upper - crisp_opt))),
    )
    _verdict(8, worst <= 1e-8, (
        f"fully crisp problem: max |z - crisp optimum| = {worst:.2e} <= 1e-8 "
        "across the 11-level grid"
    ))


def test_criterion_9_determinism():
    args = [sys.executable, "-m", "fuzzyqp", "solve", "--input", FIXTURE,
            "--alphas", "0:1:0.2", "--format", "csv"]
    first = subprocess.run(args, capture_output=True)
    second = subprocess.run(args, capture_output=True)
    ok = (first.returncode == second.returncode == 0
          and first.stdout == second.stdout and len(first.stdout) > 0)
    _verdict(9, ok, "two consecutive CLI runs emit byte-identical CSV")
