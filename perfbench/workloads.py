"""The four benchmark workloads: input generators, the timed job, and the
correctness gate of every op (one crisp endpoint solve).

A workload is set up once per process from the benchmark seed.  Its inputs
are generated here with numpy and written to the work directory; the
library only sees those files (or CrispQP objects read back from them).
The gates recompute endpoint data from the written triples with numpy, so
they do not depend on fuzzyqp.cuts.

Why each workload exists (also in BENCHMARK.json and README.md):
  fixture-cli    the user's CLI path on a dense grid of tiny solves, where
                 per-iteration overhead and the sweep loop dominate;
  convex-grow    convex fuzzy QPs of growing size, where project() dominates;
  wide-interior  one large problem with an interior optimum, where parsing,
                 validation, cut extraction and the spectral step dominate
                 and project() returns early;
  oracle-check   crisp endpoints, half of them indefinite (9-start PG), each
                 also solved by the enumeration oracle.
"""
from __future__ import annotations

import csv
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

GATE_TOL = 1e-6  # objective, relative to max(1, |reference|)
FEAS_TOL = 1e-8  # constraint violation of every returned x

# Keys that keep the random streams of the generators apart.
POOL_SEED = 20220615
_CONVEX_PICK, _WIDE, _ORACLE = 1, 2, 3

CONVEX_SIZES = ((4, 4), (6, 5), (8, 7), (10, 8), (12, 10))
CONVEX_PER_SIZE = 80  # frozen pool: problem k has size CONVEX_SIZES[k % 5]
CONVEX_LEVELS = (0.0, 0.5, 1.0)
WIDE_N, WIDE_M = 80, 40
WIDE_LEVELS = "0,0.5,1"
ORACLE_PATTERN = ((5, True), (5, False), (6, True), (6, False), (7, True), (7, False))

FIXTURE = Path("fixtures") / "liu2009-example.json"
GOLDEN = Path("fixtures") / "liu2009-example.csv"
FIXTURE_LEVELS = "0:1:0.01"
# Hand-derived optima of the fixture at alpha = 0 (lower, upper) and 1.
FIXTURE_EXACT = {
    0.0: (float(Fraction(-49, 12)), -1.0),
    1.0: (float(Fraction(-167, 80)), float(Fraction(-167, 80))),
}


# ---------------------------------------------------------------- helpers

def _sym(M: np.ndarray) -> np.ndarray:
    """Exactly symmetric: (M + M')/2 rounds the same way at (i, j) and (j, i)."""
    return 0.5 * (M + M.T)


def _stack(mid, lo, hi) -> np.ndarray:
    """Triples (mid - lo, mid, mid + hi) along a new last axis."""
    return np.stack([mid - lo, mid, mid + hi], axis=-1)


def problem_doc(c, Q, A, b, name: str) -> dict:
    """Problem-file document from triple arrays of shape (..., 3)."""
    return {
        "name": name,
        "n": int(c.shape[0]),
        "m": int(b.shape[0]),
        "c": c.tolist(),
        "Q": Q.tolist(),
        "A": A.tolist(),
        "b": b.tolist(),
    }


def triples(doc: dict) -> tuple[np.ndarray, ...]:
    return tuple(np.asarray(doc[k], dtype=float) for k in ("c", "Q", "A", "b"))


def endpoint(t: np.ndarray, alpha: float, side: int) -> np.ndarray:
    """Cut endpoint of triples t: side 0 is the left end, side 1 the right."""
    if side == 0:
        return t[..., 0] + alpha * (t[..., 1] - t[..., 0])
    return t[..., 2] - alpha * (t[..., 2] - t[..., 1])


def endpoint_qp(doc_triples, alpha: float, side: int):
    return tuple(endpoint(t, alpha, side) for t in doc_triples)


def close(z: float, ref: float) -> bool:
    return abs(z - ref) <= GATE_TOL * max(1.0, abs(ref))


def rel_err(z: float, ref: float) -> float:
    return abs(z - ref) / max(1.0, abs(ref))


def feasible(x, A, b) -> bool:
    x = np.asarray(x, dtype=float)
    return bool(np.all(np.isfinite(x)) and np.all(x >= -FEAS_TOL) and np.all(A @ x - b <= FEAS_TOL))


def objective(c, Q, x) -> float:
    return float(c @ x + 0.5 * (x @ Q @ x))


class Outcome:
    """Gate result of one job: failed ops, worst reference error, oracle matches."""

    __slots__ = ("failed", "z_err", "matched")

    def __init__(self):
        self.failed = 0
        self.z_err = 0.0
        self.matched = 0

    def op(self, ok: bool, z_err: float = 0.0) -> None:
        self.failed += 0 if ok else 1
        self.z_err = max(self.z_err, z_err)


def read_solve_csv(text: str) -> list[dict]:
    """Rows of `fuzzyqp solve --format csv` as dicts of floats and vectors."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    n = sum(1 for h in header if h.startswith("x_lower_"))
    rows = []
    for cells in reader:
        rec = dict(zip(header, cells))
        rows.append({
            "alpha": float(rec["alpha"]),
            "z": (float(rec["z_lower"]), float(rec["z_upper"])),
            "x": (
                np.array([float(rec[f"x_lower_{j + 1}"]) for j in range(n)]),
                np.array([float(rec[f"x_upper_{j + 1}"]) for j in range(n)]),
            ),
            "converged": (rec["converged_lower"] == "true", rec["converged_upper"] == "true"),
        })
    return rows


def gate_sweep_rows(rows, doc_triples, refs, expected_levels: int) -> Outcome:
    """Gate every (level, side) op of a sweep.

    Every op must have converged, return a feasible x and report the
    objective value of that x.  refs maps alpha -> (z_lower, z_upper);
    where a level has a reference, z must also match it.
    """
    out = Outcome()
    out.failed += 2 * max(0, expected_levels - len(rows))
    for row in rows[:expected_levels]:
        alpha = row["alpha"]
        ref = refs.get(round(alpha, 9))
        for side in (0, 1):
            c, Q, A, b = endpoint_qp(doc_triples, alpha, side)
            z, x = row["z"][side], row["x"][side]
            ok = row["converged"][side] and feasible(x, A, b) and close(z, objective(c, Q, x))
            err = 0.0
            if ref is not None:
                err = rel_err(z, ref[side])
                ok = ok and close(z, ref[side])
            out.op(ok, err)
    return out


# ---------------------------------------------------------------- generators

def convex_grow_problem(index: int) -> dict:
    """Pool problem `index`: a convex fuzzy QP with positive resource rows.

    Q's modal matrix has eigenvalues spread evenly over [1, 4] in a random
    basis and its spread is at most 0.2 of the smallest eigenvalue, so
    every endpoint is positive definite.  Each row of A covers its own
    block of variables (disjoint supports), which keeps Dykstra's sweep
    count from swinging by orders of magnitude between problems.  c aims
    at a point that violates about half of the rows, so several are active.
    """
    n, m = CONVEX_SIZES[index % len(CONVEX_SIZES)]
    rng = np.random.default_rng([POOL_SEED, index])
    U, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = np.linspace(1.0, 4.0, n)
    Q2 = _sym((U * lam) @ U.T)
    S = _sym(rng.uniform(0.0, 1.0, (n, n)))
    S *= 0.2 * lam[0] / np.linalg.norm(S, 2)

    A2 = np.zeros((m, n))
    groups = np.array_split(rng.permutation(n), m)
    target = rng.uniform(0.5, 1.5, n)
    b2 = rng.uniform(1.0, 2.0, m)
    for i, cols in enumerate(groups):
        A2[i, cols] = rng.uniform(0.5, 1.5, len(cols))
        # Row i holds at ratio t at the target: t > 1 pushes against it.
        t = rng.uniform(0.5, 2.0)
        target[cols] *= t * b2[i] / (A2[i, cols] @ target[cols])
    c2 = -Q2 @ target

    dA = A2 * rng.uniform(0.0, 0.1, (m, n))
    db = b2 * rng.uniform(0.0, 0.1, m)
    dc = np.abs(c2) * rng.uniform(0.0, 0.1, n)
    return problem_doc(
        _stack(c2, dc, dc), _stack(Q2, S, S), _stack(A2, dA, dA), _stack(b2, db, db),
        f"convex-grow-{index}",
    )


def convex_grow_indices(seed: int, n_jobs: int) -> list[int]:
    """Pool indices of a batch: slot s has size class s % 5.

    Within a class the seed draws an order of the pool; a batch takes
    that order from the start and wraps around if it is longer than the
    class.  Solve times in the pool are heavy-tailed (a few problems take
    20x the mean, from Dykstra's sweep count), so batches drawn as small
    random subsets would differ in cost by several percent from seed to
    seed; a batch that covers the pool does not.
    """
    rng = np.random.default_rng([_CONVEX_PICK, seed])
    k = len(CONVEX_SIZES)
    orders = [np.resize(rng.permutation(CONVEX_PER_SIZE), len(range(c, n_jobs, k)))
              for c in range(k)]
    return [int(orders[s % k][s // k]) * k + s % k for s in range(n_jobs)]


def wide_interior_problem(seed: int, n: int = WIDE_N, m: int = WIDE_M) -> dict:
    """A dense convex problem whose endpoint optima all lie well inside.

    Q = blockdiag(B, (1 + 1e-3) B) with B = diag(d) + 2 v v' (entries
    nonnegative), so Q's top two eigenvalues are 1e-3 apart relative to
    each other and the power iteration for the step size has to work.
    c = -Q x* with x* in [0.5, 1.5]; A x* stays at most half of b.
    """
    rng = np.random.default_rng([_WIDE, seed])
    h = n // 2
    v = rng.uniform(0.5, 1.5, h)
    v /= np.linalg.norm(v)
    Bk = _sym(np.diag(rng.uniform(1.0, 1.2, h)) + 2.0 * np.outer(v, v))
    Mk = _sym(rng.uniform(0.0, 1.0, (h, h)))
    Mk *= 0.02 / np.linalg.norm(Mk, 2)
    Q2 = np.zeros((n, n))
    Q2[:h, :h], Q2[h:, h:] = Bk, (1.0 + 1e-3) * Bk
    S = np.zeros((n, n))
    S[:h, :h], S[h:, h:] = Mk, Mk
    x_star = rng.uniform(0.5, 1.5, n)
    c2 = -Q2 @ x_star
    dc = np.abs(c2) * rng.uniform(0.0, 0.05, n)
    A2 = rng.uniform(0.0, 1.0, (m, n))
    b2 = 2.0 * (A2 @ x_star) * rng.uniform(1.0, 1.2, m)
    dA = A2 * rng.uniform(0.0, 0.05, (m, n))
    db = b2 * rng.uniform(0.0, 0.05, m)
    return problem_doc(
        _stack(c2, dc, dc), _stack(Q2, S, S), _stack(A2, dA, dA), _stack(b2, db, db),
        f"wide-interior-{seed}",
    )


def oracle_pair(seed: int, pair: int, n: int) -> tuple[tuple, tuple]:
    """Two crisp endpoints of one random fuzzy QP with n = m.

    Returns (upper at alpha 0, lower at alpha 0).  The Q spread is a
    rank-one 2/(u'Q^-1 u) u u' with u > 0, so Q - S is indefinite while
    Q + S stays positive definite.  A is a box: row i bounds variable
    pi(i) alone.  Rows that couple variables make Dykstra's sweep count on
    the multistart points swing a hundredfold between problems, more than
    a run of a few dozen jobs can average out.
    """
    rng = np.random.default_rng([_ORACLE, seed, pair])
    U, _ = np.linalg.qr(rng.standard_normal((n, n)))
    Q2 = _sym((U * np.linspace(1.0, 4.0, n)) @ U.T)
    u = rng.uniform(0.5, 1.5, n)
    S = _sym(np.outer(u, u) * (2.0 / (u @ np.linalg.solve(Q2, u))))
    A2 = np.zeros((n, n))
    A2[np.arange(n), rng.permutation(n)] = rng.uniform(0.5, 1.5, n)
    b2 = rng.uniform(1.0, 2.0, n)
    target = rng.uniform(0.5, 1.5, n)
    target *= 2.0 * np.min(b2 / (A2 @ target))
    c2 = -Q2 @ target
    dA = A2 * rng.uniform(0.0, 0.1, (n, n))
    db = b2 * rng.uniform(0.0, 0.1, n)
    dc = np.abs(c2) * rng.uniform(0.0, 0.1, n)
    t = (_stack(c2, dc, dc), _stack(Q2, S, S), _stack(A2, dA, dA), _stack(b2, db, db))
    return endpoint_qp(t, 0.0, 1), endpoint_qp(t, 0.0, 0)


def oracle_endpoints(seed: int, n_jobs: int) -> list[dict]:
    """Slot s follows ORACLE_PATTERN: sizes 5, 6, 7, convex then indefinite."""
    jobs = []
    for s in range(n_jobs):
        n, convex = ORACLE_PATTERN[s % len(ORACLE_PATTERN)]
        upper, lower = oracle_pair(seed, s // 2, n)
        c, Q, A, b = upper if convex else lower
        jobs.append({"c": c.tolist(), "Q": Q.tolist(), "A": A.tolist(), "b": b.tolist(),
                     "convex": convex})
    return jobs


# ---------------------------------------------------------------- workloads

class Workload:
    """One workload in one process: setup(), then run(i) timed, check(i) not."""

    name = ""
    ops_per_job = 0
    jobs_per_second = 1.0  # sizes the batch: about --seconds on a 2-core Xeon VM

    def __init__(self, root: Path, workdir: Path):
        self.root = root
        self.workdir = workdir
        self.n_jobs = 0

    def batch_size(self, seconds: float) -> int:
        # At least 11 jobs, so one job lies above the tail percentile's ten.
        return max(11, round(self.jobs_per_second * seconds))

    def setup(self, seed: int, n_jobs: int) -> None:
        raise NotImplementedError

    def run(self, i: int):
        raise NotImplementedError

    def check(self, i: int, raw) -> Outcome:
        raise NotImplementedError

    def sizes(self) -> str:
        raise NotImplementedError

    def crosscheck(self) -> bool | None:
        """Untimed check that the timed path is the one users run; None if none."""
        return None


class _CliWorkload(Workload):
    """Shared by the two workloads that drive fuzzyqp.cli.main in-process."""

    def _argv(self, problem: Path, levels: str) -> None:
        self.output = self.workdir / f"{self.name}.csv"
        self.argv = ["solve", "--input", str(problem), "--alphas", levels,
                     "--format", "csv", "--output", str(self.output)]

    def run(self, i: int):
        import fuzzyqp.cli

        return fuzzyqp.cli.main(self.argv)

    def check(self, i: int, raw) -> Outcome:
        try:
            text = self.output.read_text(encoding="utf-8")
            self.output.unlink()
        except FileNotFoundError:
            text = None
        if raw == 2 or text is None:
            out = Outcome()
            out.failed = self.ops_per_job
            return out
        rows = read_solve_csv(text)
        return gate_sweep_rows(rows, self.triples, self.refs, self.ops_per_job // 2)


class FixtureCli(_CliWorkload):
    name = "fixture-cli"
    ops_per_job = 202
    jobs_per_second = 2.0

    def setup(self, seed: int, n_jobs: int) -> None:
        # The fixture is fixed data; the seed has nothing to draw.
        problem = self.root / FIXTURE
        self.triples = triples(json.loads(problem.read_text(encoding="utf-8")))
        golden = read_solve_csv((self.root / GOLDEN).read_text(encoding="utf-8"))
        self.refs = {round(r["alpha"], 9): r["z"] for r in golden}
        self.refs.update(FIXTURE_EXACT)
        self._argv(problem, FIXTURE_LEVELS)
        self.n_jobs = n_jobs

    def sizes(self) -> str:
        return "n=2 m=2, 101 levels"

    def crosscheck(self) -> bool:
        """`python -m fuzzyqp solve` on stdout must print byte for byte what
        the in-process CLI writes to its --output file."""
        import fuzzyqp.cli

        fuzzyqp.cli.main(self.argv)
        in_process = self.output.read_bytes()
        self.output.unlink()
        argv = list(self.argv)
        k = argv.index("--output")
        del argv[k:k + 2]
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        proc = subprocess.run([sys.executable, "-m", "fuzzyqp", *argv], cwd=self.root, env=env,
                              capture_output=True, timeout=60, check=False)
        return proc.returncode == 0 and proc.stdout == in_process


class WideInterior(_CliWorkload):
    name = "wide-interior"
    ops_per_job = 6
    jobs_per_second = 2.0

    def setup(self, seed: int, n_jobs: int) -> None:
        doc = wide_interior_problem(seed)
        problem = self.workdir / "wide-interior.json"
        problem.write_text(json.dumps(doc), encoding="utf-8")
        self.problem_bytes = problem.stat().st_size
        self.triples = triples(doc)
        self.refs = {}
        for alpha in (0.0, 0.5, 1.0):
            pair = []
            for side in (0, 1):
                c, Q, A, b = endpoint_qp(self.triples, alpha, side)
                x = np.linalg.solve(Q, -c)
                if not (np.all(x > 0.0) and np.all(A @ x < b)):
                    raise RuntimeError("wide-interior generator gave a non-interior optimum")
                pair.append(objective(c, Q, x))
            self.refs[alpha] = tuple(pair)
        self._argv(problem, WIDE_LEVELS)
        self.n_jobs = n_jobs

    def sizes(self) -> str:
        return f"n={WIDE_N} m={WIDE_M}, 3 levels, {self.problem_bytes} bytes"


class ConvexGrow(Workload):
    name = "convex-grow"
    ops_per_job = 6
    jobs_per_second = 20.0

    def setup(self, seed: int, n_jobs: int) -> None:
        refs = json.loads((Path(__file__).parent / "reference" / "convex-grow.json")
                          .read_text(encoding="utf-8"))
        if refs["pool_seed"] != POOL_SEED or refs["per_size"] != CONVEX_PER_SIZE:
            raise RuntimeError("reference/convex-grow.json was frozen for another pool")
        self.indices = convex_grow_indices(seed, n_jobs)
        path = self.workdir / "convex-grow.jsonl"
        with open(path, "w", encoding="utf-8") as f:
            for k in self.indices:
                f.write(json.dumps(convex_grow_problem(k)) + "\n")
        self.texts = path.read_text(encoding="utf-8").splitlines()
        self.triples = [triples(json.loads(t)) for t in self.texts]
        self.refs = [refs["z"][k] for k in self.indices]
        self.n_jobs = n_jobs

    def run(self, i: int):
        import fuzzyqp.problem
        import fuzzyqp.sweep

        return fuzzyqp.sweep.solve_fqp(fuzzyqp.problem.parse_problem(self.texts[i]),
                                       CONVEX_LEVELS)

    def check(self, i: int, raw) -> Outcome:
        rows = [{
            "alpha": r.alpha,
            "z": (r.z_lower, r.z_upper),
            "x": (r.x_lower, r.x_upper),
            "converged": (r.lower_diag.converged, r.upper_diag.converged),
        } for r in raw.records]
        z = self.refs[i]
        refs = {a: (z[2 * k], z[2 * k + 1]) for k, a in enumerate(CONVEX_LEVELS)}
        return gate_sweep_rows(rows, self.triples[i], refs, len(CONVEX_LEVELS))

    def sizes(self) -> str:
        return "n/m " + ", ".join(f"{n}/{m}" for n, m in CONVEX_SIZES) + " in turn, 3 levels"


class OracleCheck(Workload):
    name = "oracle-check"
    ops_per_job = 1
    jobs_per_second = 4.4

    def setup(self, seed: int, n_jobs: int) -> None:
        from fuzzyqp import CrispQP

        path = self.workdir / "oracle-check.jsonl"
        with open(path, "w", encoding="utf-8") as f:
            for job in oracle_endpoints(seed, n_jobs):
                f.write(json.dumps(job) + "\n")
        self.jobs = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        self.qps = [CrispQP(j["c"], j["Q"], j["A"], j["b"]) for j in self.jobs]
        for j, q in zip(self.jobs, self.qps):
            least = float(np.linalg.eigvalsh(q.Q)[0])
            if (least > 1e-8) != j["convex"] or abs(least) <= 1e-8:
                raise RuntimeError("oracle-check generator missed its convexity pattern")
        self.n_jobs = n_jobs

    def run(self, i: int):
        import fuzzyqp.solver

        q = self.qps[i]
        return fuzzyqp.solver.solve_pg(q), fuzzyqp.solver.solve_oracle(q)

    def check(self, i: int, raw) -> Outcome:
        pg, oracle = raw
        q = self.qps[i]
        out = Outcome()
        ok = pg.converged and feasible(pg.x, q.A, q.b) and feasible(oracle.x, q.A, q.b)
        if self.jobs[i]["convex"]:
            ok = ok and close(pg.z, oracle.z)
        else:
            ok = ok and pg.z >= oracle.z - GATE_TOL * max(1.0, abs(oracle.z))
        out.op(ok, rel_err(pg.z, oracle.z) if self.jobs[i]["convex"] else 0.0)
        out.matched = int(close(pg.z, oracle.z))
        return out

    def sizes(self) -> str:
        return "n=m 5, 6, 7 in turn; convex and indefinite endpoints alternate"


WORKLOADS = {w.name: w for w in (FixtureCli, ConvexGrow, WideInterior, OracleCheck)}
