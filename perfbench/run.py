"""fuzzyqp benchmark: time-to-curve on four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each call runs one workload in fresh
processes of its own, one after another, with BLAS pinned to one thread:
SETUP_SAMPLES - 1 processes that only set up, then one that sets up and
measures.  setup_s is the median, over those processes, of the time from
starting the process (before `import fuzzyqp`) until its inputs are
generated and written.  Times are reported in reference seconds: measured
seconds scaled by the machine's speed, sampled as the run goes (speed.py).

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; attempted and failed count ops
(crisp endpoint solves), so fail_frac = failed / attempted.  The line
before it is a JSON object with the run's details: batch size, sizes,
tail percentile, BLAS threads and the machine.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fixture-cli", "convex-grow", "wide-interior", "oracle-check")
SETUP_SAMPLES = 5
BUDGET_S = 170.0  # the whole call must end within 180 s

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "solver.project_s": "s",
    "solver.project_calls": "count",
    "solver.spectral_s": "s",
    "solver.spectral_calls": "count",
    "solver.gradient_s": "s",
    "solver.gradient_calls": "count",
    "solver.pg_self_s": "s",
    "solver.pg_iters": "count",
    "solver.multistart_runs": "count",
    "solver.nonconvex_frac": "ratio",
    "solver.stationarity_max": "abs",
    "solver.oracle_s": "s",
    "solver.oracle_systems": "count",
    "solver.oracle_match_frac": "ratio",
    "problem.parse_self_s": "s",
    "problem.validate_s": "s",
    "problem.validate_calls": "count",
    "cuts.extract_self_s": "s",
    "cuts.extract_calls": "count",
    "sweep.self_s": "s",
    "sweep.levels": "count",
    "cli.render_s": "s",
    "cli.self_s": "s",
    "check.z_err_max": "rel",
    "fail_frac": "ratio",
    "trace.wall_s": "s",
    "trace.unattributed_s": "s",
    "trace.unattributed_frac": "ratio",
    "trace.overhead_frac": "ratio",
}


def machine() -> dict:
    """nproc, CPU model and cache sizes, read without side effects."""
    info = {"nproc": os.cpu_count(), "platform": platform.platform()}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    cache = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            info[f"L{level}"] = size
    return info


def spawn(args, role: str, deadline: float) -> tuple[float, dict]:
    """Run worker.py once; return (start time, its final JSON line)."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--role", role]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - start), check=False)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker --role {role} exited with {proc.returncode}")
    return start, json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    needed = [ROOT / "src" / "fuzzyqp" / "__init__.py", ROOT / "fixtures" / "liu2009-example.json",
              ROOT / "fixtures" / "liu2009-example.csv"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"error: not a fuzzyqp checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + BUDGET_S
    try:
        samples, factors = [], []
        for role in ["setup"] * (SETUP_SAMPLES - 1) + ["measure"]:
            start, result = spawn(args, role, deadline)
            samples.append(result["t_ready"] - start)
            factors.append(result["setup_speed"])
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    values = dict(result["metrics"])
    if args.trace:
        units = PER_LAYER
    else:
        units = END_TO_END
        values["setup_s"] = statistics.median(s * f for s, f in zip(samples, factors))
    info = dict(result["info"], workload=args.workload, seed=args.seed, seconds=args.seconds,
                trace=args.trace, measured_setup_s=samples, setup_speed_factors=factors,
                machine=machine())
    report = {
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    path = HERE / "_work" / args.workload / f"report-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(dict(report, info=info), indent=1) + "\n", encoding="utf-8")
    info.pop("samples", None)  # per-job times stay in the report file
    print(json.dumps(info))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
