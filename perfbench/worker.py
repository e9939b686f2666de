"""One workload in one process: set up its inputs, then time a fixed batch.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --role setup|measure

Started by run.py, which owns the clock for setup_s.  Prints one JSON
object as its last line of standard output: with --role setup only the
monotonic time at which the inputs were ready and the machine's speed
just after (speed.py); with --role measure also the metrics, op counts
and run details.

The batch is fixed by the workload and --seconds (see
Workload.batch_size).  A job is timed from the call into fuzzyqp until it
returns, and reported in reference seconds (speed.py); the correctness
gate of its ops runs afterwards, outside the timed region.  With --trace 1 the first half of the batch runs twice,
untraced and then traced, and only per-layer metrics are reported.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from speed import Timer, calibrate, factor

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TAIL_BEYOND = 10  # jobs that must lie above the reported tail percentile
SETUP_CALIBRATIONS = 10  # speed samples taken right after set-up


class Pass:
    """Timings (speed.Timer) and gate results of one pass over a list of jobs."""

    def __init__(self):
        self.timer = Timer()
        self.attempted = 0
        self.failed = 0
        self.z_err = 0.0
        self.matched = 0

    @property
    def times(self) -> list[float]:
        """Job times in reference seconds."""
        return self.timer.scaled


def run_pass(w, indices, tracer=None) -> Pass:
    def job(i):
        if tracer is None:
            return w.run(i)
        with tracer.span():
            return w.run(i)

    p = Pass()
    for i in indices:
        raw, ok = None, True
        try:
            raw = p.timer.time(job, i)
        except Exception:  # a job that raises fails all of its ops
            traceback.print_exc(file=sys.stderr)
            ok = False
        p.attempted += w.ops_per_job
        if ok:
            try:
                out = w.check(i, raw)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                ok = False
        if not ok:
            p.failed += w.ops_per_job
            continue
        p.failed += out.failed
        p.z_err = max(p.z_err, out.z_err)
        p.matched += out.matched
    return p


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest nearest-rank percentile with at
    least TAIL_BEYOND jobs above it."""
    n = len(times)
    return sorted(times)[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(p: Pass) -> dict:
    value, _ = tail(p.times)
    return {
        "wall_s": sum(p.times),
        "job_p50_s": statistics.median(p.times),
        "job_tail_s": value,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer, untraced: Pass, traced: Pass) -> dict:
    layers = tracer.layers()
    f = traced.timer.overall

    def get(name, key="self_s"):
        value = layers.get(name, {}).get(key, 0)
        return value * f if key == "self_s" else value

    pg = tracer.results["solver.pg"]
    runs = tracer.results["solver.pg_run"]  # (x, iterations, converged) per start
    oracles = tracer.results["solver.oracle"]
    wall = sum(traced.times)
    unattributed = get("bench.job")
    attempted = untraced.attempted + traced.attempted
    return {
        "solver.project_s": get("solver.project"),
        "solver.project_calls": get("solver.project", "calls"),
        "solver.spectral_s": get("solver.spectral"),
        "solver.spectral_calls": get("solver.spectral", "calls"),
        "solver.gradient_s": get("solver.gradient"),
        "solver.gradient_calls": get("solver.gradient", "calls"),
        "solver.pg_self_s": get("solver.pg") + get("solver.pg_run"),
        "solver.pg_iters": sum(iters for _, iters, _ in runs),
        "solver.multistart_runs": len(runs),
        "solver.nonconvex_frac": sum(not s.convex for s in pg) / len(pg) if pg else 0.0,
        "solver.stationarity_max": max((s.stationarity for s in pg), default=0.0),
        "solver.oracle_s": get("solver.oracle"),
        "solver.oracle_systems": sum(s.iterations for s in oracles),
        "solver.oracle_match_frac": traced.matched / len(oracles) if oracles else 0.0,
        "problem.parse_self_s": get("problem.parse"),
        "problem.validate_s": get("problem.validate"),
        "problem.validate_calls": get("problem.validate", "calls"),
        "cuts.extract_self_s": get("cuts.extract"),
        "cuts.extract_calls": get("cuts.extract", "calls"),
        "sweep.self_s": get("sweep"),
        "sweep.levels": sum(len(c.records) for c in tracer.results["sweep"]),
        "cli.render_s": get("cli.render"),
        "cli.self_s": get("cli"),
        "check.z_err_max": max(untraced.z_err, traced.z_err),
        "fail_frac": (untraced.failed + traced.failed) / attempted,
        "trace.wall_s": wall,
        "trace.unattributed_s": unattributed,
        "trace.unattributed_frac": unattributed / wall,
        "trace.overhead_frac": wall / sum(untraced.times) - 1.0,
    }


def measure(w, args) -> dict:
    from tracing import Tracer

    # One untimed job first, so lazy imports and first-call costs are paid.
    try:
        w.check(0, w.run(0))
    except Exception:
        traceback.print_exc(file=sys.stderr)

    info = {"jobs": w.n_jobs, "ops_per_job": w.ops_per_job, "sizes": w.sizes()}
    if args.trace:
        half = range((w.n_jobs + 1) // 2)
        untraced = run_pass(w, half)
        with Tracer() as tracer:
            traced = run_pass(w, half, tracer)
        metrics = per_layer(tracer, untraced, traced)
        passes = (untraced, traced)
        spans = w.workdir / f"spans-seed{args.seed}.csv"
        tracer.write(spans)
        info.update(traced_jobs=len(half), spans=str(spans.relative_to(ROOT)))
    else:
        p = run_pass(w, range(w.n_jobs))
        metrics = end_to_end(p)
        passes = (p,)
        info.update(tail_percentile=tail(p.times)[1], measured_wall_s=sum(p.timer.measured),
                    speed_factor=p.timer.overall,
                    samples={"job_s": p.timer.measured, "loop_s": p.timer.cal})
    crosscheck = w.crosscheck()
    info["crosscheck"] = crosscheck
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    return {
        "correct": failed == 0 and crosscheck in (None, True),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "info": info,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("setup", "measure"), required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import fuzzyqp
    import numpy

    if not Path(fuzzyqp.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: imported fuzzyqp from {fuzzyqp.__file__}, not from src/", file=sys.stderr)
        return 2
    import workloads

    workdir = HERE / "_work" / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    w = workloads.WORKLOADS[args.workload](ROOT, workdir)
    w.setup(args.seed, w.batch_size(args.seconds))
    t_ready = time.monotonic()
    # The machine's speed just after set-up, to scale setup_s with.
    ready = {"t_ready": t_ready,
             "setup_speed": factor([calibrate() for _ in range(SETUP_CALIBRATIONS)])}
    if args.role == "setup":
        print(json.dumps(ready))
        return 0
    result = dict(measure(w, args), **ready)
    result["info"].update(
        python=platform.python_version(),
        numpy=numpy.__version__,
        blas_threads={k: os.environ.get(k) for k in
                      ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
