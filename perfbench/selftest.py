"""The benchmark's own tests.

    python3 perfbench/selftest.py

Checks that the generators are deterministic per seed, that every gate
fails an op whose result is off by 1e-3, that tracing leaves fuzzyqp's
attributes exactly as it found them, that two traced runs give identical
counts, and that BENCHMARK.json names the metrics the code reports.
Takes about fifteen seconds.
"""
from __future__ import annotations

import dataclasses
import importlib
import json
import sys
import unittest
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads as wl  # noqa: E402

WORKDIR = HERE / "_work" / "selftest"
COUNTS = (
    "solver.project_calls", "solver.spectral_calls", "solver.gradient_calls",
    "solver.pg_iters", "solver.multistart_runs", "solver.oracle_systems",
    "problem.validate_calls", "cuts.extract_calls", "sweep.levels",
)


def make(name: str, seed: int, n_jobs: int):
    WORKDIR.mkdir(parents=True, exist_ok=True)
    w = wl.WORKLOADS[name](ROOT, WORKDIR)
    w.setup(seed, n_jobs)
    return w


def perturbed_curve(curve, level: int, side: str, dz: float):
    records = list(curve.records)
    r = records[level]
    field = "z_lower" if side == "lower" else "z_upper"
    records[level] = dataclasses.replace(r, **{field: getattr(r, field) + dz})
    return dataclasses.replace(curve, records=tuple(records))


class Generators(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        self.assertEqual(wl.convex_grow_indices(7, 40), wl.convex_grow_indices(7, 40))
        self.assertNotEqual(wl.convex_grow_indices(7, 40), wl.convex_grow_indices(8, 40))
        self.assertEqual(json.dumps(wl.convex_grow_problem(123)),
                         json.dumps(wl.convex_grow_problem(123)))
        self.assertEqual(json.dumps(wl.wide_interior_problem(3, 20, 10)),
                         json.dumps(wl.wide_interior_problem(3, 20, 10)))
        self.assertNotEqual(json.dumps(wl.wide_interior_problem(3, 20, 10)),
                            json.dumps(wl.wide_interior_problem(4, 20, 10)))
        self.assertEqual(wl.oracle_endpoints(5, 6), wl.oracle_endpoints(5, 6))
        self.assertNotEqual(wl.oracle_endpoints(5, 6), wl.oracle_endpoints(6, 6))

    def test_batch_prefix_does_not_depend_on_batch_size(self):
        self.assertEqual(wl.oracle_endpoints(5, 12)[:6], wl.oracle_endpoints(5, 6))

    def test_convex_grow_slots_cycle_through_sizes(self):
        sizes = [wl.CONVEX_SIZES[k % 5] for k in wl.convex_grow_indices(1, 10)]
        self.assertEqual(sizes, list(wl.CONVEX_SIZES) * 2)


class Gates(unittest.TestCase):
    def test_convex_grow(self):
        w = make("convex-grow", 0, 2)
        curve = w.run(0)
        self.assertEqual(w.check(0, curve).failed, 0)
        for level in range(3):
            for side in ("lower", "upper"):
                bad = perturbed_curve(curve, level, side, 1e-3)
                self.assertEqual(w.check(0, bad).failed, 1, (level, side))

    def test_fixture_cli(self):
        w = make("fixture-cli", 0, 1)
        self.assertEqual(w.run(0), 0)
        text = w.output.read_text(encoding="utf-8")
        self.assertEqual(w.check(0, 0).failed, 0)
        rows = wl.read_solve_csv(text)
        for level in (0, 20, 37, 100):  # exact, golden, plain, exact levels
            for side in (0, 1):
                bad = [dict(r) for r in rows]
                z = list(bad[level]["z"])
                z[side] += 1e-3
                bad[level]["z"] = tuple(z)
                out = wl.gate_sweep_rows(bad, w.triples, w.refs, 101)
                self.assertEqual(out.failed, 1, (level, side))

    def test_wide_interior(self):
        w = make("wide-interior", 0, 1)
        self.assertEqual(w.run(0), 0)
        rows = wl.read_solve_csv(w.output.read_text(encoding="utf-8"))
        self.assertEqual(w.check(0, 0).failed, 0)
        for level in range(3):
            for side in (0, 1):
                bad = [dict(r) for r in rows]
                z = list(bad[level]["z"])
                z[side] -= 1e-3
                bad[level]["z"] = tuple(z)
                self.assertEqual(wl.gate_sweep_rows(bad, w.triples, w.refs, 3).failed, 1)

    def test_oracle_check(self):
        w = make("oracle-check", 0, 2)
        for i in (0, 1):  # slot 0 is convex, slot 1 indefinite
            pg, oracle = w.run(i)
            self.assertEqual(w.check(i, (pg, oracle)).failed, 0)
            # Below the oracle fails either way; above it fails on convex ops only.
            low = dataclasses.replace(pg, z=pg.z - 1e-3)
            self.assertEqual(w.check(i, (low, oracle)).failed, 1)
            high = dataclasses.replace(pg, z=pg.z + 1e-3)
            self.assertEqual(w.check(i, (high, oracle)).failed, 1 if i == 0 else 0)

    def test_infeasible_x_fails(self):
        w = make("convex-grow", 0, 1)
        curve = w.run(0)
        r = curve.records[0]
        x = r.x_lower.copy()
        x[0] = -1e-3
        bad = dataclasses.replace(curve, records=(dataclasses.replace(r, x_lower=x),)
                                  + curve.records[1:])
        self.assertGreaterEqual(w.check(0, bad).failed, 1)


class Tracing(unittest.TestCase):
    def originals(self):
        return {(m, a): getattr(importlib.import_module(m), a) for m, a, _ in tracing.TARGETS}

    def test_attributes_restored(self):
        before = self.originals()
        with tracing.Tracer():
            during = self.originals()
            self.assertTrue(all(during[k] is not before[k] for k in before))
        after = self.originals()
        self.assertTrue(all(after[k] is before[k] for k in before))

    def test_attributes_restored_after_error(self):
        before = self.originals()
        with self.assertRaises(ZeroDivisionError):
            with tracing.Tracer():
                1 / 0
        after = self.originals()
        self.assertTrue(all(after[k] is before[k] for k in before))

    def test_self_time_excludes_children(self):
        t = tracing.Tracer()
        t.spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1], ["b", 5.0, 6.0, 0]]
        layers = t.layers()
        self.assertAlmostEqual(layers["a"]["self_s"], 6.0)
        self.assertAlmostEqual(layers["b"]["self_s"], 3.0)
        self.assertEqual(layers["b"]["calls"], 2)

    def test_two_traced_runs_give_identical_counts(self):
        for name, jobs in (("fixture-cli", 1), ("convex-grow", 5),
                           ("wide-interior", 1), ("oracle-check", 2)):
            w = make(name, 1, jobs)
            seen = []
            for _ in range(2):
                untraced = worker.run_pass(w, range(jobs))
                with tracing.Tracer() as tr:
                    traced = worker.run_pass(w, range(jobs), tr)
                self.assertEqual(traced.failed, 0, name)
                metrics = worker.per_layer(tr, untraced, traced)
                seen.append({k: metrics[k] for k in COUNTS})
            self.assertEqual(seen[0], seen[1], name)
            self.assertGreater(seen[0]["solver.project_calls"], 0, name)
            if name == "oracle-check":  # one convex start, then nine indefinite ones
                self.assertEqual(seen[0]["solver.multistart_runs"], 1 + 9)


class Contract(unittest.TestCase):
    def test_benchmark_json_matches_code(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)
        self.assertEqual(set(run.WORKLOADS), set(wl.WORKLOADS))

    def test_tail_has_ten_jobs_beyond(self):
        times = list(np.arange(40.0))
        value, pct = worker.tail(times)
        self.assertEqual(sum(t > value for t in times), 10)
        self.assertEqual(pct, 75.0)


if __name__ == "__main__":
    unittest.main()
