"""Spans timed from outside the library.

Tracer replaces module attributes of fuzzyqp with wrappers that record one
span (name, start, end, parent) per call, and puts the originals back on
exit.  Spans stay in memory until the caller writes them out.  A layer's
self time is its spans' durations minus the durations of their direct
children; calls run on one thread, so children never overlap.
"""
from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# (module, attribute, span name).  A function bound under two names (the
# defining module and the module that imported it) is wrapped under both,
# because callers resolve the name in their own module's globals.
TARGETS = (
    ("fuzzyqp.cli", "main", "cli"),
    ("fuzzyqp.cli", "render_csv", "cli.render"),
    ("fuzzyqp.cli", "parse_problem", "problem.parse"),
    ("fuzzyqp.problem", "parse_problem", "problem.parse"),
    ("fuzzyqp.problem", "validate", "problem.validate"),
    ("fuzzyqp.cuts", "validate", "problem.validate"),
    ("fuzzyqp.cli", "solve_fqp", "sweep"),
    ("fuzzyqp.sweep", "solve_fqp", "sweep"),
    ("fuzzyqp.sweep", "lower_qp", "cuts.extract"),
    ("fuzzyqp.sweep", "upper_qp", "cuts.extract"),
    ("fuzzyqp.sweep", "solve_pg", "solver.pg"),
    ("fuzzyqp.solver", "solve_pg", "solver.pg"),
    # One projected-gradient run from one start: solve_pg calls it once per
    # start and it returns (x, iterations, converged).
    ("fuzzyqp.solver", "_pg_run", "solver.pg_run"),
    ("fuzzyqp.solver", "project", "solver.project"),
    ("fuzzyqp.solver", "lipschitz_constant", "solver.spectral"),
    ("fuzzyqp.solver", "is_convex", "solver.spectral"),
    ("fuzzyqp.solver", "gradient", "solver.gradient"),
    ("fuzzyqp.solver", "solve_oracle", "solver.oracle"),
)

JOB_SPAN = "bench.job"

# Spans whose return values are collected in Tracer.results, so that solver
# diagnostics are readable on paths where the library does not hand them
# back, such as the CLI.
KEEP = frozenset({"solver.pg", "solver.pg_run", "solver.oracle", "sweep"})


class Tracer:
    """Context manager that wraps TARGETS while active.

    Return values of spans named in KEEP are collected in `results`
    (name -> list).
    """

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.results: dict[str, list] = defaultdict(list)
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self):
        try:
            for module_name, attr, name in TARGETS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                setattr(module, attr, self._wrap(original, name))
                self._saved.append((module, attr, original))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, start: float) -> None:
        end = perf_counter()
        span = self.spans[idx]
        span[1], span[2] = start, end
        self._stack.pop()

    def _wrap(self, fn, name: str):
        keep = name in KEEP

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx, start)
            if keep:
                self.results[name].append(out)
            return out

        return wrapper

    @contextmanager
    def span(self):
        """Record a JOB_SPAN around one whole job."""
        idx = self._open(JOB_SPAN)
        start = perf_counter()
        try:
            yield
        finally:
            self._close(idx, start)

    def layers(self) -> dict[str, dict[str, float]]:
        """name -> {"self_s", "total_s", "calls"} over all recorded spans."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for (name, start, end, _), inner in zip(self.spans, child_time):
            row = out.setdefault(name, {"self_s": 0.0, "total_s": 0.0, "calls": 0})
            row["total_s"] += end - start
            row["self_s"] += end - start - inner
            row["calls"] += 1
        return out

    def write(self, path) -> None:
        """Write every span as CSV: index, name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as f:
            f.write("index,name,start_s,end_s,parent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                f.write(f"{i},{name},{start!r},{end!r},{parent}\n")
