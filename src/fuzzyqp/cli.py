"""Command-line front end: solve a problem file over an alpha grid and emit
the results as an aligned table, CSV, or membership polyline data.

Exit status is 0 only when every requested solve converged and no error
occurred; validation failures and non-convergence exit 1.  Bad flags, file
errors (unreadable, non-UTF-8 or unwritable), parse and solver errors exit 2.
"""
from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .fuzzy import check_alpha
from .problem import FuzzyQP, ProblemError, ValidationError, parse_problem
from .solver import InfeasibleError, SolverOptions, UnboundedError
from .sweep import CurveShapeError, MembershipCurve, check_invertible, solve_fqp

_MAX_LEVELS = 100_001  # the most levels a start:stop:step range may make (as 0:1:1e-5 does)


def _fmt(v: float) -> str:
    return f"{v:.10g}"


def parse_alpha_spec(spec: str) -> list[float]:
    """Grid spec: either 'start:stop:step' (inclusive) or 'a,b,c,...'."""
    try:
        if ":" in spec:
            parts = spec.split(":")
            if len(parts) != 3:
                raise ValueError("expected start:stop:step")
            # the ends are levels too: checked before a far one makes a huge list
            start, stop, step = check_alpha(parts[0]), check_alpha(parts[1]), float(parts[2])
            if not 0 < step < math.inf:  # NaN too
                raise ValueError("step must be positive and finite")
            if stop < start:
                raise ValueError("stop must be >= start")
            count = (stop - start) / step + 1e-9  # inf for a subnormal step
            levels = int(count) + 1 if count < math.inf else count
            if levels > _MAX_LEVELS:  # before the list is built
                raise ValueError(f"the range makes {levels} levels, more than {_MAX_LEVELS}")
            values = [round(start + k * step, 12) for k in range(levels)]
        else:
            values = [float(tok) for tok in spec.split(",") if tok.strip()]
            if not values:
                raise ValueError("empty alpha list")
        return [check_alpha(v) for v in values]
    except ValueError as e:
        raise argparse.ArgumentTypeError(f"bad --alphas spec {spec!r}: {e}") from e


def _load(args) -> FuzzyQP:
    return parse_problem(Path(args.input).read_text(encoding="utf-8"), symmetrize=args.symmetrize)


def _solve_columns(curve: MembershipCurve) -> tuple[list[str], list[list[str]]]:
    n = len(curve.records[0].x_lower)
    header = (
        ["alpha", "z_lower", "z_upper"]
        + [f"x_lower_{j + 1}" for j in range(n)]
        + [f"x_upper_{j + 1}" for j in range(n)]
        + ["iter_lower", "iter_upper", "converged_lower", "converged_upper"]
    )
    rows = []
    for r in curve.records:
        rows.append(
            [_fmt(r.alpha), _fmt(r.z_lower), _fmt(r.z_upper)]
            + [_fmt(v) for v in r.x_lower]
            + [_fmt(v) for v in r.x_upper]
            + [
                str(r.lower_diag.iterations),
                str(r.upper_diag.iterations),
                "true" if r.lower_diag.converged else "false",
                "true" if r.upper_diag.converged else "false",
            ]
        )
    return header, rows


def render_csv(curve: MembershipCurve) -> str:
    header, rows = _solve_columns(curve)
    lines = [",".join(header)] + [",".join(row) for row in rows]
    return "\n".join(lines) + "\n"


def render_table(curve: MembershipCurve) -> str:
    header, rows = _solve_columns(curve)
    widths = [
        max(len(header[i]), *(len(row[i]) for row in rows)) for i in range(len(header))
    ]
    fmt_row = lambda row: "  ".join(cell.rjust(w) for cell, w in zip(row, widths))
    return "\n".join([fmt_row(header)] + [fmt_row(row) for row in rows]) + "\n"


def polyline(curve: MembershipCurve) -> list[tuple[float, float]]:
    """Vertices (z, alpha) tracing the membership shape: up the lower
    branch, down the upper branch, apex deduplicated when it coincides."""
    check_invertible(curve)
    up = [(r.z_lower, r.alpha) for r in curve.records]
    down = [(r.z_upper, r.alpha) for r in reversed(curve.records)]
    if curve.records[-1].coincides:
        down = down[1:]
    return up + down


def render_plot_data(curve: MembershipCurve) -> str:
    lines = ["z,alpha"] + [f"{_fmt(z)},{_fmt(a)}" for z, a in polyline(curve)]
    return "\n".join(lines) + "\n"


def _emit(text: str, args) -> None:
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def cmd_solve(args) -> int:
    problem = _load(args)
    curve = solve_fqp(problem, args.alphas, args.options)
    renderer = {"table": render_table, "csv": render_csv, "plot-data": render_plot_data}
    _emit(renderer[args.format](curve), args)
    all_converged = all(
        r.lower_diag.converged and r.upper_diag.converged for r in curve.records
    )
    return 0 if all_converged else 1


def cmd_validate(args) -> int:
    try:
        _load(args)
    except ValidationError as e:
        for violation in e.violations:
            print(f"invalid: {violation}")
        return 1
    print("ok")
    return 0


def _add_common(sub, with_solver: bool) -> None:
    sub.add_argument("--input", required=True, help="problem file (JSON)")
    sub.add_argument(
        "--symmetrize",
        action="store_true",
        help="replace Q by (Q + Q')/2 component-wise before validation",
    )
    if with_solver:
        sub.add_argument(
            "--alphas",
            default="0:1:0.1",
            type=parse_alpha_spec,
            help="grid as start:stop:step or a comma-separated list (default 0:1:0.1)",
        )
        sub.add_argument("--tol", type=float, help="iterate-change stop tolerance")
        sub.add_argument("--max-iter", type=int, help="iteration cap per solve")
        sub.add_argument("--seed", type=int, help="seed for multistart points")
        sub.add_argument("--output", default=None, help="write to this path instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fuzzyqp",
        description="Solve quadratic programs with triangular fuzzy coefficients "
        "by level-cut decomposition into lower/upper crisp QPs.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    solve = subparsers.add_parser("solve", help="run the sweep and print per-level results")
    _add_common(solve, with_solver=True)
    solve.add_argument(
        "--format", choices=("table", "csv", "plot-data"), default="table"
    )
    solve.set_defaults(func=cmd_solve)

    plot = subparsers.add_parser(
        "plot-data", help="emit the (z, alpha) membership polyline"
    )
    _add_common(plot, with_solver=True)
    plot.set_defaults(func=cmd_solve, format="plot-data")

    check = subparsers.add_parser("validate", help="check that a problem file is well-formed")
    _add_common(check, with_solver=False)
    check.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.func is cmd_solve:  # SolverOptions defaults and checks the solver flags
        given = {k: v for k in ("tol", "max_iter", "seed") if (v := getattr(args, k)) is not None}
        try:
            args.options = SolverOptions(**given)
        except ValueError as e:
            parser.error(f"bad solver flag: {e}")
    try:
        return args.func(args)
    except OSError as e:  # the input, or --output
        print(f"error: {(e.strerror or str(e)).lower()}: {e.filename}", file=sys.stderr)
        return 2
    except ValidationError as e:
        for violation in e.violations:
            print(f"invalid: {violation}", file=sys.stderr)
        return 1
    except (InfeasibleError, UnboundedError, CurveShapeError, ProblemError, UnicodeDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
