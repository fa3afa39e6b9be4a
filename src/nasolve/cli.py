"""Command-line experiment runner.

Examples:
    nasolve --problem heq --omega 1 --n 500 --method newton --method n_anderson
    nasolve --problem multipoly --k 3 --method newton --out results --format json
    nasolve --problem registry --r 0.5
"""

from __future__ import annotations

import argparse
import sys

from .core import SolverConfig
from .harness import (
    ExperimentSpec,
    compare_table,
    emit_report,
    run_experiment,
    write_summary,
)
from .problems import REGISTRY_NAMES
from .solvers import MethodId

ALL_METHODS = tuple(MethodId)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nasolve",
        description="Run nonlinear-solver benchmark experiments and emit "
        "summary tables plus per-method residual histories.",
    )
    parser.add_argument(
        "--problem",
        required=True,
        help="'heq', 'multipoly', 'registry' (all small-scale problems), "
        f"or a registry name from: {', '.join(REGISTRY_NAMES)}",
    )
    parser.add_argument(
        "--method",
        action="append",
        choices=[m.value for m in MethodId],
        help="repeatable; defaults to all methods",
    )
    parser.add_argument("--n", type=int, help="problem size (heq/multipoly)")
    parser.add_argument("--omega", type=float, help="H-equation parameter")
    parser.add_argument("--k", type=int, help="multipoly exponent (root order k-1)")
    parser.add_argument("--r", type=float, default=SolverConfig.r,
                        help="safeguard parameter in (0,1)")
    parser.add_argument("--tol", type=float, default=SolverConfig.tol)
    parser.add_argument("--max-iters", type=int, default=SolverConfig.max_iters)
    parser.add_argument("--out", default="results", help="output directory")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    methods = tuple(MethodId(m) for m in args.method) if args.method else ALL_METHODS
    try:
        cfg = SolverConfig(tol=args.tol, max_iters=args.max_iters, r=args.r)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    names = REGISTRY_NAMES if args.problem == "registry" else (args.problem,)
    params = {"n": args.n, "omega": args.omega, "k": args.k}
    try:
        reports = [run_experiment(ExperimentSpec(name, methods, config=cfg, **params))
                   for name in names]
        if args.problem == "registry":
            write_summary(reports, f"{args.out}/registry_summary.{args.format}", args.format)
        for report in reports:
            if any(not row.skipped for row in report.rows):
                emit_report(report, args.format, args.out)
    except (KeyError, ValueError) as exc:
        # str() of a KeyError quotes its message
        print(f"error: {exc.args[0] if isinstance(exc, KeyError) else exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    sys.stdout.write(compare_table(reports))
    skipped = [report.problem for report in reports if all(row.skipped for row in report.rows)]
    if skipped:
        print(f"skipped (not transcribed): {', '.join(skipped)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
