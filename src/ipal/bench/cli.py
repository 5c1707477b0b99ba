"""Command line front end for the benchmark suite."""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

import numpy as np

from ..model import validate_derivatives
from . import autotune as autotune_mod
from .problems import NotFound, get, names
from .report import format_csv, format_table, run_suite


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ipal-bench",
        description="run the packaged benchmark problems against their reference solutions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list benchmark names")

    run = sub.add_parser("run", help="solve benchmarks and report against the oracles")
    run.add_argument("names", nargs="*", help="benchmark names (see: list)")
    run.add_argument("--all", action="store_true", help="run every benchmark")
    run.add_argument("--tol", type=float, default=1e-6, help="solver tolerance")
    run.add_argument("--max-iters", type=int, default=1000, help="total iteration cap")
    run.add_argument(
        "--format", choices=("table", "json", "csv"), default="table", help="output format"
    )
    run.add_argument(
        "--trace", metavar="PATH",
        help="write per-iteration records as ndjson; count the corrected steps and raised "
        "cone stacks on stderr",
    )

    tune = sub.add_parser("autotune", help="run the closed-loop weight tuning demo")
    tune.add_argument("--steps", type=int, default=10, help="gradient steps")

    val = sub.add_parser("validate", help="finite-difference check a benchmark's derivatives")
    val.add_argument("name", help="benchmark name")

    return parser


def _cmd_list() -> int:
    for name in names():
        print(f"{name:28s} {get(name).description}")
    return 0


def _cmd_run(args) -> int:
    selected = tuple(names()) if args.all else tuple(args.names)
    if not selected:
        print("nothing to run: give benchmark names or --all", file=sys.stderr)
        return 2
    for name in selected:
        try:
            get(name)
        except NotFound as exc:
            print(str(exc), file=sys.stderr)
            return 2

    sink = [] if args.trace else None
    report = run_suite(selected, tol=args.tol, max_iters=args.max_iters, trace_sink=sink)
    if args.trace:
        with open(args.trace, "w") as fh:
            for entry in sink:
                fh.write(json.dumps(entry) + "\n")
        cut = sum(entry["cut"] for entry in sink)
        corrected = sum(entry["corrected"] for entry in sink)
        raised = sum(entry["raised"] for entry in sink)
        print(
            f"trace: {len(sink)} steps to {args.trace}; the boundary cut {cut}: "
            f"{corrected} corrected, {cut - corrected} fell back to the Newton direction; "
            f"{raised} cone stacks raised",
            file=sys.stderr,
        )

    if args.format == "json":
        print(report.to_json())
    elif args.format == "csv":
        print(format_csv(report), end="")
    else:
        print(format_table(report))
    return 0 if report.passed else 1


def _cmd_autotune(args) -> int:
    rep = autotune_mod.autotune(steps=args.steps)
    print(f"open loop cost : {rep.open_loop_cost:.6f}")
    print(f"untuned cost   : {rep.untuned_cost:.6f}  weights {np.round(rep.initial_weights, 6)}")
    print(f"tuned cost     : {rep.tuned_cost:.6f}  weights {np.round(rep.tuned_weights, 6)}")
    for step in rep.steps:
        print(
            f"  step {step.iteration:2d}: cost={step.cost:.6f} "
            f"|grad|={step.gradient_norm:.4f} alpha={step.step_size:.2e}"
        )
    print(f"improved: {'yes' if rep.improved else 'no'}")
    return 0 if rep.improved else 1


def _cmd_validate(args) -> int:
    try:
        problem = get(args.name)
    except NotFound as exc:
        print(str(exc), file=sys.stderr)
        return 2
    model = problem.model
    report = validate_derivatives(
        model,
        np.asarray(problem.x0, dtype=float),
        np.asarray(problem.theta, dtype=float),
        np.ones(model.m),
        np.ones(model.p),
    )
    print(str(report))
    return 0 if report.passed else 1


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "autotune":
        return _cmd_autotune(args)
    return _cmd_validate(args)


if __name__ == "__main__":
    raise SystemExit(main())
