"""Run benchmark problems and collect comparable result rows.

Rows carry everything the pass/fail gate needs: solver status, objective gap
against the oracle, the unrelaxed residual, complementarity, and whether the
dual shift ever activated. Reports serialize to JSON losslessly (modulo wall
time, which is excluded from equality) and render as a table or CSV.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import asdict, dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..cone import cone_product
from ..model import evaluate_values
from ..solver import SolverOptions, solve, violation
from .problems import get

GAP_TOL = 1e-5


@dataclass
class BenchmarkRow:
    name: str
    status: str
    objective: Optional[float]
    oracle_objective: float
    objective_gap: Optional[float]
    x_error: Optional[float]
    residual_norm: Optional[float]
    complementarity: Optional[float]
    relaxation_violation: Optional[float]
    iterations: int
    used_dual_shift: bool
    wall_time: float = field(compare=False, default=0.0)

    @property
    def passed(self) -> bool:
        return (
            self.status == "solved"
            and self.objective_gap is not None
            and self.objective_gap <= GAP_TOL * (1.0 + abs(self.oracle_objective))
        )


@dataclass
class BenchmarkReport:
    rows: List[BenchmarkRow]
    tol: float
    gap_tol: float = GAP_TOL
    schema: str = "ipal-bench/1"

    @property
    def passed(self) -> bool:
        return all(row.passed for row in self.rows)

    def to_json(self) -> str:
        payload = {
            "schema": self.schema,
            "tol": self.tol,
            "gap_tol": self.gap_tol,
            "rows": [_row_dict(row) for row in self.rows],
        }
        return json.dumps(payload, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "BenchmarkReport":
        payload = json.loads(text)
        rows = [BenchmarkRow(**row) for row in payload["rows"]]
        return cls(
            rows=rows,
            tol=payload["tol"],
            gap_tol=payload["gap_tol"],
            schema=payload["schema"],
        )


def _row_dict(row: BenchmarkRow) -> Dict:
    out = asdict(row)
    for key, value in out.items():
        if isinstance(value, float) and math.isnan(value):
            out[key] = None
    return out


def _finite_or_none(value: float) -> Optional[float]:
    value = float(value)
    return value if math.isfinite(value) else None


def run_benchmark(
    name: str,
    tol: float = 1e-6,
    max_iters: int = 1000,
    trace_sink: Optional[List[Dict]] = None,
) -> BenchmarkRow:
    """Solve one registry problem and compare it against its oracle. Solver
    failures become row statuses, never exceptions, so a suite run always
    produces a full report."""
    problem = get(name)
    opts = SolverOptions(tol=tol, max_total=max_iters, record_trace=True)
    start = perf_counter()
    sol = solve(problem.model, problem.x0, problem.theta, opts)
    wall = perf_counter() - start
    oracle = problem.oracle(problem.theta)

    if trace_sink is not None:
        for tr in sol.trace:
            entry = {"problem": name}
            entry.update(asdict(tr))
            trace_sink.append(entry)

    objective = _finite_or_none(sol.objective)
    gap = None if objective is None else abs(objective - oracle.objective)
    x_error = None
    residual = _finite_or_none(sol.residual_norm)
    comp = None
    relax = None
    if sol.point is not None and np.all(np.isfinite(sol.point.x)):
        if oracle.unique:
            x_error = float(np.abs(sol.point.x - oracle.x).max())
        if problem.model.p:
            comp = float(
                np.abs(cone_product(sol.point.s, sol.point.t, problem.model.cone)).max()
            )
        else:
            comp = 0.0
        values = evaluate_values(problem.model, sol.point.x, problem.theta)
        relax = _finite_or_none(violation(problem.model, sol.point, values))

    return BenchmarkRow(
        name=name,
        status=sol.status.value,
        objective=objective,
        oracle_objective=float(oracle.objective),
        objective_gap=gap,
        x_error=x_error,
        residual_norm=residual,
        complementarity=comp,
        relaxation_violation=relax,
        iterations=sol.total_iterations,
        used_dual_shift=any(tr.eps_d > 0.0 for tr in sol.trace),
        wall_time=wall,
    )


def run_suite(
    names: Sequence[str],
    tol: float = 1e-6,
    max_iters: int = 1000,
    trace_sink: Optional[List[Dict]] = None,
) -> BenchmarkReport:
    rows = [run_benchmark(name, tol, max_iters, trace_sink) for name in names]
    return BenchmarkReport(rows=rows, tol=tol)


_COLUMNS = (
    "name",
    "status",
    "objective",
    "oracle_objective",
    "objective_gap",
    "x_error",
    "residual_norm",
    "complementarity",
    "iterations",
    "used_dual_shift",
    "wall_time",
)


def _cell(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.3e}"
    return str(value)


def format_table(report: BenchmarkReport) -> str:
    grid = [list(_COLUMNS)]
    for row in report.rows:
        data = _row_dict(row)
        grid.append([_cell(data[col]) for col in _COLUMNS])
    widths = [max(len(line[i]) for line in grid) for i in range(len(_COLUMNS))]
    lines = []
    for k, line in enumerate(grid):
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip())
        if k == 0:
            lines.append("  ".join("-" * w for w in widths))
    lines.append("")
    iterations = sum(row.iterations for row in report.rows)
    lines.append(
        f"overall: {'PASS' if report.passed else 'FAIL'} (tol={report.tol:g}, "
        f"gap tol={report.gap_tol:g}, {iterations} iterations)"
    )
    return "\n".join(lines)


def format_csv(report: BenchmarkReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(_COLUMNS)
    for row in report.rows:
        data = _row_dict(row)
        writer.writerow(["" if data[col] is None else data[col] for col in _COLUMNS])
    return buf.getvalue()
