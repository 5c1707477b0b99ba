"""Outside-in per-layer tracing of the solver.

Timing wrappers go on the module attribute each caller actually looks up:
``ipal.solver``, ``ipal.kkt`` and ``ipal.sensitivity`` import their helpers
with ``from ... import``, so patching only the defining module would miss
those calls. The callback fields of the model instance are wrapped too. Each
span records its name, start, end, parent span and operation id; spans are
kept in memory and written out once at the end. The wrappers are removed
after every operation, so an untraced call never pays for them.

Counters that are not spans come from the values the wrapped functions
return: the ``DirectionInfo`` of every ``search_direction`` gives the
refinement passes, dense-fallback use, the shifts chosen and the consistency
error of each Newton direction.
"""

from __future__ import annotations

import gzip
import importlib
from array import array
from time import perf_counter
from typing import Dict, List, Tuple

import numpy as np

_solver = importlib.import_module("ipal.solver")
_kkt = importlib.import_module("ipal.kkt")
_linsolve = importlib.import_module("ipal.linsolve")
_sensitivity = importlib.import_module("ipal.sensitivity")


def _add(acc, key, amount):
    acc[key] = acc.get(key, 0.0) + amount


def _factorize_flops(acc, args, out):
    _add(acc, "linsolve.factorize.flops", args[0].shape[0] ** 3 / 3.0)


def _jacobian_bytes(acc, args, out):
    _add(acc, "kkt.full_jacobian.bytes", float(out.nbytes))


def _direction_info(acc, args, out):
    """Sums and maxima over the DirectionInfo of every Newton direction."""
    info = out[2]
    _add(acc, "kkt.refine_passes", info.refine_passes)
    _add(acc, "kkt.dense_fallbacks", int(info.used_full_solve))
    _add(acc, "linsolve.shifted_dirs", int(info.eps_p > 0.0 or info.eps_d > 0.0))
    for key, value in (("linsolve.eps_p.max", info.eps_p), ("linsolve.eps_d.max", info.eps_d),
                       ("kkt.consistency_error.max", info.consistency_error)):
        acc[key] = max(acc.get(key, 0.0), float(value))


# (module, attribute, span name, extra counter) for every patched binding
MODULE_TARGETS = (
    (_solver, "evaluate", "model.evaluate", None),
    (_solver, "evaluate_values", "model.evaluate_values", None),
    (_solver, "residual", "kkt.residual", None),
    (_solver, "search_direction", "kkt.search_direction", _direction_info),
    (_solver, "filter_step", "solver.filter_step", None),
    (_solver, "max_step_to_boundary", "cone.max_step_to_boundary", None),
    (_solver, "barrier_value", "cone.barrier_value", None),
    (_solver, "unrelaxed_residual_norm", "solver.unrelaxed_residual_norm", None),
    (_kkt, "residual", "kkt.residual", None),
    (_kkt, "assemble_symmetric", "kkt.assemble_symmetric", None),
    (_kkt, "full_jacobian", "kkt.full_jacobian", _jacobian_bytes),
    (_kkt, "correct_inertia", "linsolve.correct_inertia", None),
    (_kkt, "solve_refined", "linsolve.solve_refined", None),
    (_kkt, "cone_product_jacobians", "cone.product_jacobians", None),
    (_linsolve, "factorize", "linsolve.factorize", _factorize_flops),
    (_sensitivity, "evaluate", "model.evaluate", None),
    (_sensitivity, "full_jacobian", "kkt.full_jacobian", _jacobian_bytes),
    (_sensitivity, "evaluate_parameter_jacobians", "model.evaluate_parameter_jacobians", None),
)
CALLBACKS = (
    "objective",
    "objective_gradient",
    "equality",
    "equality_jacobian",
    "cone_constraint",
    "cone_jacobian",
    "lagrangian_hessian",
    "parameter_jacobians",
)
DENSE_CALLBACKS = ("equality_jacobian", "cone_jacobian", "lagrangian_hessian")

SOLVE = "solver.solve"
DIFFERENTIATE = "sensitivity.differentiate"
TRANSCRIBE = "trajopt.transcribe"


class Tracer:
    """Span store plus the bookkeeping to install and remove wrappers."""

    def __init__(self):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.op = array("i")
        self.parent = array("i")
        self.root = array("i")
        self.start = array("d")
        self.end = array("d")
        self.extra: Dict[str, float] = {}
        self.op_id = 0
        self._stack: List[int] = []
        self._saved: List[Tuple[object, str, object]] = []

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, extra=None):
        """Return ``fn`` recording one span per call."""
        nid = self._intern(name)
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.op.append(self.op_id)
            self.parent.append(stack[-1] if stack else -1)
            self.root.append(stack[0] if stack else idx)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                stack.pop()
            if extra is not None:
                extra(self.extra, args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name: str, extra=None) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, extra))

    def install(self, model, solve, differentiate):
        """Wrap every module target and the model's callback fields; returns
        ``solve`` and ``differentiate`` wrapped as the root spans."""
        if self._saved:
            raise RuntimeError("wrappers already installed")
        for owner, attr, name, extra in MODULE_TARGETS:
            self.patch(owner, attr, name, extra)
        for field in CALLBACKS:
            if getattr(model, field) is not None:
                self.patch(model, field, f"callbacks.{field}")
        return self.wrap(solve, SOLVE), self.wrap(differentiate, DIFFERENTIATE)

    def remove(self) -> None:
        """Restore every original binding, last patched first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------ analysis

    def table(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total seconds, self seconds, and the calls
        made under a ``solver.solve`` root."""
        n = len(self.start)
        names = np.frombuffer(self.name_id, dtype=np.int32, count=n)
        parent = np.frombuffer(self.parent, dtype=np.int32, count=n)
        root = np.frombuffer(self.root, dtype=np.int32, count=n)
        dur = np.frombuffer(self.end, count=n) - np.frombuffer(self.start, count=n)
        child = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        solve_id = self._ids.get(SOLVE, -1)
        under_solve = names[root] == solve_id
        filter_id = self._ids.get("solver.filter_step", -1)
        under_filter = np.zeros(n, dtype=bool)
        under_filter[has_parent] = names[parent[has_parent]] == filter_id
        out = {}
        for nid, name in enumerate(self.names):
            sel = names == nid
            out[name] = {
                "calls": int(sel.sum()),
                "total_s": float(dur[sel].sum()),
                "self_s": float(self_time[sel].sum()),
                "calls_in_solve": int((sel & under_solve).sum()),
                "calls_in_filter": int((sel & under_filter).sum()),
                "root": bool((sel & ~has_parent).any()),
            }
        return out

    def write(self, path: str) -> None:
        """Gzipped CSV, one line per span: op, span, parent, name, and start
        and end in seconds from the first span."""
        n = len(self.start)
        t0 = self.start[0] if n else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("op,span,parent,name,start_s,end_s\n")
            for i in range(n):
                fh.write(
                    f"{self.op[i]},{i},{self.parent[i]},{self.names[self.name_id[i]]},"
                    f"{self.start[i] - t0:.7f},{self.end[i] - t0:.7f}\n"
                )


# name, unit, better, the end-to-end metric it should move and where
LAYER_METRICS: Tuple[Tuple[str, str, str, str], ...] = (
    ("linsolve.factorize.self_ms", "ms", "lower", "solve_ms_p50: horizon flops; registry call overhead"),
    ("linsolve.factorize.calls", "count", "lower", "solve_ms_p50: all"),
    ("linsolve.factorize.flops", "flop", "lower", "solve_ms_p50: horizon, mpc-sens"),
    ("linsolve.trials_per_dir", "ratio", "lower", "solves_per_s: registry, mpc-sens"),
    ("linsolve.shifted_dirs", "count", "lower", "solves_per_s: registry"),
    ("linsolve.eps_p.max", "1", "lower", "solves_per_s: registry"),
    ("linsolve.eps_d.max", "1", "lower", "solves_per_s: registry"),
    ("linsolve.solve_refined.self_ms", "ms", "lower", "solves_per_s: registry"),
    ("kkt.refine_passes", "count", "lower", "solves_per_s: registry"),
    ("kkt.dense_fallbacks", "count", "lower", "solve_ms_p50: all"),
    ("kkt.consistency_error.max", "1", "lower", "none: accuracy of the reduced solve"),
    ("kkt.full_jacobian.self_ms", "ms", "lower", "solve_ms_p50, peak_rss_mb: horizon, registry"),
    ("kkt.full_jacobian.bytes", "B", "lower", "peak_rss_mb: horizon"),
    ("kkt.assemble_symmetric.self_ms", "ms", "lower", "solve_ms_p50: horizon, registry"),
    ("kkt.assemble_symmetric.calls", "count", "lower", "solve_ms_p50: all"),
    ("kkt.search_direction.ms", "ms", "lower", "solve_ms_p50: all"),
    ("kkt.search_direction.self_ms", "ms", "lower", "solve_ms_p50: all"),
    ("kkt.residual.per_iter", "ratio", "lower", "solves_per_s: registry"),
    ("kkt.residual.self_ms", "ms", "lower", "solves_per_s: registry"),
    ("model.evaluate.per_iter", "ratio", "lower", "solves_per_s: registry"),
    ("model.evaluate.self_ms", "ms", "lower", "solves_per_s: registry"),
    ("model.evaluate_values.per_iter", "ratio", "lower", "solves_per_s: registry"),
    ("callbacks.ms", "ms", "lower", "solve_ms_p50: horizon"),
    ("callbacks.dense_ms", "ms", "lower", "solve_ms_p50: horizon, mpc-sens"),
    ("cone.max_step_to_boundary.self_ms", "ms", "lower", "solve_ms_p50: horizon; solves_per_s: registry"),
    ("cone.product_jacobians.self_ms", "ms", "lower", "solve_ms_p50: horizon; solves_per_s: registry"),
    ("cone.barrier_value.self_ms", "ms", "lower", "solve_ms_p50: horizon; solves_per_s: registry"),
    ("solver.filter_step.self_ms", "ms", "lower", "solves_per_s: registry"),
    ("solver.ls_trials_per_iter", "ratio", "lower", "solves_per_s: registry"),
    ("solver.iterations", "count", "lower", "every time metric: all"),
    ("solver.outer_iterations", "count", "lower", "every time metric: all"),
    ("solver.iter_ms", "ms", "lower", "every time metric: all"),
    ("solver.solve.self_ms", "ms", "lower", "every time metric: all"),
    ("sensitivity.differentiate.self_ms", "ms", "lower", "differentiate_ms_p50: mpc-sens"),
    ("sensitivity.least_squares", "count", "lower", "differentiate_ms_p50: mpc-sens"),
    ("trajopt.transcribe.ms", "ms", "lower", "setup_s: horizon, mpc-sens"),
    ("trace.overhead", "ratio", "lower", "none: traced / untraced timed wall time"),
)


def layer_metrics(
    table: Dict[str, Dict[str, float]],
    extra: Dict[str, float],
    passes: int,
    iterations: int,
    outer_iterations: int,
    untraced_solve_s: float,
    traced_wall_s: float,
    untraced_wall_s: float,
    least_squares: int,
    transcribe_s: float,
) -> Dict[str, float]:
    """Every metric of LAYER_METRICS from a traced run of ``passes`` whole
    passes over the task pool. Counts and times are per pass, so they do not
    depend on how many passes ran; names with per_iter, per_dir, max or
    overhead are ratios or maxima over the run. ``trajopt.transcribe.ms`` is
    the set-up's transcription of the whole pool."""

    def get(name, key):
        return table.get(name, {}).get(key, 0)

    def count(name):
        return get(name, "calls") / passes

    def ms(name, key="self_s"):
        return 1e3 * get(name, key) / passes

    def extra_total(name):
        return extra.get(name, 0.0) / passes

    iters = max(iterations, 1)
    directions = get("kkt.search_direction", "calls")
    filters = get("solver.filter_step", "calls")
    callbacks = [name for name in table if name.startswith("callbacks.")]
    return {
        "linsolve.factorize.self_ms": ms("linsolve.factorize"),
        "linsolve.factorize.calls": count("linsolve.factorize"),
        "linsolve.factorize.flops": extra_total("linsolve.factorize.flops"),
        "linsolve.trials_per_dir": get("linsolve.factorize", "calls") / max(directions, 1),
        "linsolve.shifted_dirs": extra_total("linsolve.shifted_dirs"),
        "linsolve.eps_p.max": extra.get("linsolve.eps_p.max", 0.0),
        "linsolve.eps_d.max": extra.get("linsolve.eps_d.max", 0.0),
        "linsolve.solve_refined.self_ms": ms("linsolve.solve_refined"),
        "kkt.refine_passes": extra_total("kkt.refine_passes"),
        "kkt.dense_fallbacks": extra_total("kkt.dense_fallbacks"),
        "kkt.consistency_error.max": extra.get("kkt.consistency_error.max", 0.0),
        "kkt.full_jacobian.self_ms": ms("kkt.full_jacobian"),
        "kkt.full_jacobian.bytes": extra_total("kkt.full_jacobian.bytes"),
        "kkt.assemble_symmetric.self_ms": ms("kkt.assemble_symmetric"),
        "kkt.assemble_symmetric.calls": count("kkt.assemble_symmetric"),
        "kkt.search_direction.ms": ms("kkt.search_direction", "total_s"),
        "kkt.search_direction.self_ms": ms("kkt.search_direction"),
        "kkt.residual.per_iter": get("kkt.residual", "calls_in_solve") / iters,
        "kkt.residual.self_ms": ms("kkt.residual"),
        "model.evaluate.per_iter": get("model.evaluate", "calls_in_solve") / iters,
        "model.evaluate.self_ms": ms("model.evaluate"),
        "model.evaluate_values.per_iter": get("model.evaluate_values", "calls_in_solve") / iters,
        "callbacks.ms": sum(ms(name, "total_s") for name in callbacks),
        "callbacks.dense_ms": sum(ms(f"callbacks.{f}", "total_s") for f in DENSE_CALLBACKS),
        "cone.max_step_to_boundary.self_ms": ms("cone.max_step_to_boundary"),
        "cone.product_jacobians.self_ms": ms("cone.product_jacobians"),
        "cone.barrier_value.self_ms": ms("cone.barrier_value"),
        "solver.filter_step.self_ms": ms("solver.filter_step"),
        "solver.ls_trials_per_iter": get("model.evaluate_values", "calls_in_filter") / max(filters, 1),
        "solver.iterations": iterations / passes,
        "solver.outer_iterations": outer_iterations / passes,
        "solver.iter_ms": 1e3 * untraced_solve_s / iters,
        "solver.solve.self_ms": ms(SOLVE),
        "sensitivity.differentiate.self_ms": ms(DIFFERENTIATE),
        "sensitivity.least_squares": least_squares / passes,
        "trajopt.transcribe.ms": 1e3 * transcribe_s,
        "trace.overhead": traced_wall_s / untraced_wall_s if untraced_wall_s > 0 else float("nan"),
    }


def format_report(table: Dict[str, Dict[str, float]], traced_wall_s: float) -> List[str]:
    """Per-layer calls, self time and share of the traced timed wall time,
    then the coverage: layer self time, unattributed root self time, and
    time outside any span."""
    lines = [f"{'span':40s} {'calls':>9s} {'self_ms':>11s} {'share':>7s}"]
    rows = sorted(table.items(), key=lambda kv: -kv[1]["self_s"])
    for name, row in rows:
        share = row["self_s"] / traced_wall_s if traced_wall_s > 0 else float("nan")
        lines.append(f"{name:40s} {row['calls']:9d} {1e3 * row['self_s']:11.2f} {share:7.1%}")
    layer_self = sum(row["self_s"] for row in table.values() if not row["root"])
    root_self = sum(row["self_s"] for row in table.values() if row["root"])
    root_total = sum(row["total_s"] for row in table.values() if row["root"])
    outside = traced_wall_s - root_total
    lines.append(
        f"coverage: layer self {1e3 * layer_self:.1f} ms ({layer_self / traced_wall_s:.1%}), "
        f"unattributed inside solve/differentiate {1e3 * root_self:.1f} ms "
        f"({root_self / traced_wall_s:.1%}), outside spans {1e3 * outside:.1f} ms "
        f"({outside / traced_wall_s:.1%}) of {1e3 * traced_wall_s:.1f} ms timed wall"
    )
    return lines
