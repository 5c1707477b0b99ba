"""Benchmark of the ipal solver: time per solve and per differentiate, set-up
cost and memory on three seeded closed-loop workloads, with every operation
checked for correctness outside the timed region.

    python3 perfbench/run.py --workload all --seed 1
    python3 perfbench/run.py --workload horizon --seed 3 --trace 1

``--trace 0`` runs the closed loop for ``--seconds`` (by default
``run_seconds`` of BENCHMARK.json) and prints the end-to-end metrics, the
times of operations scaled to a reference host speed (see hostspeed.py).
``--trace 1`` runs a fixed number of whole passes over the task pool, every
operation twice, untraced and then with per-layer timing wrappers, and prints
the per-layer metrics per pass. The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
The command exits non-zero if any operation fails its check. Results and
span files go to ``.perfbench/`` in the working directory.
"""

from __future__ import annotations

import os
import sys
import time

# one BLAS thread, set in this process before numpy loads: default threading
# makes small dense factorizations an order of magnitude slower and erratic
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from time import perf_counter  # noqa: E402
from typing import Dict, List, Optional  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = ".perfbench"
# fresh processes whose set-up time is measured; setup_s is their median
SETUP_PROBES = 9
# whole passes over the task pool in a traced run: enough registry passes to
# time its sub-millisecond spans, one pass of each slow trajectory pool
TRACE_PASSES = {"registry": 20, "horizon": 1, "mpc-sens": 1}
WORKLOAD_NAMES = ("registry", "horizon", "mpc-sens")
# per-run limit for one workload when --workload all runs them in turn
CHILD_TIMEOUT_S = 900
SETUP_PROBE_TIMEOUT_S = 120


@dataclass
class Sample:
    """One closed-loop step as the caller saw it; ``solve_s`` is None when
    the operation raised."""

    label: str
    solve_s: Optional[float]
    differentiate_s: Optional[float]
    iterations: int
    ok: bool
    detail: str

    @property
    def step_s(self) -> float:
        return self.solve_s + (self.differentiate_s or 0.0)


@dataclass
class TracedTotals:
    """Totals over the traced twin of every operation."""

    traced_s: float = 0.0
    untraced_s: float = 0.0
    iterations: int = 0
    outer_iterations: int = 0
    least_squares: int = 0


def tail(values: List[float]):
    """Highest percentile with at least 10 samples beyond it, as (value,
    percentile, samples beyond); with 10 samples or fewer, the maximum."""
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, 0
    rank = n - 10
    return xs[rank - 1], 100.0 * rank / n, 10


def _openblas_threads() -> List[int]:
    """Thread counts reported by the OpenBLAS copies numpy and scipy load."""
    import ctypes

    import numpy
    import scipy

    counts = []
    for pkg in (numpy, scipy):
        libdir = os.path.join(os.path.dirname(os.path.dirname(pkg.__file__)), pkg.__name__ + ".libs")
        for path in glob.glob(os.path.join(libdir, "*openblas*")):
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                           "openblas_get_num_threads"):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    fn.argtypes = []
                    counts.append(fn())
                    break
    return counts


def _git_commit() -> str:
    """Commit of the checkout; 'unknown' outside a git repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(seed: int) -> Dict[str, object]:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas_thread_env": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "blas_threads": _openblas_threads(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "seed": seed,
        "commit": _git_commit(),
    }


def run_seconds() -> float:
    """Length of the timed loop: ``run_seconds`` of BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return float(json.load(fh)["run_seconds"])


def declared_metrics(kind: str) -> set:
    """Names BENCHMARK.json declares for the result line; empty without it."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            return {m["name"] for m in json.load(fh)[kind]}
    except FileNotFoundError:
        return set()


def run_once(task, solve, differentiate, tracer=None, op_id=0):
    """Solve (and differentiate) one task; with a tracer, every layer
    wrapper is installed for the call and removed afterwards."""
    if tracer is not None:
        tracer.op_id = op_id
        solve, differentiate = tracer.install(task.model, solve, differentiate)
    try:
        t0 = perf_counter()
        sol = solve(task.model, task.x0, task.theta, task.opts)
        t1 = perf_counter()
        sens = None
        if task.differentiate:
            sens = differentiate(task.model, sol, task.theta)
            diff_s = perf_counter() - t1
        else:
            diff_s = None
    finally:
        if tracer is not None:
            tracer.remove()
    return sol, sens, t1 - t0, diff_s


def judge(task, sol, sens, W):
    check = task.check(sol)
    if check.ok and sens is not None:
        check = W.check_sensitivity(sens)
    return check


def set_up(workload, seed, ipal, W, L, trace=False):
    """Build the tasks and warm up; returns the tasks and, when tracing, the
    time spent in transcribe."""
    tracer = L.Tracer() if trace else None
    if tracer is not None:
        tracer.patch(W, "transcribe", L.TRANSCRIBE)
    try:
        tasks = W.build_tasks(workload, seed)
        for task in W.warmup_tasks(workload, tasks):
            run_once(task, ipal.solve, ipal.differentiate)
    finally:
        if tracer is not None:
            tracer.remove()
    transcribe_s = 0.0
    if tracer is not None:
        transcribe_s = tracer.table().get(L.TRANSCRIBE, {}).get("total_s", 0.0)
    return tasks, transcribe_s


def probe_setup(workload: str, seed: int) -> List[float]:
    """Set-up time of SETUP_PROBES fresh processes, one after another: from
    spawning the interpreter to the point where its first timed operation
    would start (imports, building the tasks, warm-up). The child reads the
    same system-wide monotonic clock when it is ready."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True,
                              timeout=SETUP_PROBE_TIMEOUT_S)
        times.append(float(proc.stdout.split()[-1]) - t0)
    return times


def measure(tasks, ipal, W, seconds=None, operations=None, tracer=None, totals=None,
            host=None):
    """Closed loop over the tasks, for ``seconds`` or for a fixed number of
    ``operations``; with a tracer, every operation runs again traced and must
    take the same iterations; with a host-speed reference, its kernel is
    timed between operations. Returns the samples and, per task with an
    fd_opts, its first sensitivities."""
    if host is not None:
        host.sample(force=True)
    samples: List[Sample] = []
    first_sens = {}
    deadline = perf_counter() + seconds if operations is None else None

    def more(k):
        return k < operations if operations is not None else k == 0 or perf_counter() < deadline

    k = 0
    while more(k):
        task = tasks[k % len(tasks)]
        try:
            sol, sens, solve_s, diff_s = run_once(task, ipal.solve, ipal.differentiate)
            check = judge(task, sol, sens, W)
            if tracer is not None:
                tsol, tsens, tsolve_s, tdiff_s = run_once(
                    task, ipal.solve, ipal.differentiate, tracer, k
                )
                totals.untraced_s += solve_s + (diff_s or 0.0)
                totals.traced_s += tsolve_s + (tdiff_s or 0.0)
                totals.iterations += tsol.total_iterations
                totals.outer_iterations += tsol.outer_iterations
                totals.least_squares += bool(tsens is not None and tsens.used_least_squares)
                if tsol.total_iterations != sol.total_iterations:
                    check = W.Check(False, f"traced iterations {tsol.total_iterations} "
                                           f"!= untraced {sol.total_iterations}")
                elif check.ok:
                    check = judge(task, tsol, tsens, W)
            if task.fd_opts is not None and sens is not None:
                first_sens.setdefault(task.label, (len(samples), sens))
            samples.append(Sample(task.label, solve_s, diff_s, sol.total_iterations,
                                  check.ok, check.detail))
        except Exception:  # one failed operation must not end the run
            samples.append(Sample(task.label, None, None, 0, False,
                                  traceback.format_exc(limit=3)))
        if host is not None:
            host.sample()
        k += 1
    return samples, first_sens


def check_sensitivities(tasks, samples, first_sens, W) -> List[str]:
    """Finite-difference checks, outside the timed loop; a mismatch fails
    the operation whose sensitivities were checked."""
    by_label = {task.label: task for task in tasks}
    lines = []
    for label, (index, sens) in first_sens.items():
        task = by_label[label]
        check = W.check_against_re_solves(sens, task.model, task.x0, task.theta, task.fd_opts)
        sample = samples[index]
        sample.ok = sample.ok and check.ok
        sample.detail += f"; fd check: {check.detail}"
        lines.append(f"fd check {label}: {check.detail}")
    return lines


def end_to_end(samples: List[Sample], setup_probe_s: List[float], host):
    """(name, value, unit, note) for every end-to-end metric that applies.
    Times are at the reference host speed ``host`` measured during the timed
    loop; each also appears as ``<name>.raw``, as the wall clock measured
    it."""
    scale = host.scale()
    timed = [s for s in samples if s.solve_s is not None]
    solve_ms = [1e3 * s.solve_s for s in timed]
    diff_ms = [1e3 * s.differentiate_s for s in timed if s.differentiate_s is not None]
    failed = sum(not s.ok for s in samples)
    rows = []

    def timing(name, raw, unit, note):
        rows.append((name, raw * scale, unit, note))
        rows.append((name + ".raw", raw, unit, ""))

    if timed:
        verified = sum(s.ok for s in timed)
        rate = verified / sum(s.solve_s for s in timed)
        rows.append(("solves_per_s", rate / scale, "1/s", f"({verified} verified solves)"))
        rows.append(("solves_per_s.raw", rate, "1/s", ""))
    for name, values in (("solve", solve_ms), ("differentiate", diff_ms)):
        if values:
            value, pct, beyond = tail(values)
            timing(f"{name}_ms_p50", statistics.median(values), "ms", f"(n={len(values)})")
            timing(f"{name}_ms_tail", value, "ms",
                   f"(p{pct:.1f} of n={len(values)}, {beyond} samples beyond)")
    if timed:
        timing("step_ms_p50", statistics.median(1e3 * s.step_s for s in timed), "ms",
               "(solve plus differentiate)")
    timing("setup_s", statistics.median(setup_probe_s), "s",
           f"(median of {len(setup_probe_s)} fresh processes, raw "
           f"{min(setup_probe_s):.3f} to {max(setup_probe_s):.3f} s)")
    rows.append(("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                 "MB", ""))
    rows.append(("fail_frac", failed / len(samples), "ratio", f"({failed} of {len(samples)})"))
    rows.append(("host.kernel_ms", 1e3 * statistics.fmean(host.kernel_s), "ms",
                 f"(mean of {len(host.kernel_s)}; times above are scaled by {scale:.4f})"))
    return rows


def per_layer(tracer, totals: TracedTotals, samples, passes, transcribe_s, L, label):
    """(name, value, unit, note) for every per-layer metric, after printing
    the per-layer table and its coverage."""
    table = tracer.table()
    metrics = L.layer_metrics(
        table, tracer.extra, passes, totals.iterations, totals.outer_iterations,
        sum(s.solve_s for s in samples if s.solve_s is not None),
        totals.traced_s, totals.untraced_s, totals.least_squares, transcribe_s,
    )
    print(f"per-layer table ({label}, {len(samples)} traced operations in {passes} passes "
          f"of the pool; totals over the run)")
    for line in L.format_report(table, totals.traced_s):
        print("  " + line)
    return [(name, metrics[name], unit, f"(moves {where})")
            for name, unit, _, where in L.LAYER_METRICS]


def run_workload(args) -> int:
    if not os.path.isdir(os.path.join(SRC, "ipal")):
        print(f"error: program source {os.path.join(SRC, 'ipal')} not found", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import ipal
    import layers as L
    import workloads as W
    from hostspeed import HostSpeed, Kernel

    tasks, transcribe_s = set_up(args.workload, args.seed, ipal, W, L, args.trace)
    if args.setup_probe:
        print(time.monotonic())
        return 0
    totals = TracedTotals()
    if args.trace:
        tracer = L.Tracer()
        passes = TRACE_PASSES[args.workload]
        samples, first_sens = measure(tasks, ipal, W, operations=passes * len(tasks),
                                      tracer=tracer, totals=totals)
    else:
        host = HostSpeed(Kernel())
        samples, first_sens = measure(tasks, ipal, W, seconds=args.seconds, host=host)
        setup_probe_s = probe_setup(args.workload, args.seed)
    fd_lines = check_sensitivities(tasks, samples, first_sens, W)
    failed = sum(not s.ok for s in samples)
    env = environment(args.seed)

    length = f"passes {passes}" if args.trace else f"seconds {args.seconds:g}"
    print(f"workload {args.workload} seed {args.seed} {length} trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    for s in samples:
        if not s.ok:
            print(f"FAILED {s.label}: {s.detail}")
    for line in fd_lines:
        print(line)
    if args.trace:
        rows = per_layer(tracer, totals, samples, passes, transcribe_s, L, args.workload)
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write(os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.csv.gz"))
    else:
        rows = end_to_end(samples, setup_probe_s, host)
        if len(samples) >= len(tasks):
            first_pass = sum(s.iterations for s in samples[:len(tasks)])
            print(f"[count] {args.workload} solver.iterations = {first_pass} "
                  f"(first pass of the {len(tasks)}-task pool)")
    for name, value, unit, note in rows:
        print(f"[{unit}] {args.workload} {name} = {value:.6g} {note}".rstrip())

    report = {name: {"value": value, "unit": unit} for name, value, unit, _ in rows}
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump({"env": env, "metrics": report, "attempted": len(samples), "failed": failed,
                   "setup_probe_s": None if args.trace else setup_probe_s,
                   "host_kernel_s": None if args.trace else host.kernel_s,
                   "samples": [s.__dict__ for s in samples]}, fh, indent=1)

    selected = declared_metrics("per_layer" if args.trace else "end_to_end") or set(report)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: m for name, m in report.items() if name in selected},
    }))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Each workload in its own process, so set-up time and peak memory are
    its own; the combined result prefixes metric names with the workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (json.JSONDecodeError, IndexError):
            print(lines[-1] if lines else "", flush=True)
            return proc.returncode or 1
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
        code = code or proc.returncode
    print(json.dumps(combined))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the timed loop; run_seconds of BENCHMARK.json by default")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up one workload, print the monotonic clock and exit "
                             "(how setup_s is measured)")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = run_seconds()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
