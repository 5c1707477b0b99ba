"""In-process A/B timing and bitwise comparison of this tree's solver against
another tree's.

    python3 tools/ab.py REV_OR_DIR [--rounds 10] [--passes 3] [--seeds 1 2 3]
                                   [--workloads registry horizon mpc-sens]

The other side is ``git archive REV`` of this repository, unpacked into a
temporary directory, or a directory holding a tree (its ``src/ipal``). Both
trees' ``ipal`` are loaded into this one process in turn, ``sys.modules``
purged of the first before the second is imported, and each runs the pools
of this tree's ``perfbench/workloads.py``, which is imported (once per side)
and never written. Bytecode is not written, so a directory given as the
other side is left as it was.

Bitwise check: every task of every seed's pool is solved (and differentiated
where the workload does) once per side, and a SHA-256 is taken over x, r, s,
y, z, t, the status, the iterations, the objective and the residual norm,
and dw and ``used_least_squares`` of each differentiated task. Tasks whose
digests differ are named, each with how far it moved: whether its status,
iterations and ``used_least_squares`` match, and per field the largest
difference relative to the field's largest magnitude on either side. The
exit status is 1 when any task differs.

Size: the nonblank lines of the ``.py`` files under each tree's
``src/ipal``, and this tree's count minus the other's, signed.

Timing: each round runs ``--passes`` passes over the first seed's pool per
side, the sides in alternating order from round to round, and keeps each
side's fastest pass. Per workload the report gives the median over rounds of
this tree's time over the other's, the rounds this tree was faster, and the
quartiles of the ratio. ``--rounds 0`` skips timing.
"""

from __future__ import annotations

import os
import sys

# one BLAS thread, set before numpy loads, as perfbench/run.py does
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import io  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tarfile  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from time import perf_counter  # noqa: E402
from typing import Dict, List, Tuple  # noqa: E402

import numpy as np  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS_PATH = os.path.join(ROOT, "perfbench", "workloads.py")
WORKLOADS_NAME = "ab_workloads"
WORKLOAD_NAMES = ("registry", "horizon", "mpc-sens")


@dataclass
class Side:
    """One tree loaded: its ``sys.modules`` entries, ``ipal`` and the
    workloads module run against it."""

    label: str
    modules: Dict[str, object]
    ipal: object
    workloads: object


def _ours(name: str) -> bool:
    return name in ("ipal", WORKLOADS_NAME) or name.startswith("ipal.")


def _purge() -> None:
    for name in [name for name in sys.modules if _ours(name)]:
        del sys.modules[name]


def load(label: str, src: str) -> Side:
    """Import the ``ipal`` under ``src`` and the workloads module against
    it, with no other tree's modules in ``sys.modules``."""
    _purge()
    sys.path.insert(0, src)
    try:
        ipal = importlib.import_module("ipal")
        if not os.path.abspath(ipal.__file__).startswith(os.path.abspath(src) + os.sep):
            raise RuntimeError(f"ipal was imported from {ipal.__file__}, not from {src}")
        spec = importlib.util.spec_from_file_location(WORKLOADS_NAME, WORKLOADS_PATH)
        workloads = importlib.util.module_from_spec(spec)
        # dataclasses look their module up in sys.modules while the file runs
        sys.modules[WORKLOADS_NAME] = workloads
        spec.loader.exec_module(workloads)
    finally:
        sys.path.remove(src)
    return Side(label, {name: mod for name, mod in sys.modules.items() if _ours(name)}, ipal, workloads)


def activate(side: Side) -> None:
    """Make ``side``'s modules the ones ``sys.modules`` holds, for any
    import its code makes while it runs."""
    _purge()
    sys.modules.update(side.modules)


def unpack(rev: str, into: str) -> str:
    """``src/`` of this repository at ``rev``, unpacked under ``into``."""
    tar = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", rev, "src"],
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into, filter="data")
    return os.path.join(into, "src")


ARRAYS = ("x", "r", "s", "y", "z", "t")


def run_task(side: Side, task) -> Tuple[str, dict]:
    """The digest of one task's outputs on ``side``, and the outputs: the
    point's arrays, status, iterations, objective, residual norm, and dw
    and ``used_least_squares`` (or what differentiate raised)."""
    digest = hashlib.sha256()
    sol = side.ipal.solve(task.model, task.x0, task.theta, task.opts)
    out = {name: np.ascontiguousarray(getattr(sol.point, name), dtype=float) for name in ARRAYS}
    out.update(status=sol.status.value, iterations=sol.total_iterations,
               objective=float(sol.objective), residual_norm=float(sol.residual_norm))
    for name in ARRAYS:
        digest.update(out[name].tobytes())
    digest.update(sol.status.value.encode())
    digest.update(np.array([sol.total_iterations], dtype=np.int64).tobytes())
    digest.update(np.array([sol.objective, sol.residual_norm], dtype=float).tobytes())
    if task.differentiate and sol.solved:
        try:
            sens = side.ipal.differentiate(task.model, sol, task.theta)
        except Exception as exc:  # noqa: BLE001 - a raised differentiate is an output too
            out["raised"] = f"{type(exc).__name__}: {exc}"
            digest.update(out["raised"].encode())
        else:
            out["dw"] = np.ascontiguousarray(sens.dw, dtype=float)
            out["used_least_squares"] = bool(sens.used_least_squares)
            digest.update(out["dw"].tobytes())
            digest.update(bytes([sens.used_least_squares]))
    return digest.hexdigest(), out


def relative_difference(a, b) -> float:
    """max |a - b| over the larger of max |a| and max |b|: 0 when bitwise
    equal (NaN matching NaN), inf when the shapes or the NaN places differ."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return np.inf
    if np.array_equal(a, b, equal_nan=True):
        return 0.0
    if not np.array_equal(np.isnan(a), np.isnan(b)):
        return np.inf
    keep = ~np.isnan(a)
    scale = max(np.abs(a[keep]).max(), np.abs(b[keep]).max())
    return float(np.abs(a[keep] - b[keep]).max() / scale) if scale else np.inf


def movement(a: dict, b: dict) -> str:
    """How far one task moved between the outputs ``a`` and ``b``: whether
    its status, iterations, flag and any error match, and the relative
    difference of each field that differs; the others are named equal."""
    parts = []
    for key in ("status", "iterations", "used_least_squares", "raised"):
        if key in a or key in b:
            va, vb = a.get(key), b.get(key)
            parts.append(f"{key} " + ("same" if va == vb else f"{va} / {vb}"))
    moved, same = [], []
    for name in ARRAYS + ("objective", "residual_norm", "dw"):
        if name in a or name in b:
            rel = relative_difference(a[name], b[name]) if name in a and name in b else np.inf
            if rel:
                moved.append(f"{name} {rel:.1e}")
            else:
                same.append(name)
    return ", ".join(parts) + "; max rel diff " + ", ".join(moved) + (f" ({' '.join(same)} equal)" if same else "")


def compare(sides: List[Side], workloads: List[str], seeds: List[int]) -> bool:
    """Print per workload the iterations of each side over the seeds, and
    each task whose digests differ with how far it moved; True when every
    task is bitwise equal."""
    total = [hashlib.sha256() for _ in sides]
    equal = True
    for workload in workloads:
        iterations = [0] * len(sides)
        differ = []
        for seed in seeds:
            runs = []
            for k, side in enumerate(sides):
                activate(side)
                tasks = side.workloads.build_tasks(workload, seed)
                runs.append([run_task(side, task) for task in tasks])
                iterations[k] += sum(out["iterations"] for _, out in runs[-1])
                for d, _ in runs[-1]:
                    total[k].update(d.encode())
            differ += [(f"seed {seed} {task.label}", movement(a[1], b[1]))
                       for task, a, b in zip(tasks, *runs) if a[0] != b[0]]
        equal &= not differ
        print(f"{workload:9s} iterations {' / '.join(map(str, iterations))} "
              f"({' / '.join(side.label for side in sides)}): "
              + ("bitwise equal" if not differ else "DIFFER: " + ", ".join(label for label, _ in differ)))
        for label, moved in differ:
            print(f"  {label}: {moved}")
    print("sha256 " + "  ".join(f"{side.label} {h.hexdigest()[:16]}" for side, h in zip(sides, total)))
    return equal


def nonblank_lines(src: str) -> int:
    """The nonblank lines of the ``.py`` files under ``src/ipal``."""
    total = 0
    for folder, _, files in os.walk(os.path.join(src, "ipal")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(folder, name), encoding="utf-8") as fh:
                    total += sum(1 for line in fh if line.strip())
    return total


def _pass(side: Side, tasks) -> float:
    """Seconds for one pass over the pool: each task solved, and
    differentiated where the workload does."""
    gc.collect()
    t0 = perf_counter()
    for task in tasks:
        sol = side.ipal.solve(task.model, task.x0, task.theta, task.opts)
        if task.differentiate and sol.solved:
            side.ipal.differentiate(task.model, sol, task.theta)
    return perf_counter() - t0


def time_workload(sides: List[Side], workload: str, seed: int, rounds: int, passes: int) -> List[float]:
    """Per round, this tree's fastest pass over the other's; the sides run
    in alternating order from round to round, after one untimed pass each."""
    pools = []
    for side in sides:
        activate(side)
        pools.append(side.workloads.build_tasks(workload, seed))
        _pass(side, pools[-1])
    ratios = []
    for r in range(rounds):
        best = [0.0, 0.0]
        for k in ((0, 1) if r % 2 == 0 else (1, 0)):
            activate(sides[k])
            best[k] = min(_pass(sides[k], pools[k]) for _ in range(passes))
        ratios.append(best[1] / best[0])
    return ratios


def summarize(workload: str, ratios: List[float]) -> str:
    q1, _, q3 = statistics.quantiles(ratios, n=4, method="inclusive") if len(ratios) > 1 else ratios * 3
    faster = sum(r < 1.0 for r in ratios)
    return (f"{workload:9s} this/other median {statistics.median(ratios):.3f}  "
            f"faster {faster}/{len(ratios)}  IQR {q1:.3f}-{q3:.3f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("other", help="a git revision of this repository, or a directory holding a tree")
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--passes", type=int, default=3)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--workloads", nargs="+", choices=WORKLOAD_NAMES, default=list(WORKLOAD_NAMES))
    args = parser.parse_args(argv)
    if args.rounds < 0 or args.passes < 1:
        parser.error("--rounds must be at least 0 and --passes at least 1")
    sys.dont_write_bytecode = True
    with tempfile.TemporaryDirectory() as tmp:
        if os.path.isdir(args.other):
            other = os.path.abspath(args.other)
            other_src, label = os.path.join(other, "src"), os.path.basename(other)
        else:
            other_src, label = unpack(args.other, tmp), args.other
        this_src = os.path.join(ROOT, "src")
        sides = [load(label, other_src), load("this", this_src)]
        equal = compare(sides, args.workloads, args.seeds)
        lines = [nonblank_lines(other_src), nonblank_lines(this_src)]
        print(f"src/ipal nonblank lines {lines[0]} / {lines[1]} ({label} / this): {lines[1] - lines[0]:+d}")
        for workload in args.workloads if args.rounds else ():
            print(summarize(workload, time_workload(sides, workload, args.seeds[0], args.rounds, args.passes)))
    return 0 if equal else 1


if __name__ == "__main__":
    sys.exit(main())
