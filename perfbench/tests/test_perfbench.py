"""Tests of the benchmark itself: its generators, checkers and tracer.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import dataclasses
import json
import os

import numpy as np
import pytest

import hostspeed
import ipal
import layers
import run
import workloads as W
from ipal import differentiate, solve

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SMALL_T = 10


def _small_instance(seed=3):
    return W.tracking_instance(np.random.default_rng(seed), SMALL_T)


def _shifted(sol, **fields):
    point = dataclasses.replace(
        sol.point, **{k: getattr(sol.point, k) + v for k, v in fields.items()}
    )
    return dataclasses.replace(sol, point=point)


# ------------------------------------------------------------ generators


def test_generator_is_deterministic_per_seed_and_differs_across_seeds():
    a = W.build_tasks("horizon", 7)
    b = W.build_tasks("horizon", 7)
    c = W.build_tasks("horizon", 8)
    assert len(a) == W.POOL
    for ta, tb in zip(a, b):
        assert np.array_equal(ta.theta, tb.theta)
        assert np.array_equal(ta.model.objective(ta.x0 + 1.0, ta.theta),
                              tb.model.objective(tb.x0 + 1.0, tb.theta))
    assert not np.array_equal(
        np.array([t.theta for t in a]), np.array([t.theta for t in c])
    )


def test_tracking_phases_cover_every_stratum():
    rng = np.random.default_rng(0)
    for k in range(W.POOL):
        inst = W.tracking_instance(rng, SMALL_T, k, W.POOL)
        # r_p = A sin(phase), r_v = A w cos(phase) at the first knot
        phase = np.arctan2(inst.refs[0, 0], inst.refs[0, 1] / W.REF_OMEGA) % (2 * np.pi)
        assert 2 * np.pi * k / W.POOL <= phase < 2 * np.pi * (k + 1) / W.POOL
        assert np.all(np.abs(inst.initial_state) <= W.X0_RANGE)


def test_registry_seed_only_rotates_the_fixed_problems():
    names = [t.label for t in W.build_tasks("registry", 0)]
    rotated = [t.label for t in W.build_tasks("registry", 3)]
    assert sorted(names) == sorted(rotated)
    assert rotated == names[3:] + names[:3]


# ------------------------------------------------------------ checkers


def test_tracking_certificate_accepts_solution_and_rejects_corruptions():
    inst = _small_instance()
    sol = solve(inst.model, inst.x0, inst.theta, W.HORIZON_OPTS)
    assert W.check_solution(inst, sol, W.HORIZON_OPTS.tol).ok

    assert not W.check_solution(inst, _shifted(sol, x=1e-3), W.HORIZON_OPTS.tol).ok
    # one knot state moved: the dynamics defects around it break
    bad = np.zeros_like(sol.point.x)
    bad[3 * 4] = 1e-3
    assert not W.check_solution(inst, _shifted(sol, x=bad), W.HORIZON_OPTS.tol).ok
    # perturbed multipliers break stationarity
    assert not W.check_solution(inst, _shifted(sol, y=1e-3), W.HORIZON_OPTS.tol).ok
    # a control beyond its bound
    over = sol.point.x.copy()
    over[2] = W.U_MAX + 1e-2
    assert not W.check_tracking(inst, over, sol.point.y, sol.point.z, W.HORIZON_OPTS.tol).ok


def test_registry_gate_rejects_shifted_x():
    task = next(t for t in W.build_tasks("registry", 0) if t.label == "nonneg-qp")
    sol = solve(task.model, task.x0, task.theta, task.opts)
    assert task.check(sol).ok
    assert not task.check(_shifted(sol, x=1e-3)).ok


def test_sensitivity_check_rejects_perturbed_dx():
    inst = _small_instance()
    sol = solve(inst.model, inst.x0, inst.theta, W.SENS_OPTS)
    sens = differentiate(inst.model, sol, inst.theta)
    check = W.check_against_re_solves(sens, inst.model, inst.x0, inst.theta, W.SENS_OPTS)
    assert check.ok, check.detail
    worse = dataclasses.replace(sens, dx=sens.dx + 1e-3 * (1.0 + np.abs(sens.dx).max()))
    assert not W.check_against_re_solves(worse, inst.model, inst.x0, inst.theta, W.SENS_OPTS).ok
    flagged = dataclasses.replace(sens, used_least_squares=True)
    assert not W.check_sensitivity(flagged).ok


def _kinked_differences(kink_at):
    """Central differences of x*(theta) = max(theta - kink_at, 0) at 0, in
    one parameter, plus a smooth second parameter with derivative 2."""

    def differences(step, columns):
        def central(j):
            if j == 1:
                return 2.0
            up, dn = max(step - kink_at, 0.0), max(-step - kink_at, 0.0)
            return (up - dn) / (2.0 * step)

        columns = [0, 1] if columns is None else columns
        return np.array([[central(j) for j in columns]])

    return differences


def test_difference_comparison_refines_and_skips_kinks():
    h = W.FD_STEP
    # kink between h/10 and h: the finer quotient resolves the derivative 0
    near = W.compare_with_differences(np.array([[0.0, 2.0]]), _kinked_differences(0.5 * h))
    assert near.ok and "matched at step" in near.detail
    # kink within h/10: parameter 0 unresolved, parameter 1 still checked
    inside = _kinked_differences(0.02 * h)
    skipped = W.compare_with_differences(np.array([[0.3, 2.0]]), inside)
    assert skipped.ok and "unresolved" in skipped.detail
    assert not W.compare_with_differences(np.array([[0.3, 2.1]]), inside).ok
    # a smooth parameter that is simply wrong fails at both steps
    assert not W.compare_with_differences(np.array([[0.0, 2.5]]), _kinked_differences(-1.0)).ok


def _nth_instance(seed, n):
    rng = np.random.default_rng(seed)
    for k in range(n + 1):
        inst = W.tracking_instance(rng, W.MPC_T, k % W.POOL, W.POOL)
    return inst


@pytest.mark.xfail(strict=True, reason="known solver defect: tight options end in a line-search "
                   "failure on some tracking instances, most often once kappa reaches 2e-9")
@pytest.mark.parametrize("inst, opts", [
    (lambda: W.tracking_instance(np.random.default_rng(0), W.MPC_T), W.TIGHT_OPTS),
    (lambda: _nth_instance(1075, 9), dataclasses.replace(W.SENS_OPTS, kappa_min=1e-10)),
    # the benchmark's own options: about 1 instance in 300 fails, this one
    # is mpc-sens-2 of seed 505
    (lambda: W.build_tasks("mpc-sens", 505)[2], W.SENS_OPTS),
], ids=["criterion-6-options", "tol-1e-8-kappa-min-1e-10", "sens-options-seed-505"])
def test_tight_options_solve_the_tracking_family(inst, opts):
    inst = inst()
    assert solve(inst.model, inst.x0, inst.theta, opts).solved


def test_sens_options_solve_the_instances_tighter_options_fail():
    inst = _nth_instance(1075, 9)
    assert solve(inst.model, inst.x0, inst.theta, W.SENS_OPTS).solved


# ------------------------------------------------------------ tracer


def _tasks_for_tracing():
    registry = W.build_tasks("registry", 0)
    inst = _small_instance()
    return [
        next(t for t in registry if t.label == "particle-friction"),
        next(t for t in registry if t.label == "mpc-autotune"),
        W._tracking_task("small", inst, W.SENS_OPTS, True),
    ]


def _bindings(models):
    """The object behind every binding the tracer patches."""
    out = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in layers.MODULE_TARGETS]
    for model in models:
        out += [(model, field, getattr(model, field)) for field in layers.CALLBACKS]
    return out


def _same(before, after):
    return len(before) == len(after) and all(
        a[0] is b[0] and a[1] == b[1] and a[2] is b[2] for a, b in zip(before, after)
    )


def test_traced_run_restores_every_binding():
    tasks = _tasks_for_tracing()
    before = _bindings([t.model for t in tasks])
    tracer = layers.Tracer()
    for k, task in enumerate(tasks):
        run.run_once(task, solve, differentiate, tracer, k)
    assert _same(before, _bindings([t.model for t in tasks]))
    assert tracer.table()["linsolve.factorize"]["calls"] > 0

    def broken(*args):
        raise RuntimeError("solver crashed")

    with pytest.raises(RuntimeError):
        run.run_once(tasks[0], broken, differentiate, tracer, 99)
    assert _same(before, _bindings([t.model for t in tasks]))


def test_traced_and_untraced_iterations_agree():
    for task in _tasks_for_tracing():
        sol, sens, _, _ = run.run_once(task, solve, differentiate)
        tsol, tsens, _, _ = run.run_once(task, solve, differentiate, layers.Tracer())
        assert tsol.total_iterations == sol.total_iterations
        assert np.array_equal(tsol.point.x, sol.point.x)
        if sens is not None:
            assert np.array_equal(tsens.dx, sens.dx)


def test_direction_counters_come_from_direction_info(monkeypatch):
    infos = []
    original = ipal.solver.search_direction

    def recording(*args, **kwargs):
        out = original(*args, **kwargs)
        infos.append(out[2])
        return out

    monkeypatch.setattr(ipal.solver, "search_direction", recording)
    task = next(t for t in W.build_tasks("registry", 0) if t.label == "particle-friction")
    tracer = layers.Tracer()
    run.run_once(task, solve, differentiate, tracer)
    extra = tracer.extra
    assert len(infos) == tracer.table()["kkt.search_direction"]["calls"] > 0
    assert extra["kkt.refine_passes"] == sum(i.refine_passes for i in infos)
    assert extra["kkt.dense_fallbacks"] == sum(i.used_full_solve for i in infos)
    assert extra["linsolve.shifted_dirs"] == sum(i.eps_p > 0 or i.eps_d > 0 for i in infos)
    assert extra["linsolve.eps_p.max"] == max(i.eps_p for i in infos)
    assert extra["kkt.consistency_error.max"] == max(i.consistency_error for i in infos)


def _traced_metrics(tasks, passes):
    tracer, totals = layers.Tracer(), run.TracedTotals()
    samples, _ = run.measure(tasks, ipal, W, operations=passes * len(tasks),
                             tracer=tracer, totals=totals)
    assert all(s.ok for s in samples)
    return layers.layer_metrics(
        tracer.table(), tracer.extra, passes, totals.iterations, totals.outer_iterations,
        sum(s.solve_s for s in samples), totals.traced_s, totals.untraced_s,
        totals.least_squares, 0.0,
    ), samples


def test_traced_counts_are_per_pass_and_match_untraced_iterations():
    tasks = W.build_tasks("registry", 0)
    one, samples = _traced_metrics(tasks, 1)
    two, _ = _traced_metrics(tasks, 2)
    assert one["solver.iterations"] == sum(s.iterations for s in samples)
    for name in ("solver.iterations", "solver.outer_iterations", "linsolve.factorize.calls",
                 "kkt.assemble_symmetric.calls", "kkt.full_jacobian.bytes",
                 "linsolve.factorize.flops", "kkt.refine_passes"):
        assert one[name] == pytest.approx(two[name], rel=1e-12), name


def test_self_time_excludes_children():
    tracer = layers.Tracer()
    inner = tracer.wrap(lambda: sum(range(20000)), "inner")
    outer = tracer.wrap(lambda: [inner() for _ in range(3)], "outer")
    outer()
    table = tracer.table()
    assert table["inner"]["calls"] == 3
    assert table["outer"]["self_s"] == pytest.approx(
        table["outer"]["total_s"] - table["inner"]["total_s"], abs=1e-12
    )
    assert table["outer"]["root"] and not table["inner"]["root"]


# ------------------------------------------------------------ reporting


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert run.tail([float(v) for v in range(1, 101)]) == (90.0, 90.0, 10)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


class _FixedHost:
    def __init__(self, kernel_ms):
        self.kernel_s = [kernel_ms / 1e3]

    def scale(self):
        return hostspeed.REF_KERNEL_MS / (1e3 * self.kernel_s[0])


def test_operation_times_are_scaled_to_the_reference_host_speed():
    samples = [run.Sample("a", 0.010 * (k + 1), None, 5, True, "") for k in range(5)]
    rows = {name: value for name, value, _, _ in run.end_to_end(
        samples, [0.5, 0.7, 0.6], _FixedHost(2 * hostspeed.REF_KERNEL_MS))}
    assert rows["solve_ms_p50.raw"] == pytest.approx(30.0)
    assert rows["solve_ms_p50"] == pytest.approx(15.0)
    assert rows["solves_per_s"] == pytest.approx(2 * rows["solves_per_s.raw"])
    assert rows["setup_s.raw"] == pytest.approx(0.6)
    assert rows["setup_s"] == pytest.approx(0.3)
    assert rows["fail_frac"] == 0


def test_host_speed_scale_is_reference_over_mean_kernel_time():
    host = hostspeed.HostSpeed(hostspeed.Kernel())
    host.sample(force=True)
    host.sample()  # within EVERY_S of the first: skipped
    host.sample(force=True)
    assert len(host.kernel_s) == 2
    mean_ms = 1e3 * sum(host.kernel_s) / 2
    assert host.scale() == pytest.approx(hostspeed.REF_KERNEL_MS / mean_ms)


def test_benchmark_json_names_metrics_the_run_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    units = {name: unit for name, unit, _, _ in layers.LAYER_METRICS}
    for metric in spec["per_layer"]:
        assert units[metric["name"]] == metric["unit"]
    assert {m["name"] for m in spec["workloads"]} == set(run.WORKLOAD_NAMES)
    assert any(m["name"] == "setup_s" for m in spec["end_to_end"])
