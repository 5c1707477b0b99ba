"""Run-batched evaluation of transcribed problems against the per-stage
reference ``helpers.dense_transcription``: bitwise equal callback outputs on
generated heterogeneous stage sequences, the band of their Schur complement,
errors that name the stage and hook whose output is off, and non-finite hook
outputs reported by ``solve``."""

import contextlib
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import dense_transcription, random_iterate, tracking_problem
from ipal.cone import ConeSpec, Orthant, SecondOrder
from ipal.kkt import assemble_symmetric
from ipal.linsolve import NumericalFailure
from ipal.model import InvalidDimension, StageMatrix, evaluate
from ipal.solver import SolveStatus, solve
from ipal.trajopt import HOOKS, Stage, TrajectoryProblem, transcribe

OPTIONAL = [name for names in HOOKS.values() for name in names[2:] if name]
CONES = [(), (Orthant(1),), (Orthant(2),), (SecondOrder(3),), (Orthant(1), SecondOrder(2))]
STYLES = {
    "array": lambda v: v,
    "list": lambda v: v.tolist(),
    "int": lambda v: np.rint(4.0 * v).astype(int).tolist(),
}


def _never_called(*args):
    raise AssertionError("a hook the transcription must not use was called")


def _hook(rng, shape, width, d, mult, style):
    """A hook of the given output shape: random linear maps of sin(z),
    theta and, with ``mult`` rows, the multiplier, in the given return
    style."""
    A = rng.standard_normal(shape + (width,))
    B = rng.standard_normal(shape + (d,))
    C = rng.standard_normal(shape + (mult,))

    def fn(z, th, *w):
        v = A @ np.sin(z) + B @ th
        if w:
            v = v + C @ w[0]
        return STYLES[style](v)

    return fn


SEGMENT = st.fixed_dictionaries({
    "count": st.integers(1, 4),
    "state": st.integers(1, 3),
    "control": st.integers(0, 2),
    "equality": st.integers(0, 2),
    "cone": st.sampled_from(range(len(CONES))),
    "cost": st.booleans(),
    "optional": st.sets(st.sampled_from(OPTIONAL)),
    "style": st.sampled_from(sorted(STYLES)),
})


@st.composite
def stage_sequences(draw):
    """(problem, x, theta, y, z): stages in segments of like dimensions and
    hooks, each stage with its own hook closures; state and control dims
    change between segments, some stages have no control, equality or cone
    rows, and every optional hook appears on some stages. Hooks a stage
    lacks the rows for (and a cost gradient without a cost) raise if
    called."""
    segments = draw(st.lists(SEGMENT, min_size=1, max_size=4))
    d = draw(st.integers(0, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    specs = [seg for seg in segments for _ in range(seg["count"])]
    T = len(specs)
    stages = []
    for t, seg in enumerate(specs):
        w = seg["state"] + seg["control"]
        cone = ConeSpec(CONES[seg["cone"]])

        def hook(shape, mult=0):
            return _hook(rng, shape, w, d, mult, seg["style"])

        hooks = {name: _never_called for name in seg["optional"]}
        hooks["cost_gradient"] = _never_called
        if seg["cost"]:
            hooks.update(cost=hook(()), cost_gradient=hook((w,)))
        if "cost_hessian" in seg["optional"]:
            hooks["cost_hessian"] = hook((w, w))
        if "cost_param_jacobian" in seg["optional"]:
            hooks["cost_param_jacobian"] = hook((w, d))
        rows = {
            "dynamics": specs[t + 1]["state"] if t < T - 1 else 0,
            "equality": seg["equality"],
            "cone": cone.dim,
        }
        for kind, r in rows.items():
            names = HOOKS[kind]
            if not r:
                continue
            hooks[names[0]], hooks[names[1]] = hook((r,)), hook((r, w))
            for name, shape, mult in zip(names[2:], [(w, w), (r, d), (w, d)], [r, 0, r]):
                if name in seg["optional"]:
                    hooks[name] = hook(shape, mult)
        if seg["equality"] == 0 and draw(st.booleans()):
            # a value hook without rows is never called either
            hooks.update(equality=_never_called, equality_jacobian=_never_called)
        stages.append(Stage(state_dim=seg["state"], control_dim=seg["control"],
                            equality_dim=seg["equality"], cone=cone, **hooks))
    pinned = d >= specs[0]["state"] and draw(st.booleans())
    problem = TrajectoryProblem(
        stages=stages,
        initial_state=rng.standard_normal(specs[0]["state"]),
        num_parameters=d,
        initial_state_param=slice(d - specs[0]["state"], d) if pinned else None,
    )
    n = sum(seg["state"] + seg["control"] for seg in specs)
    m = sum(seg["state"] + seg["equality"] for seg in specs)
    p = sum(ConeSpec(CONES[seg["cone"]]).dim for seg in specs)
    return problem, rng.standard_normal(n), rng.standard_normal(d), rng.standard_normal(m), rng.standard_normal(p)


def _bitwise(got, want):
    got = np.asarray(got)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@settings(derandomize=True, deadline=None, max_examples=80)
@given(stage_sequences())
def test_callbacks_match_the_per_stage_loops_bitwise(case):
    problem, x, theta, y, z = case
    model = transcribe(problem)
    ref = dense_transcription(problem, x, theta, y, z)
    c = model.objective(x, theta)
    assert isinstance(c, float) and np.float64(c).tobytes() == np.float64(ref.c).tobytes()
    _bitwise(model.objective_gradient(x, theta), ref.c_x)
    _bitwise(model.equality(x, theta), ref.g)
    _bitwise(model.equality_jacobian(x, theta), ref.G)
    _bitwise(model.cone_constraint(x, theta), ref.h)
    _bitwise(model.cone_jacobian(x, theta), ref.H)
    _bitwise(model.lagrangian_hessian(x, theta, y, z), ref.L)
    for got, want in zip(model.parameter_jacobians(x, theta, y, z), (ref.L_xt, ref.g_t, ref.h_t)):
        _bitwise(got, want)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(stage_sequences())
def test_the_schur_complement_band_is_read_off_the_stage_widths(case):
    # x is laid out stage by stage: C couples the w_t variables of stage t
    # with each other and, through its defects, with the nx_{t+1} states of
    # the next stage, and no further
    problem, _, theta, _, _ = case
    model = transcribe(problem)
    point, outer = random_iterate(np.random.default_rng(0), model)
    cache = evaluate(model, point.x, theta, point.y, point.z)
    # the plan is kept before C is summed and factored, which may fail here
    with contextlib.suppress(NumericalFailure):
        assemble_symmetric(model, point, outer, cache)
    widths = [stage.state_dim + stage.control_dim for stage in problem.stages]
    reach = [w + stage.state_dim for w, stage in zip(widths, problem.stages[1:])]
    assert model.schur_plan.kd == max(widths + reach) - 1


@settings(derandomize=True, deadline=None, max_examples=60)
@given(stage_sequences(), st.integers(0, 6))
def test_a_product_with_columns_is_its_column_products_bitwise(case, k):
    # a stage matrix, or its transpose, times k columns equals its k
    # products with one column each, bit for bit
    problem, x, theta, y, z = case
    model = transcribe(problem)
    rng = np.random.default_rng(k)
    matrices = [model.equality_jacobian(x, theta), model.cone_jacobian(x, theta),
                model.lagrangian_hessian(x, theta, y, z)]
    for A in (A for M in matrices if isinstance(M, StageMatrix) for A in (M, M.T)):
        V = rng.standard_normal((A.shape[1], k))
        want = np.empty((A.shape[0], k))
        for j in range(k):
            want[:, j] = A @ V[:, j]
        _bitwise(A @ V, want)


# ------------------------------------------------------------------ errors

T_ERR, BAD = 60, 37
D_ERR = 2


def _uniform_problem(hook_name=None, bad=None):
    """T_ERR stages of width 3 (state 2, control 1) with one equality row,
    an Orthant(2) cone and every hook; stage BAD's ``hook_name`` is replaced
    by ``bad`` applied to its correct output."""
    rng = np.random.default_rng(5)
    stages = []
    for t in range(T_ERR):
        hooks = {name: _hook(rng, shape, 3, D_ERR, 0, "array")
                 for name, shape in zip(HOOKS["cost"], [(), (3,), (3, 3), (3, D_ERR)])}
        rows = {"dynamics": 2 if t < T_ERR - 1 else 0, "equality": 1, "cone": 2}
        for kind, r in rows.items():
            if r:
                names = HOOKS[kind]
                shapes = [(r,), (r, 3), (3, 3), (r, D_ERR), (3, D_ERR)]
                mults = [0, 0, r, 0, r]
                for name, shape, mult in zip(names, shapes, mults):
                    hooks[name] = _hook(rng, shape, 3, D_ERR, mult, "array")
        if t == BAD:
            good = hooks[hook_name]
            hooks[hook_name] = lambda *args, good=good: bad(np.asarray(good(*args)))
        stages.append(Stage(state_dim=2, control_dim=1, equality_dim=1,
                            cone=ConeSpec((Orthant(2),)), **hooks))
    return TrajectoryProblem(stages=stages, initial_state=np.zeros(2), num_parameters=D_ERR)


ALL_HOOKS = [name for names in HOOKS.values() for name in names if name]
CALLBACK = {  # the model callback that calls each hook
    "cost": "objective",
    "cost_gradient": "objective_gradient",
    "dynamics": "equality",
    "equality": "equality",
    "cone_constraint": "cone_constraint",
    "dynamics_jacobian": "equality_jacobian",
    "equality_jacobian": "equality_jacobian",
    "cone_jacobian": "cone_jacobian",
}


def _call(model, hook_name):
    rng = np.random.default_rng(1)
    x, theta = rng.standard_normal(model.n), rng.standard_normal(D_ERR)
    y, z = rng.standard_normal(model.m), rng.standard_normal(model.p)
    callback = CALLBACK.get(hook_name)
    if callback is None:
        callback = "lagrangian_hessian" if "hessian" in hook_name else "parameter_jacobians"
        return getattr(model, callback)(x, theta, y, z)
    return getattr(model, callback)(x, theta)


BAD_OUTPUTS = {
    "extra row": lambda v: np.append(v, 0.0) if v.ndim == 0 else np.concatenate([v, v[:1]]),
    "ragged": lambda v: v[..., None],
}


@pytest.mark.parametrize("how", sorted(BAD_OUTPUTS))
@pytest.mark.parametrize("hook_name", ALL_HOOKS)
def test_a_bad_output_in_a_run_names_its_stage_and_hook(hook_name, how):
    model = transcribe(_uniform_problem(hook_name, BAD_OUTPUTS[how]))
    with pytest.raises(InvalidDimension, match=f"^stage {BAD} {hook_name}: expected shape"):
        _call(model, hook_name)


@pytest.mark.parametrize("hook_name", ["cost_gradient", "cost_hessian", "dynamics_jacobian",
                                       "cone_jacobian"])
def test_a_non_finite_hook_output_ends_solve_as_numerical_failure(hook_name):
    # the hook of stage BAD of T_ERR tracking stages turns NaN at its
    # fourth call, partway through the solve
    problem = tracking_problem(T_ERR)
    calls = {"n": 0}
    good = getattr(problem.stages[BAD], hook_name)

    def broken(*args):
        calls["n"] += 1
        return np.full(np.shape(good(*args)), np.nan) if calls["n"] > 3 else good(*args)

    stages = list(problem.stages)
    stages[BAD] = dataclasses.replace(stages[BAD], **{hook_name: broken})
    model = transcribe(dataclasses.replace(problem, stages=stages))
    sol = solve(model, np.zeros(model.n), np.array([0.3, -0.2]))
    assert calls["n"] >= 4 and sol.total_iterations >= 2
    assert sol.status is SolveStatus.NUMERICAL_FAILURE
