"""Direct transcription of trajectory problems into the solver's model form.

The decision vector interleaves knot states and controls, x = (X1, U1, X2,
U2, ..., XT), and the equality block stacks the initial-state pin, the
dynamics defects F_t(X_t, U_t, theta) - X_{t+1}, and any per-stage equality
constraints. Per-stage cone constraints are concatenated in stage order.

The model's callbacks evaluate the stage hooks by runs: a run is a maximal
sequence of consecutive stages that all have a given hook, with equal stage
width, output shape and multiplier width. ``transcribe`` finds the runs
once. Each callback then loops over runs only: it calls the run's hooks,
one Python call per stage, on the rows of the run's slice of x reshaped to
(stages, width), stacks their outputs into one array with one shape check,
and writes it with one scatter at positions fixed at transcription. A
mismatched output is re-checked stage by stage, so the error names the
stage and hook. Outputs are bitwise those of calling each stage in turn.

The derivative callbacks return ``StageMatrix`` objects that hold only the
stage blocks (and the constant +-I couplings of g_x), on patterns fixed at
transcription. Since x is laid out stage by stage and only the defect rows
couple neighbouring stages, the Schur complement of the reduced KKT system
onto x, which the solver factors, is banded in x's own order, its band read
off these blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .cone import ConeSpec, concatenate
from .model import InvalidDimension, Pattern, ProblemModel, StageMatrix


def _shaped(value, shape, what):
    out = np.asarray(value, dtype=float)
    if out.shape != shape:
        raise InvalidDimension(f"{what}: expected shape {shape}, got {out.shape}")
    return out


@dataclass
class Stage:
    """One knot point: its variables, cost, outgoing dynamics, and constraints.

    All callbacks take (z, theta) with z the stage vector (state and control
    concatenated). Derivative hooks for constraint curvature take
    (z, theta, w) and return the Hessian (or theta cross derivative) of w'fn;
    they default to zero, which is exact for constraints linear in z (or
    theta). ``cost_hessian`` also defaults to zero, so stages with nonlinear
    cost should supply it. Hooks may return arrays, nested lists or numbers
    of the documented shape; an array returned must not be modified by a
    later call, since a run of stages stacks its outputs after calling every
    stage's hook.
    """

    state_dim: int
    control_dim: int = 0
    cost: Optional[Callable] = None
    cost_gradient: Optional[Callable] = None
    cost_hessian: Optional[Callable] = None
    cost_param_jacobian: Optional[Callable] = None
    dynamics: Optional[Callable] = None
    dynamics_jacobian: Optional[Callable] = None
    dynamics_param_jacobian: Optional[Callable] = None
    dynamics_hessian_vp: Optional[Callable] = None
    dynamics_cross_param_vp: Optional[Callable] = None
    equality: Optional[Callable] = None
    equality_jacobian: Optional[Callable] = None
    equality_param_jacobian: Optional[Callable] = None
    equality_hessian_vp: Optional[Callable] = None
    equality_cross_param_vp: Optional[Callable] = None
    equality_dim: int = 0
    cone_constraint: Optional[Callable] = None
    cone_jacobian: Optional[Callable] = None
    cone_param_jacobian: Optional[Callable] = None
    cone_hessian_vp: Optional[Callable] = None
    cone_cross_param_vp: Optional[Callable] = None
    cone: ConeSpec = field(default_factory=lambda: ConeSpec(()))

    @property
    def width(self) -> int:
        return self.state_dim + self.control_dim

    def __post_init__(self):
        if self.state_dim < 1 or self.control_dim < 0 or self.equality_dim < 0:
            raise InvalidDimension(
                f"bad stage dims state={self.state_dim} control={self.control_dim}"
            )
        if self.cost is not None and self.cost_gradient is None:
            raise InvalidDimension("stage cost requires cost_gradient")
        if self.dynamics is not None and self.dynamics_jacobian is None:
            raise InvalidDimension("stage dynamics requires dynamics_jacobian")
        if self.equality_dim > 0 and (self.equality is None or self.equality_jacobian is None):
            raise InvalidDimension("equality_dim > 0 requires equality callbacks")
        if self.cone.dim > 0 and (self.cone_constraint is None or self.cone_jacobian is None):
            raise InvalidDimension("nonempty cone requires cone callbacks")


@dataclass
class TrajectoryProblem:
    """Stage sequence plus the initial state and parameter bookkeeping.

    Every stage except the last needs dynamics (it owns the defect to the
    next knot); the last stage must not define dynamics. When
    ``initial_state_param`` is set, the initial state is read from that slice
    of theta instead of ``initial_state`` and the pin row picks up a -I
    parameter Jacobian block.
    """

    stages: Sequence[Stage]
    initial_state: np.ndarray
    num_parameters: int = 0
    initial_state_param: Optional[slice] = None

    def __post_init__(self):
        self.stages = tuple(self.stages)
        if not self.stages:
            raise InvalidDimension("need at least one stage")
        for t, st in enumerate(self.stages[:-1]):
            if st.dynamics is None:
                raise InvalidDimension(f"stage {t}: non-terminal stage needs dynamics")
        if self.stages[-1].dynamics is not None:
            raise InvalidDimension(f"stage {len(self.stages) - 1}: terminal stage has dynamics")
        self.initial_state = _shaped(
            self.initial_state, (self.stages[0].state_dim,), "initial_state"
        )
        if self.num_parameters < 0:
            raise InvalidDimension("num_parameters must be nonnegative")
        if self.initial_state_param is not None:
            idx = range(*self.initial_state_param.indices(self.num_parameters))
            if len(idx) != self.stages[0].state_dim:
                raise InvalidDimension(
                    f"initial_state_param selects {len(idx)} parameters, "
                    f"need {self.stages[0].state_dim}"
                )

    @property
    def horizon(self) -> int:
        return len(self.stages)


@dataclass(frozen=True)
class IndexMap:
    """Slices locating each stage in the decision vector and constraint
    stacks: ``state``/``control``/``stage`` index into x, ``init``/
    ``defect``/``equality`` into g, ``cone`` into h."""

    n: int
    m: int
    p: int
    state: Tuple[slice, ...]
    control: Tuple[slice, ...]
    stage: Tuple[slice, ...]
    init: slice
    defect: Tuple[slice, ...]
    equality: Tuple[slice, ...]
    cone: Tuple[slice, ...]


def index_map(problem: TrajectoryProblem) -> IndexMap:
    state, control, stage = [], [], []
    off = 0
    for st in problem.stages:
        state.append(slice(off, off + st.state_dim))
        control.append(slice(off + st.state_dim, off + st.width))
        stage.append(slice(off, off + st.width))
        off += st.width
    n = off

    d0 = problem.stages[0].state_dim
    init = slice(0, d0)
    off = d0
    defect = []
    for t in range(len(problem.stages) - 1):
        nxt = problem.stages[t + 1].state_dim
        defect.append(slice(off, off + nxt))
        off += nxt
    equality = []
    for st in problem.stages:
        equality.append(slice(off, off + st.equality_dim))
        off += st.equality_dim
    m = off

    cone, off = [], 0
    for st in problem.stages:
        cone.append(slice(off, off + st.cone.dim))
        off += st.cone.dim
    p = off
    return IndexMap(
        n=n,
        m=m,
        p=p,
        state=tuple(state),
        control=tuple(control),
        stage=tuple(stage),
        init=init,
        defect=tuple(defect),
        equality=tuple(equality),
        cone=tuple(cone),
    )


def _pattern(shape, blocks) -> Tuple[Pattern, list]:
    """Pattern of the blocks (rows, cols, diagonal), row and column slices
    whose every entry, or with ``diagonal`` only the diagonal, is stored,
    row-major, one block after another; and the storage slice of each
    block."""
    spec = np.array([(r.start, r.stop - r.start, c.start, c.stop - c.start, d) for r, c, d in blocks])
    r0, nr, c0, nc, diagonal = spec.T
    per_row = np.where(diagonal == 1, 1, nc)
    size = nr * per_row
    stop = np.cumsum(size)
    which = np.repeat(np.arange(len(blocks)), size)  # block of each stored entry
    k = np.arange(stop[-1]) - (stop - size)[which]  # its position within the block
    rows = r0[which] + k // per_row[which]
    cols = c0[which] + np.where(diagonal[which] == 1, k, k % per_row[which])
    return Pattern(shape, rows, cols), [slice(a - b, a) for a, b in zip(stop.tolist(), size.tolist())]


def extract_trajectory(problem, x):
    """Split a decision vector into (states, controls) lists, without the
    terminal control; InvalidDimension unless x has shape (n,)."""
    imap = index_map(problem)
    x = _shaped(x, (imap.n,), "decision vector")
    states = [x[sl].copy() for sl in imap.state]
    controls = [x[sl].copy() for sl in imap.control[:-1]]
    return states, controls


def stack_trajectory(problem, states, controls):
    """Inverse of extract_trajectory; a missing terminal control is zeros."""
    T = problem.horizon
    if len(states) != T:
        raise InvalidDimension(f"expected {T} states, got {len(states)}")
    if len(controls) not in (T - 1, T):
        raise InvalidDimension(f"expected {T - 1} controls, got {len(controls)}")
    parts = []
    for t, st in enumerate(problem.stages):
        parts.append(_shaped(states[t], (st.state_dim,), f"stage {t} state"))
        if st.control_dim:
            u = controls[t] if t < len(controls) else np.zeros(st.control_dim)
            parts.append(_shaped(u, (st.control_dim,), f"stage {t} control"))
    return np.concatenate(parts) if parts else np.zeros(0)


def _initial_state(problem, theta):
    if problem.initial_state_param is not None:
        return np.asarray(theta, dtype=float)[problem.initial_state_param]
    return problem.initial_state


def dynamics_rollout(problem, controls, theta=None, initial_state=None):
    """Integrate the stage dynamics forward; returns the list of knot states."""
    T = problem.horizon
    if theta is None:
        theta = np.zeros(problem.num_parameters)
    if initial_state is None:
        initial_state = _initial_state(problem, theta)
    states = [np.asarray(initial_state, dtype=float).copy()]
    for t in range(T - 1):
        st = problem.stages[t]
        u = _shaped(controls[t], (st.control_dim,), f"stage {t} control")
        z = np.concatenate([states[-1], u])
        nxt = problem.stages[t + 1].state_dim
        states.append(_shaped(st.dynamics(z, theta), (nxt,), f"stage {t} dynamics"))
    return states


# The stage hooks of each kind, in the roles (value, Jacobian, Hessian-vp,
# parameter Jacobian, cross-parameter vp). The cost's Jacobian is its
# gradient, its Hessian takes no multiplier, and it has no cross term.
HOOKS = {
    "cost": ("cost", "cost_gradient", "cost_hessian", "cost_param_jacobian", None),
    "dynamics": ("dynamics", "dynamics_jacobian", "dynamics_hessian_vp",
                 "dynamics_param_jacobian", "dynamics_cross_param_vp"),
    "equality": ("equality", "equality_jacobian", "equality_hessian_vp",
                 "equality_param_jacobian", "equality_cross_param_vp"),
    "cone": ("cone_constraint", "cone_jacobian", "cone_hessian_vp",
             "cone_param_jacobian", "cone_cross_param_vp"),
}
# the multiplier each kind's Hessian-vp and cross-parameter hooks take
DUAL = {"cost": None, "dynamics": "y", "equality": "y", "cone": "z"}
# the hooks added into each stage's Hessian block, and into its rows of
# L_xt, in the order they are added
HESSIAN_TERMS = [names[2] for names in HOOKS.values()]
CROSS_TERMS = ["cost_param_jacobian"] + [names[4] for names in HOOKS.values() if names[4]]


def _joined(slices):
    """The stage slices as one slice when each starts where the previous
    stops, else as the indices they cover."""
    if all(a.stop == b.start for a, b in zip(slices, slices[1:])):
        return slice(slices[0].start, slices[-1].stop)
    return np.concatenate([np.arange(s.start, s.stop) for s in slices])


@dataclass(frozen=True)
class _Run:
    """A maximal sequence of consecutive stages, from stage ``first``, that
    all have the hook ``name``, with equal stage width, output shape and
    multiplier width. Their stage vectors are the rows of ``x[x]``, their
    multipliers the rows of ``y`` or ``z`` (``dual``) at ``w``, and their
    stacked outputs, of shape ``shape``, go to ``at`` of the callback's flat
    output: a slice, or indices where the stages' destinations are not
    contiguous."""

    name: str
    first: int
    hooks: list
    x: slice
    shape: tuple
    at: object
    dual: Optional[str] = None
    w: object = None

    def __call__(self, x, th, y=None, z=None) -> np.ndarray:
        """The hooks' outputs stacked in stage order and flattened, with one
        shape check; stage by stage only to name a stage whose output is off."""
        count = len(self.hooks)
        zs = x[self.x].reshape(count, -1)
        if self.dual is None:
            outs = [fn(zt, th) for fn, zt in zip(self.hooks, zs)]
        else:
            ws = (y if self.dual == "y" else z)[self.w].reshape(count, -1)
            outs = [fn(zt, th, wt) for fn, zt, wt in zip(self.hooks, zs, ws)]
        try:
            out = np.array(outs, dtype=float)
            if out.shape == self.shape:
                return out.reshape(-1)
        except ValueError:  # outputs of different shapes do not stack
            pass
        for t, value in enumerate(outs, self.first):
            _shaped(value, self.shape[1:], f"stage {t} {self.name}")
        raise InvalidDimension(f"stages {self.first}..: {self.name} outputs do not stack to {self.shape}")


def _runs(problem: TrajectoryProblem, imap: IndexMap, storage: dict) -> dict:
    """The runs of every hook, by hook name, in stage order. ``storage``
    holds each stage's slice of a derivative ``StageMatrix``'s storage: of
    its Jacobian block per constraint kind, of its Hessian block under
    "hessian"."""
    stages, d = problem.stages, problem.num_parameters
    T = len(stages)

    def scaled(sl):  # rows of an (., d) matrix as positions in its flat storage
        return slice(sl.start * d, sl.stop * d)

    # each stage's rows per kind: in x for the cost, in g for dynamics and
    # equality, in h for the cone; a stage without rows lacks the kind
    rows = {
        "cost": imap.stage,
        "dynamics": imap.defect + (slice(0, 0),),
        "equality": imap.equality,
        "cone": imap.cone,
    }
    runs = {}
    for kind, names in HOOKS.items():
        # stages of one run share (width, rows), which fix every output shape
        keys = [(st.width, at.stop - at.start) if at.stop > at.start else None
                for st, at in zip(stages, rows[kind])]
        for role, name in enumerate(names):
            if name is None:
                continue
            # the value and Jacobian hooks are used where the value hook is
            # set (a cost_gradient without a cost is not), the others where
            # they are set themselves
            present = names[0] if role < 2 else name
            used = [key is not None and getattr(st, present) is not None for st, key in zip(stages, keys)]
            runs[name] = []
            t = 0 if any(used) else T
            while t < T:
                if not used[t]:
                    t += 1
                    continue
                stop = t + 1
                while stop < T and used[stop] and keys[stop] == keys[t]:
                    stop += 1
                (w, r), span = keys[t], range(t, stop)
                at = [rows[kind][s] for s in span]
                if role == 0:
                    shape, dest = (() if kind == "cost" else (r,)), at
                elif role == 1:
                    shape, dest = ((w,), at) if kind == "cost" else ((r, w), [storage[kind][s] for s in span])
                elif role == 2:
                    shape, dest = (w, w), [storage["hessian"][s] for s in span]
                elif role == 3:
                    shape, dest = (r, d), [scaled(sl) for sl in at]
                else:
                    shape, dest = (w, d), [scaled(imap.stage[s]) for s in span]
                dual = DUAL[kind] if role in (2, 4) else None
                runs[name].append(_Run(
                    name=name,
                    first=t,
                    hooks=[getattr(stages[s], name) for s in span],
                    x=slice(imap.stage[t].start, imap.stage[stop - 1].stop),
                    shape=(stop - t,) + shape,
                    at=_joined(dest),
                    dual=dual,
                    w=_joined(at) if dual else None,
                ))
                t = stop
    return runs


def transcribe(problem: TrajectoryProblem) -> ProblemModel:
    """Build the stacked nonlinear model for the solver.

    The callbacks evaluate the stage hooks run by run (see ``_Run``): one
    Python call per stage and hook, one stacking, shape check and write per
    run. Their outputs are bitwise those of calling each stage's hooks in
    turn: the objective is summed in stage order, and each stage's Hessian
    and parameter cross terms are added from zero in the order cost,
    dynamics, equality, cone. Defect coupling rows (-I on the next state)
    are linear and contribute nothing to either. The Hessian, g_x and h_x
    are ``StageMatrix`` objects on the stage blocks.
    """
    imap = index_map(problem)
    T = problem.horizon
    d = problem.num_parameters

    # Derivative matrices are StageMatrix objects on patterns fixed here:
    # the stage blocks of L_xx, h_x and g_x (with g_x's constant +-I pin and
    # defect couplings); the runs write their stage blocks into the slices
    # of the pattern's storage recorded below.
    L_pattern, L_blk = _pattern((imap.n, imap.n), [(sl, sl, False) for sl in imap.stage])
    H_pattern, H_blk = _pattern((imap.p, imap.n), [(imap.cone[t], imap.stage[t], False) for t in range(T)])
    G_pattern, G_blk = _pattern((imap.m, imap.n), [(imap.init, imap.state[0], True)] + [
        block
        for t in range(T - 1)
        for block in ((imap.defect[t], imap.stage[t], False), (imap.defect[t], imap.state[t + 1], True))
    ] + [(imap.equality[t], imap.stage[t], False) for t in range(T)])
    G_fixed = np.zeros(G_pattern.rows.size)
    G_fixed[G_blk[0]] = 1.0
    for pin in G_blk[2 : 2 * T - 1 : 2]:
        G_fixed[pin] = -1.0

    runs = _runs(problem, imap, {
        "dynamics": G_blk[1 : 2 * T - 1 : 2],
        "equality": G_blk[2 * T - 1 :],
        "cone": H_blk,
        "hessian": L_blk,
    })
    # the next states that each dynamics value run's defects subtract
    next_states = [
        _joined([imap.state[t + 1] for t in range(run.first, run.first + len(run.hooks))])
        for run in runs["dynamics"]
    ]

    def put(out, names, *args):
        for name in names:
            for run in runs[name]:
                out[run.at] = run(*args)

    def add(out, names, *args):
        for name in names:
            for run in runs[name]:
                out[run.at] += run(*args)

    def objective(x, th):
        total = 0.0
        for run in runs["cost"]:
            for value in run(x, th).tolist():
                total += value
        return total

    def objective_gradient(x, th):
        out = np.zeros(imap.n)
        add(out, ["cost_gradient"], x, th)
        return out

    def equality(x, th):
        g = np.zeros(imap.m)
        g[imap.init] = x[imap.state[0]] - _initial_state(problem, th)
        for run, nxt in zip(runs["dynamics"], next_states):
            g[run.at] = run(x, th) - x[nxt]
        put(g, ["equality"], x, th)
        return g

    def equality_jacobian(x, th):
        vals = G_fixed.copy()
        put(vals, ["dynamics_jacobian", "equality_jacobian"], x, th)
        return StageMatrix(G_pattern, vals)

    def cone_constraint(x, th):
        h = np.zeros(imap.p)
        put(h, ["cone_constraint"], x, th)
        return h

    def cone_jacobian(x, th):
        vals = np.zeros(H_pattern.rows.size)
        put(vals, ["cone_jacobian"], x, th)
        return StageMatrix(H_pattern, vals)

    def lagrangian_hessian(x, th, y, z):
        vals = np.zeros(L_pattern.rows.size)
        add(vals, HESSIAN_TERMS, x, th, y, z)
        return StageMatrix(L_pattern, vals)

    def parameter_jacobians(x, th, y, z):
        L_xt = np.zeros((imap.n, d))
        g_t = np.zeros((imap.m, d))
        h_t = np.zeros((imap.p, d))
        if problem.initial_state_param is not None:
            cols = range(*problem.initial_state_param.indices(d))
            for i, j in enumerate(cols):
                g_t[imap.init.start + i, j] = -1.0
        add(L_xt.reshape(-1), CROSS_TERMS, x, th, y, z)
        put(g_t.reshape(-1), ["dynamics_param_jacobian", "equality_param_jacobian"], x, th)
        put(h_t.reshape(-1), ["cone_param_jacobian"], x, th)
        return L_xt, g_t, h_t

    return ProblemModel(
        n=imap.n,
        m=imap.m,
        p=imap.p,
        cone=concatenate([st.cone for st in problem.stages]),
        objective=objective,
        objective_gradient=objective_gradient,
        equality=equality,
        equality_jacobian=equality_jacobian,
        cone_constraint=cone_constraint if imap.p else None,
        cone_jacobian=cone_jacobian if imap.p else None,
        lagrangian_hessian=lagrangian_hessian,
        parameter_jacobians=parameter_jacobians,
        d=d,
    )
