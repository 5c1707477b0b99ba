"""Shared random instance generators for the solver test suites, and the
per-segment reference implementations of the cone algebra."""

import numpy as np

from ipal.cone import INTERIOR_MARGIN, ConeSpec, Orthant, SecondOrder
from ipal.kkt import (
    MAX_REFINE,
    OuterState,
    SolverPoint,
    assemble_symmetric,
    residual,
    search_direction,
    unrelaxed_rows,
)
from ipal.linsolve import RegularizationState
from ipal.model import ProblemModel, StageMatrix, evaluate


def transcribed(prob):
    """Whether a registry problem's derivative callbacks return
    ``StageMatrix`` objects, as a transcription's do; the others are
    general models with dense derivative matrices."""
    model = prob.model
    L = model.lagrangian_hessian(prob.x0, prob.theta, np.zeros(model.m), np.zeros(model.p))
    return isinstance(L, StageMatrix)


def segment_slices(spec):
    """Yield (segment, slice into the stacked vector) pairs of a cone, in
    order."""
    lo = 0
    for seg in spec.segments:
        yield seg, slice(lo, lo + seg.dim)
        lo += seg.dim


def random_cone(rng, max_dim=5):
    """Mix of orthant and dim-2/3 second-order segments, total dim <= max_dim."""
    segs = []
    remaining = int(rng.integers(1, max_dim + 1))
    while remaining > 0:
        kind = rng.random()
        if kind < 0.5 or remaining < 2:
            d = int(rng.integers(1, remaining + 1))
            segs.append(Orthant(d))
        else:
            d = int(rng.integers(2, min(3, remaining) + 1))
            segs.append(SecondOrder(d))
        remaining -= d
    return ConeSpec(tuple(segs))


def random_interior(rng, spec, scale=1.0):
    v = np.empty(spec.dim)
    for seg, sl in segment_slices(spec):
        if isinstance(seg, SecondOrder) and seg.dim >= 2:
            tail = 0.5 * scale * rng.standard_normal(seg.dim - 1)
            v[sl.start] = np.linalg.norm(tail) + rng.uniform(0.2, 1.2) * scale
            v[sl.start + 1 : sl.stop] = tail
        else:
            v[sl] = rng.uniform(0.3, 1.5, seg.dim) * scale
    return v


def random_nlp(rng, n, m, cone):
    """Quadratic objective with quadratically nonlinear constraints, so the
    Lagrangian Hessian carries constraint curvature."""
    p = cone.dim
    Q = rng.standard_normal((n, n))
    Q = 0.5 * (Q + Q.T)
    q = rng.standard_normal(n)
    A = rng.standard_normal((m, n))
    b = rng.standard_normal(m)
    Gq = np.array([0.5 * (M + M.T) for M in 0.3 * rng.standard_normal((m, n, n))]).reshape(m, n, n)
    C = rng.standard_normal((p, n))
    e = rng.standard_normal(p)
    Hq = np.array([0.5 * (M + M.T) for M in 0.3 * rng.standard_normal((p, n, n))]).reshape(p, n, n)

    return ProblemModel(
        n=n,
        m=m,
        p=p,
        cone=cone,
        objective=lambda x, th: 0.5 * x @ Q @ x + q @ x,
        objective_gradient=lambda x, th: Q @ x + q,
        equality=lambda x, th: A @ x - b + 0.5 * np.einsum("i,kij,j->k", x, Gq, x),
        equality_jacobian=lambda x, th: A + np.einsum("kij,j->ki", Gq, x),
        cone_constraint=lambda x, th: C @ x - e + 0.5 * np.einsum("i,kij,j->k", x, Hq, x),
        cone_jacobian=lambda x, th: C + np.einsum("kij,j->ki", Hq, x),
        lagrangian_hessian=lambda x, th, y, z: Q
        + np.einsum("k,kij->ij", y, Gq)
        + np.einsum("k,kij->ij", z, Hq),
    )


def random_iterate(rng, model):
    """Random iterate with strictly interior cone blocks."""
    point = SolverPoint(
        x=rng.standard_normal(model.n),
        r=rng.standard_normal(model.m),
        s=random_interior(rng, model.cone),
        y=rng.standard_normal(model.m),
        z=rng.standard_normal(model.p),
        t=random_interior(rng, model.cone),
    )
    outer = OuterState(
        lam=rng.standard_normal(model.m),
        rho=float(rng.uniform(0.5, 5.0)),
        kappa=float(rng.uniform(0.1, 1.0)),
    )
    return point, outer


def evaluate_at(model, point, theta):
    """The evaluation of the model at an iterate, as the solver makes it."""
    return evaluate(model, point.x, theta, point.y, point.z)


def residual_at(model, point, theta, outer, cache=None):
    """The stacked residual R at an iterate, from its evaluation ``cache``
    (made here when None)."""
    cache = evaluate_at(model, point, theta) if cache is None else cache
    return residual(model, point, outer, unrelaxed_rows(model, point, cache))


def direction_at(model, point, theta, outer, reg=RegularizationState()):
    """search_direction at an iterate evaluated here, from the shifts ``reg``."""
    cache = evaluate_at(model, point, theta)
    R = residual_at(model, point, theta, outer, cache)
    return search_direction(model, point, outer, reg, cache, R, np.abs(R).max())


def finite_difference_residual_jacobian(model, point, theta, outer, step=1e-6):
    """Central differences of the stacked residual with respect to w."""
    from ipal.kkt import Layout

    lay = Layout(model.n, model.m, model.p)
    w0 = lay.pack(point)
    J = np.zeros((lay.total, lay.total))
    for j in range(lay.total):
        hj = step * (1.0 + abs(w0[j]))
        wp = w0.copy(); wp[j] += hj
        wm = w0.copy(); wm[j] -= hj
        Rp = residual_at(model, lay.unpack(wp), theta, outer)
        Rm = residual_at(model, lay.unpack(wm), theta, outer)
        J[:, j] = (Rp - Rm) / (2.0 * hj)
    return J


TRACK_A = np.array([[1.0, 0.1], [0.0, 1.0]])
TRACK_B = np.array([0.005, 0.1])


def dense_inertia(K):
    """(positive, negative, zero) counts of the eigenvalues of the dense
    symmetric K: the reference every certified inertia must match."""
    ev = np.linalg.eigvalsh(np.asarray(K))
    return int((ev > 0.0).sum()), int((ev < 0.0).sum()), int((ev == 0.0).sum())


def lower_band(C, kd):
    """The symmetric C in LAPACK lower band storage, (kd + 1, n)."""
    n = C.shape[0]
    return np.array([np.pad(np.diagonal(C, -k), (0, k)) for k in range(kd + 1)]).reshape(kd + 1, n)


def trajectory_tracking(T, position_weights=None, duplicated_stage=None, initial_state=(0.3, -0.2)):
    """Double integrator tracking a sinusoid over T knots, z = (p, v, u).

    Stage cost w_p (p - r_p)^2 + 0.1 (v - r_v)^2 + 0.01 u^2, the bound
    |u| <= 2 as two orthant rows and |v| <= 1.5 as the second-order segment
    (1.5, v). ``position_weights[t]`` replaces w_p = 1 at stage t; stage
    ``duplicated_stage`` also carries the equality u = 0 twice. theta is the
    initial state, ``initial_state`` by default. Returns (model, x0, theta)
    of the transcription."""
    from ipal.trajopt import transcribe

    model = transcribe(tracking_problem(T, position_weights, duplicated_stage))
    return model, np.zeros(model.n), np.array(initial_state, dtype=float)


def tracking_problem(T, position_weights=None, duplicated_stage=None):
    """The ``TrajectoryProblem`` that ``trajectory_tracking`` transcribes."""
    from ipal.trajopt import Stage, TrajectoryProblem

    dt = TRACK_A[0, 1]
    knots = np.arange(T) * dt
    refs = np.column_stack([np.sin(2.0 * knots), 2.0 * np.cos(2.0 * knots)])
    weights = np.ones(T) if position_weights is None else np.asarray(position_weights, dtype=float)
    cone_jacobian = np.array([[0.0, 0.0, -1.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [0.0, 1.0, 0.0]])

    def stage(t):
        r, w = refs[t], np.array([weights[t], 0.1, 0.01])
        extra = {}
        if t < T - 1:
            extra.update(
                dynamics=lambda z, th: TRACK_A @ z[:2] + TRACK_B * z[2],
                dynamics_jacobian=lambda z, th: np.column_stack([TRACK_A, TRACK_B]),
            )
        if t == duplicated_stage:
            extra.update(
                equality=lambda z, th: np.array([z[2], z[2]]),
                equality_jacobian=lambda z, th: np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]]),
                equality_dim=2,
            )
        return Stage(
            state_dim=2,
            control_dim=1,
            cost=lambda z, th: float(w @ (z - np.array([r[0], r[1], 0.0])) ** 2),
            cost_gradient=lambda z, th: 2.0 * w * (z - np.array([r[0], r[1], 0.0])),
            cost_hessian=lambda z, th: np.diag(2.0 * w),
            cone_constraint=lambda z, th: np.array([2.0 - z[2], 2.0 + z[2], 1.5, z[1]]),
            cone_jacobian=lambda z, th: cone_jacobian.copy(),
            cone=ConeSpec((Orthant(2), SecondOrder(2))),
            **extra,
        )

    return TrajectoryProblem(
        stages=[stage(t) for t in range(T)],
        initial_state=np.zeros(2),
        num_parameters=2,
        initial_state_param=slice(0, 2),
    )


# ------------------------------------------------------------------------
# Dense references for the transcribed path: the transcription's callbacks
# evaluated with one loop over stages, as ``transcribe`` evaluated them
# before it batched runs of stages, and the reduced KKT matrix as one dense
# array, assembled as the solver built it before it kept stage blocks.


def _stage_value(value):
    """A hook output as the transcription converts it."""
    return np.asarray(value, dtype=float)


def dense_transcription(problem, x, theta, y, z):
    """Every callback output of the transcription of ``problem`` at
    (x, theta, y, z), from per-stage loops with dense matrices:
    ``c``, ``c_x``, ``g``, ``G`` (g_x), ``h``, ``H`` (h_x), ``L`` (the
    Lagrangian Hessian before symmetrization), and the parameter Jacobians
    ``L_xt``, ``g_t`` and ``h_t``. Sums run in stage order, and each stage's
    Hessian and cross terms are added from zero in the order cost,
    dynamics, equality, cone."""
    from types import SimpleNamespace

    from ipal.trajopt import index_map

    imap = index_map(problem)
    stages = problem.stages
    T = len(stages)
    d = problem.num_parameters
    initial = (
        np.asarray(theta, dtype=float)[problem.initial_state_param]
        if problem.initial_state_param is not None
        else problem.initial_state
    )
    out = SimpleNamespace(
        c=0.0,
        c_x=np.zeros(imap.n),
        g=np.zeros(imap.m),
        G=np.zeros((imap.m, imap.n)),
        h=np.zeros(imap.p),
        H=np.zeros((imap.p, imap.n)),
        L=np.zeros((imap.n, imap.n)),
        L_xt=np.zeros((imap.n, d)),
        g_t=np.zeros((imap.m, d)),
        h_t=np.zeros((imap.p, d)),
    )
    out.g[imap.init] = x[imap.state[0]] - initial
    out.G[imap.init, imap.state[0]] = np.eye(stages[0].state_dim)
    if problem.initial_state_param is not None:
        for i, j in enumerate(range(*problem.initial_state_param.indices(d))):
            out.g_t[imap.init.start + i, j] = -1.0
    for t, st in enumerate(stages):
        zt, stage = x[imap.stage[t]], imap.stage[t]
        block = np.zeros((st.width, st.width))
        row = np.zeros((st.width, d))
        if st.cost is not None:
            out.c += float(st.cost(zt, theta))
            out.c_x[stage] += _stage_value(st.cost_gradient(zt, theta))
        if st.cost_hessian is not None:
            block += _stage_value(st.cost_hessian(zt, theta))
        if st.cost_param_jacobian is not None:
            row += _stage_value(st.cost_param_jacobian(zt, theta))
        # (value hook, hook prefix, rows, value, Jacobian and parameter
        # Jacobian outputs, multiplier, what the value subtracts)
        kinds = []
        if t < T - 1:
            defect, nxt = imap.defect[t], imap.state[t + 1]
            out.G[np.arange(defect.start, defect.stop), np.arange(nxt.start, nxt.stop)] = -1.0
            kinds.append(("dynamics", "dynamics", defect, out.g, out.G, out.g_t, y, x[nxt]))
        if st.equality_dim:
            kinds.append(("equality", "equality", imap.equality[t], out.g, out.G, out.g_t, y, None))
        if st.cone.dim:
            kinds.append(("cone_constraint", "cone", imap.cone[t], out.h, out.H, out.h_t, z, None))
        for name, prefix, rows, value, jacobian, param, w, minus in kinds:
            f = _stage_value(getattr(st, name)(zt, theta))
            value[rows] = f if minus is None else f - minus
            jacobian[rows, stage] = _stage_value(getattr(st, f"{prefix}_jacobian")(zt, theta))
            hessian_vp = getattr(st, f"{prefix}_hessian_vp")
            if hessian_vp is not None:
                block += _stage_value(hessian_vp(zt, theta, w[rows]))
            param_jacobian = getattr(st, f"{prefix}_param_jacobian")
            if param_jacobian is not None:
                param[rows] = _stage_value(param_jacobian(zt, theta))
            cross_param_vp = getattr(st, f"{prefix}_cross_param_vp")
            if cross_param_vp is not None:
                row += _stage_value(cross_param_vp(zt, theta, w[rows]))
        out.L[stage, stage] = block
        out.L_xt[stage] = row
    return out


def dense_reduced_matrix(model, point, outer, reg, cache):
    """The reduced KKT matrix K = [[P, A'], [A, -N]] in the (x, y, z) order
    as one dense array, from dense copies of the cache's derivative
    matrices."""
    from ipal.cone import product_jacobian_blocks

    n, m, p = model.n, model.m, model.p
    ep, ed = reg.eps_p, reg.eps_d
    Ps, Pt = product_jacobian_blocks(point.s, point.t, model.cone)
    Ptb = Pt.shift(-ed)
    M = (Ps + ep * Ptb).solve(Ptb).symmetric_part()
    G, H = np.asarray(cache.g_x), np.asarray(cache.h_x)
    K = np.zeros((n + m + p, n + m + p))
    K[:n, :n] = np.asarray(cache.L_xx) + ep * np.eye(n)
    K[:n, n : n + m] = G.T
    K[n : n + m, :n] = G
    K[:n, n + m :] = H.T
    K[n + m :, :n] = H
    K[n : n + m, n : n + m] = -(1.0 / (outer.rho + ep) + ed) * np.eye(m)
    (-1.0 * M.shift(ed)).write_to(K[n + m :, n + m :])
    return K


def dense_schur_complement(K, n, cone_inverse=None):
    """C = P + A'N^{-1}A of the dense K = [[P, A'], [A, -N]], P of order n.
    With ``cone_inverse``, the inverse of N's cone block (p x p, the last
    rows of K), N^{-1} is that block and the reciprocals of the equality-dual
    diagonal; otherwise it is a dense solve with N."""
    if cone_inverse is None:
        return K[:n, :n] - K[:n, n:] @ np.linalg.solve(K[n:, n:], K[n:, :n])
    p = cone_inverse.shape[0]
    m = K.shape[0] - n - p
    N_inv = np.zeros((m + p, m + p))
    N_inv[np.arange(m), np.arange(m)] = -1.0 / np.diag(K[n : n + m, n : n + m])
    N_inv[m:, m:] = cone_inverse
    return K[:n, :n] + K[:n, n:] @ N_inv @ K[n:, :n]


def reduced_cone_inverse_loop(spec, s, t, reg):
    """The inverse of the cone block of N, M + eps_d I with M =
    sym(W^{-1} P_tb), W = P_s + eps_p P_tb and P_tb = P_t - eps_d I, as a
    dense p x p matrix, one segment at a time: a SecondOrder(2) segment in
    the eigenbasis (1, +-1)/sqrt(2) of its arrow matrices, where its
    eigenvalues are (lambda(s) - eps_d) / (lambda(t) + eps_p (lambda(s) -
    eps_d)) + eps_d, which keeps a small eigenvalue that the block's entries
    lose; other segments by a dense inverse of their block."""
    ep, ed = reg.eps_p, reg.eps_d
    out = np.zeros((spec.dim, spec.dim))
    for seg, sl in segment_slices(spec):
        if _is_soc(seg) and seg.dim == 2:
            Ptb = eigen_pair(s[sl]) - ed
            out[sl, sl] = eigen_block(1.0 / (Ptb / (eigen_pair(t[sl]) + ep * Ptb) + ed))
        elif _is_soc(seg):
            Ptb = arrow(s[sl]) - ed * np.eye(seg.dim)
            M = np.linalg.solve(arrow(t[sl]) + ep * Ptb, Ptb)
            out[sl, sl] = np.linalg.inv(0.5 * (M + M.T) + ed * np.eye(seg.dim))
        else:
            idx = np.arange(sl.start, sl.stop)
            Ptb = s[sl] - ed
            out[idx, idx] = 1.0 / (Ptb / (t[sl] + ep * Ptb) + ed)
    return out


# ------------------------------------------------------------------------
# The stacked residual and the unrelaxed residual norm as two separate
# passes over the rows, each forming its own copy of the rows they share.
# The solver takes both from one pass (``kkt.unrelaxed_rows``), which must
# reproduce these bitwise.


def zero_shift_direction(model, point, theta, outer, R, max_refine=MAX_REFINE, cache=None):
    """The Newton direction J dw = -R at zero shift through the symmetric
    reduction, as search_direction solves it but with no inertia correction:
    assemble_symmetric, which factors C (by its band LU where C is
    indefinite), and its solve with at most ``max_refine`` refinement steps.
    Returns dw, ||J dw + R||_inf and the steps taken; NumericalFailure when
    the reduced system cannot be built or factored, or the solve fails."""
    if cache is None:
        cache = evaluate_at(model, point, theta)
    dw, err, _, passes = assemble_symmetric(model, point, outer, cache).solve(R, max_refine)
    return dw, err, passes


def reduced_matrix_solve(rsys, fact, f):
    """K^{-1} f for the reduced matrix K = [[P, A'], [A, -N]] of rsys, by
    its reduced solve through ``fact``, the factors of its C: J dw = b with
    the r, s and t rows of b zero reduces to K (dx, dy, dz) = (b_x, b_y,
    b_z). f may hold right-hand sides as columns."""
    lay = rsys.layout
    n, m = lay.n, lay.m
    b = np.zeros((lay.total,) + f.shape[1:])
    b[lay.x], b[lay.y], b[lay.z] = f[:n], f[n : n + m], f[n + m :]
    rsys.fact = fact
    dw = rsys.inverse(b)
    return np.concatenate([dw[lay.x], dw[lay.y], dw[lay.z]])


def residual_reference(model, point, outer, cache):
    """The stacked stationarity residual R at the evaluation ``cache``."""
    from ipal.cone import cone_product, cone_target
    from ipal.kkt import Layout

    lay = Layout(model.n, model.m, model.p)
    R = np.empty(lay.total)
    R[lay.x] = cache.c_x + cache.g_x.T @ point.y + cache.h_x.T @ point.z
    R[lay.s] = -point.z - point.t
    R[lay.y] = cache.g - point.r
    R[lay.z] = cache.h - point.s
    R[lay.r] = outer.lam + outer.rho * point.r - point.y
    R[lay.t] = cone_product(point.s, point.t, model.cone) - outer.kappa * cone_target(model.cone)
    return R


def unrelaxed_residual_norm_reference(model, point, cache):
    """Max norm of the stationarity rows with the relaxation removed, row
    block by row block."""
    from ipal.cone import cone_product

    rows = [
        cache.c_x + cache.g_x.T @ point.y + cache.h_x.T @ point.z,
        -point.z - point.t,
        cache.g - point.r,
        cache.h - point.s,
        cone_product(point.s, point.t, model.cone),
        point.r,
    ]
    return max((np.abs(v).max() if v.size else 0.0) for v in rows)


# ------------------------------------------------------------------------
# Per-segment reference cone algebra: one Python step per segment, as the
# cone module computed it before its operations were batched. The batched
# operations must reproduce these bitwise.


def _is_soc(seg):
    return isinstance(seg, SecondOrder) and seg.dim >= 2


def in_cone_loop(a, spec, strict=False):
    for seg, sl in segment_slices(spec):
        v = a[sl]
        if _is_soc(seg):
            slack = v[0] - np.linalg.norm(v[1:])
        elif v.size:
            slack = v.min()
        else:
            continue
        if strict:
            if not slack > 0.0:
                return False
        elif not slack >= 0.0:
            return False
    return True


def cone_infeasibility_loop(spec, h):
    worst = 0.0
    for seg, sl in segment_slices(spec):
        v = h[sl]
        if v.size == 0:
            continue
        if _is_soc(seg):
            worst = max(worst, np.linalg.norm(v[1:]) - v[0])
        else:
            worst = max(worst, float(-v.min()))
    return max(0.0, worst)


def cone_target_loop(spec):
    e = np.zeros(spec.dim)
    for seg, sl in segment_slices(spec):
        if _is_soc(seg):
            e[sl.start] = 1.0
        else:
            e[sl] = 1.0
    return e


def cone_product_loop(a, b, spec):
    out = np.empty(spec.dim)
    for seg, sl in segment_slices(spec):
        u, v = a[sl], b[sl]
        if _is_soc(seg):
            out[sl.start] = u @ v
            out[sl.start + 1 : sl.stop] = u[0] * v[1:] + v[0] * u[1:]
        else:
            out[sl] = u * v
    return out


def arrow(u):
    l = u.size
    M = np.zeros((l, l))
    M[0, :] = u
    M[1:, 0] = u[1:]
    M[1:, 1:] += u[0] * np.eye(l - 1)
    return M


def eigen_pair(u):
    """The eigenvalues (lambda+, lambda-) of the arrow matrix of a
    dimension-2 segment u on its eigenvectors (1, +-1)/sqrt(2)."""
    return np.array([u[0] + u[1], u[0] - u[1]])


def eigen_block(pair):
    """The symmetric 2 x 2 block with eigenvalues ``pair`` on (1, +-1)/sqrt(2)."""
    d, e = 0.5 * (pair[0] + pair[1]), 0.5 * (pair[0] - pair[1])
    return np.array([[d, e], [e, d]])


def eigen_apply(op, pair, v):
    """With op = np.multiply the block of eigenvalues ``pair`` times v, the
    two entries of a segment (or two rows of columns), in the eigenbasis:
    0.5 (lambda+ (v + vbar) + lambda- (v - vbar)), vbar the other entry;
    with op = np.divide its inverse times v."""
    plus, minus = op(v[0] + v[1], pair[0]), op(v[0] - v[1], pair[1])
    return 0.5 * np.array([plus + minus, plus - minus])


def product_jacobians_loop(s, t, spec):
    p = spec.dim
    Ps = np.zeros((p, p))
    Pt = np.zeros((p, p))
    for seg, sl in segment_slices(spec):
        if _is_soc(seg):
            Ps[sl, sl] = arrow(t[sl])
            Pt[sl, sl] = arrow(s[sl])
        else:
            idx = np.arange(sl.start, sl.stop)
            Ps[idx, idx] = t[sl]
            Pt[idx, idx] = s[sl]
    return Ps, Pt


def barrier_value_loop(s, spec):
    """Sum within each segment, segments added in stacking order; None off
    the interior."""
    total = 0.0
    for seg, sl in segment_slices(spec):
        v = s[sl]
        if _is_soc(seg):
            det = v[0] ** 2 - v[1:] @ v[1:]
            if not (v[0] > 0.0 and det > 0.0):
                return None
            total += 0.5 * np.log(det)
        else:
            if v.size and not v.min() > 0.0:
                return None
            total += np.log(v).sum() if v.size else 0.0
    return float(total)


def orthant_crossing(a, da):
    neg = da < 0.0
    if not neg.any():
        return np.inf
    return float((-a[neg] / da[neg]).min())


def soc_crossing(a, da):
    """First positive root of q(alpha) = (a1+al*d1)^2 - ||a2+al*d2||^2, with
    q(0) > 0 on the interior, by the stable quadratic formula."""
    q2 = da[0] ** 2 - da[1:] @ da[1:]
    q1 = 2.0 * (a[0] * da[0] - a[1:] @ da[1:])
    q0 = a[0] ** 2 - a[1:] @ a[1:]
    scale = max(abs(q2), abs(q1), abs(q0), 1.0)
    if abs(q2) <= 1e-14 * scale:
        return -q0 / q1 if q1 < 0.0 else np.inf
    disc = q1 * q1 - 4.0 * q2 * q0
    if disc < 0.0:
        return np.inf
    sq = np.sqrt(disc)
    qq = -0.5 * (q1 + np.copysign(sq, q1)) if q1 != 0.0 else -0.5 * sq
    roots = []
    if q2 != 0.0:
        roots.append(qq / q2)
    if qq != 0.0:
        roots.append(q0 / qq)
    pos = [r for r in roots if r > 0.0]
    return min(pos) if pos else np.inf


def max_step_loop(a, da, tau, spec):
    crossing = np.inf
    for seg, sl in segment_slices(spec):
        if _is_soc(seg):
            c = soc_crossing(a[sl], da[sl])
        else:
            c = orthant_crossing(a[sl], da[sl])
        crossing = min(crossing, c)
    if not np.isfinite(crossing):
        return 1.0
    return float(min(1.0, tau * crossing))


def interior_initialization_loop(h0, spec):
    s = h0.copy()
    for seg, sl in segment_slices(spec):
        if _is_soc(seg):
            tail = np.linalg.norm(s[sl.start + 1 : sl.stop])
            s[sl.start] = max(s[sl.start], tail + INTERIOR_MARGIN)
        else:
            np.maximum(s[sl], INTERIOR_MARGIN, out=s[sl])
    return s
