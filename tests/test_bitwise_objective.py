"""The objective evaluation, the coefficient system, the L-BFGS engine and the
ray walk against the code as first written, bitwise, on hypothesis-drawn
edge cases and on frozen plan-set problems.

The references below are that code, kept verbatim where it can be: each
evaluation built its sample bases per term, rebuilt its per-plan constants
and raised the entries of A twice; the engine used `@` and np.linalg.norm;
the ray walk used numpy scalars.  Equal bits, including the signs of zeros,
mean the planner's every decision is unchanged.
"""

import json
from collections import deque
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import RC, SETUP_ARGS
from test_bitwise_lookups import reference_query_distance
from neotraj import initializers, minco, objective, solver
from neotraj.errors import NonFiniteObjective, NonPositiveDuration, SingularSystem
from neotraj.minco import BoundaryState, TrajParams, Trajectory
from neotraj.objective import ObjectiveSetup, PenaltyConfig
from neotraj.solver import SolverConfig
from neotraj.world import GridWorld, SceneSpec, generate_scene


def same_bits(a, b) -> bool:
    """Equal shapes and bytes: equal values, signs of zeros and NaN payloads."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# --- the coefficient system as first written --------------------------------

_GBTRF, _GBTRS = scipy.linalg.get_lapack_funcs(("gbtrf", "gbtrs"), dtype=np.float64)


def reference_band_matrix(durations, s_order, transpose=False):
    durations = np.asarray(durations, dtype=float).ravel()
    tp = minco._template(durations.size, s_order)
    rows, cols, lo, up = (tp.rows, tp.cols, tp.lower, tp.upper) if not transpose else (
        tp.cols, tp.rows, tp.upper, tp.lower)
    ab = np.zeros((2 * lo + up + 1, tp.row_piece.size), order="F")
    ab[lo + up + rows - cols, cols] = tp.coef * durations[tp.piece] ** tp.pw
    return ab, lo, up


class ReferenceBandedSystem:
    """BandedSystem as first written: A's entries raised once for A, once for A^T."""

    def __init__(self, durations, s_order):
        self.durations = np.asarray(durations, dtype=float).ravel()
        self.s_order = s_order
        self.template = minco._template(self.durations.size, s_order)
        self._factors = [self._factor(*reference_band_matrix(self.durations, s_order, t))
                         for t in (0, 1)]

    @staticmethod
    def _factor(ab, lower, upper):
        lu, piv, info = _GBTRF(ab, lower, upper, overwrite_ab=True)
        if info != 0:
            raise SingularSystem(f"zero pivot in column {info} of the coefficient system")
        return lu, lower, upper, piv

    def solve(self, rhs, transpose=False):
        lu, lower, upper, piv = self._factors[transpose]
        x, info = _GBTRS(lu, lower, upper, rhs, piv)
        if info != 0 or not np.isfinite(x).all():
            raise SingularSystem("coefficient system has no finite solution")
        return x


def reference_solve_coeffs(init, target, params, s_order, system):
    if np.any(params.durations <= 0.0):
        raise NonPositiveDuration(f"durations must be positive, got {params.durations}")
    n = 2 * s_order
    b = np.zeros((n * params.n_pieces, init.position.size))
    b[:s_order] = [init.derivative(k) for k in range(s_order)]
    b[-s_order:] = [target.derivative(k) for k in range(s_order)]
    knots = s_order + n * np.arange(params.n_pieces - 1) + n - 2
    b[knots] = b[knots + 1] = params.waypoints.T
    coeffs = system.solve(b)
    return Trajectory(coeffs.reshape(params.n_pieces, n, -1), params.durations.copy())


def reference_propagate_gradients(traj, dk_dc, dk_dt, system):
    m, n, d = traj.coefficients.shape
    dk_dc = np.asarray(dk_dc, dtype=float)
    dk_dt = np.asarray(dk_dt, dtype=float).ravel()
    g = system.solve(dk_dc.reshape(m * n, d), transpose=True)
    tp = system.template
    knots = system.s_order + n * np.arange(m - 1) + n - 2
    dh_dq = (g[knots] + g[knots + 1]).T
    drows = np.zeros((m * n, n))
    drows[tp.rows, tp.cols % n] = tp.coef * tp.pw * system.durations[tp.piece] ** (tp.pw - 1)
    dvec = drows[:, None, :] @ traj.coefficients[tp.row_piece]
    dh_dt = dk_dt.copy()
    np.subtract.at(dh_dt, tp.row_piece, (dvec @ g[:, :, None])[:, 0, 0])
    return dh_dq, dh_dt


# --- the objective as first written ------------------------------------------

def reference_sigmoid(x):
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def reference_duration_map(tau, tf):
    sig = reference_sigmoid(tau)
    tbar = np.clip(
        tf.span * sig + tf.t_min, np.nextafter(tf.t_min, np.inf), np.nextafter(tf.t_max, -np.inf)
    )
    return tbar, tf.span * sig * (1.0 - sig)


def reference_sample_bases(kappa, n, order, tbar):
    pw = np.maximum(np.arange(n) - order, 0).astype(float)
    unit = minco._basis_factors(n, order) * (np.arange(kappa + 1) / kappa)[:, None] ** pw
    return unit * tbar[:, None, None] ** pw


def _dot_last(a, b):
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def reference_control_effort(traj, s_order):
    c, t = traj.coefficients, traj.durations
    n = c.shape[1]
    fac = minco._basis_factors(n, s_order)[s_order:]
    a_idx = np.arange(n - s_order)
    psum = a_idx[:, None] + a_idx[None, :] + 1
    u = fac[:, None] * c[:, s_order:]
    p = t[:, None, None] ** psum / psum
    dk_dc = np.zeros_like(c)
    dk_dc[:, s_order:] = 2.0 * fac[:, None] * (p @ u)
    end_deriv = ((t[:, None] ** a_idx)[:, None, :] @ u)[:, 0]
    cost = sum(np.einsum("ad,ab,bd->", u[i], p[i], u[i]) for i in range(len(c)))
    return float(cost), dk_dc, _dot_last(end_deriv, end_deriv)


def _trapezoid_weights(kappa):
    w = np.ones(kappa + 1)
    w[0] = w[-1] = 0.5
    return w


def reference_sampled_penalty(traj, kappa, pen, dpen_dc, dpen_ds):
    w = _trapezoid_weights(kappa)
    scale = traj.durations / kappa
    w_pen = _dot_last(w, pen)
    dk_dt = (1.0 / kappa) * w_pen + scale * _dot_last(w, dpen_ds * (np.arange(kappa + 1) / kappa))
    return float(sum(scale * w_pen)), scale[:, None, None] * dpen_dc, dk_dt


def reference_obstacle_cost(traj, world, cfg):
    kappa = cfg.kappa
    c, t = traj.coefficients, traj.durations
    m, n, d = c.shape
    b0 = reference_sample_bases(kappa, n, 0, t)
    dist, dgrad = reference_query_distance(world, (b0 @ c).reshape(-1, d))
    gap = np.maximum(cfg.d_safe - dist, 0.0).reshape(m, kappa + 1)
    if not gap.any():
        return 0.0, np.zeros_like(c), np.zeros(m)
    w = _trapezoid_weights(kappa)
    dpen_dpos = (-3.0 * gap**2)[..., None] * dgrad.reshape(m, kappa + 1, d)
    vel = reference_sample_bases(kappa, n, 1, t) @ c
    dpen_dc = b0.transpose(0, 2, 1) @ (w[:, None] * dpen_dpos)
    return reference_sampled_penalty(traj, kappa, gap**3, dpen_dc,
                                     np.sum(dpen_dpos * vel, axis=2))


def reference_feasibility_cost(traj, cfg):
    kappa = cfg.kappa
    c, t = traj.coefficients, traj.durations
    m, n, _ = c.shape
    b1 = reference_sample_bases(kappa, n, 1, t)
    b2 = reference_sample_bases(kappa, n, 2, t)
    vel, acc = b1 @ c, b2 @ c
    ev = np.maximum(np.sum(vel**2, axis=2) - cfg.v_max**2, 0.0)
    ea = np.maximum(np.sum(acc**2, axis=2) - cfg.a_max**2, 0.0)
    if not (ev.any() or ea.any()):
        return 0.0, np.zeros_like(c), np.zeros(m)
    w = _trapezoid_weights(kappa)[:, None]
    jrk = reference_sample_bases(kappa, n, 3, t) @ c
    b1t, b2t = b1.transpose(0, 2, 1), b2.transpose(0, 2, 1)
    dpen_dc = (b1t @ (w * (6.0 * ev**2)[..., None] * vel)
               + b2t @ (w * (6.0 * ea**2)[..., None] * acc))
    dpen_ds = 6.0 * ev**2 * np.sum(vel * acc, axis=2) + 6.0 * ea**2 * np.sum(acc * jrk, axis=2)
    return reference_sampled_penalty(traj, kappa, ev**3 + ea**3, dpen_dc, dpen_ds)


def reference_total_objective(q, tau, setup):
    q = np.atleast_2d(np.asarray(q, dtype=float))
    tau = np.asarray(tau, dtype=float).ravel()
    w = setup.weights
    tbar, dtbar_dtau = reference_duration_map(tau, setup.transform)
    params = TrajParams(q, tbar)
    system = ReferenceBandedSystem(tbar, setup.s_order)
    traj = reference_solve_coeffs(setup.init, setup.target, params, setup.s_order, system)

    cost = 0.0
    dk_dc = np.zeros_like(traj.coefficients)
    dk_dt = np.zeros(traj.n_pieces)

    def accumulate(term_cost, term_dc, term_dt, weight):
        nonlocal cost
        cost += weight * term_cost
        dk_dc[...] += weight * term_dc
        dk_dt[...] += weight * term_dt

    if w.effort != 0.0:
        accumulate(*reference_control_effort(traj, setup.s_order), w.effort)
    if w.time != 0.0:
        tc = float(tbar.sum())
        cost += w.time * tc
        dk_dt += w.time * np.ones_like(tbar)
    if w.obstacle != 0.0 and setup.world is not None:
        accumulate(*reference_obstacle_cost(traj, setup.world, setup.penalty), w.obstacle)
    if w.feasibility != 0.0:
        accumulate(*reference_feasibility_cost(traj, setup.penalty), w.feasibility)

    dh_dq, dh_dt = reference_propagate_gradients(traj, dk_dc, dk_dt, system)
    return cost, dh_dq, dh_dt * dtbar_dtau


# --- the L-BFGS engine as first written (the line search is unchanged) -------

def reference_minimize(f, x0, cfg):
    evals = 0

    def func(x):
        nonlocal evals
        evals += 1
        val, grad = f(x)
        return float(val), np.asarray(grad, dtype=float)

    x = np.asarray(x0, dtype=float).copy()
    fx, g = func(x)
    if not (np.isfinite(fx) and np.all(np.isfinite(g))):
        raise NonFiniteObjective("objective not finite at the initial point")
    if np.max(np.abs(g)) <= cfg.g_tol:
        return x, fx, 0, evals, True

    history: deque = deque(maxlen=cfg.history)
    converged = False
    k = 0
    while k < cfg.max_iterations:
        q = g.copy()
        alphas = []
        for s, y, rho in reversed(history):
            a = rho * (s @ q)
            alphas.append(a)
            q -= a * y
        if history:
            s, y, _ = history[-1]
            gamma = (s @ y) / (y @ y)
            q *= gamma
        for (s, y, rho), a in zip(history, reversed(alphas)):
            b = rho * (y @ q)
            q += (a - b) * s
        direction = -q
        if direction @ g >= 0.0:
            history.clear()
            direction = -g
        first_step = 1.0 if history else min(1.0, 1.0 / max(1.0, float(np.max(np.abs(g)))))
        result = solver._wolfe_search(func, x, fx, g, direction, cfg, first_step)
        if result is None:
            break
        alpha, f_new, g_new = result
        k += 1
        s = alpha * direction
        y = g_new - g
        sy = float(s @ y)
        if sy > 1e-12 * float(np.linalg.norm(s) * np.linalg.norm(y) + 1e-300):
            history.append((s, y, 1.0 / sy))
        f_decrease = fx - f_new
        x = x + s
        fx, g = f_new, g_new
        if np.max(np.abs(g)) <= cfg.g_tol:
            converged = True
            break
        if f_decrease <= cfg.f_tol * max(1.0, abs(fx)):
            converged = True
            break
    return x, fx, k, evals, converged


# --- the ray walk as first written -------------------------------------------

def reference_cast_ray(world, pos, dx, dy, max_range):
    res = world.resolution
    ix, iy = world.cell_index(pos)
    if world.occupancy[iy, ix]:
        return 0.0
    step_x = 1 if dx >= 0 else -1
    step_y = 1 if dy >= 0 else -1
    if dx != 0:
        next_x = world.origin[0] + (ix + (step_x > 0)) * res
        t_max_x = (next_x - pos[0]) / dx
        t_dx = res / abs(dx)
    else:
        t_max_x, t_dx = np.inf, np.inf
    if dy != 0:
        next_y = world.origin[1] + (iy + (step_y > 0)) * res
        t_max_y = (next_y - pos[1]) / dy
        t_dy = res / abs(dy)
    else:
        t_max_y, t_dy = np.inf, np.inf
    t = 0.0
    while t <= max_range:
        if t_max_x < t_max_y:
            t = t_max_x
            t_max_x += t_dx
            ix += step_x
        else:
            t = t_max_y
            t_max_y += t_dy
            iy += step_y
        if not (0 <= ix < world.nx and 0 <= iy < world.ny):
            return max_range
        if world.occupancy[iy, ix]:
            return min(t, max_range)
    return max_range


def reference_raycast_scan(world, position, heading, n_rays, fov_deg, max_range):
    position = np.asarray(position, dtype=float)
    half = np.deg2rad(fov_deg) / 2.0
    angles = heading + np.linspace(-half, half, n_rays)
    depths = np.full(n_rays, max_range)
    for r, ang in enumerate(angles):
        depths[r] = reference_cast_ray(world, position, np.cos(ang), np.sin(ang), max_range)
    return depths


# --- worlds and problems ------------------------------------------------------

WORLDS = {
    "empty": GridWorld(SceneSpec(), RC.resolution),
    "scene4": GridWorld(generate_scene(preset=4, seed=3), RC.resolution),
    # one pole on the straight line between the drawn endpoints: collisions
    "pole": GridWorld(SceneSpec(obstacles=[(3.0, 0.0, 1.0)]), RC.resolution),
    # a small map that the drawn trajectories leave: mixed and all-out batches
    "small": GridWorld(SceneSpec(bounds=(-1.0, -1.0, 2.0, 1.5),
                                 obstacles=[(0.8, 0.2, 0.4)]), RC.resolution),
}
SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])

TAU = st.one_of(
    st.sampled_from([40.0, -40.0, 0.0, -0.0, 1e3, -1e3, 37.0, -37.0]),
    st.floats(-6.0, 6.0, allow_nan=False),
)


@st.composite
def problem(draw, far=False):
    """(q, tau, init, target) of 1-4 or 9 pieces around the segment (0, 0)-(6, 0), or far
    outside; from 8 pieces on numpy sums an array pairwise, not left to right."""
    m = draw(st.one_of(st.integers(1, 4), st.just(9)))
    offset = np.array([-60.0, 0.0]) if far else np.zeros(2)
    p0 = offset + [draw(st.floats(-1.0, 1.0)), draw(st.floats(-0.5, 0.5))]
    p1 = offset + [draw(st.floats(4.0, 7.0)), draw(st.floats(-0.5, 0.5))]
    small = st.floats(-1.5, 1.5, allow_nan=False)
    init = BoundaryState(p0, [draw(small), draw(small)], [draw(small), draw(small)])
    target = BoundaryState(p1, [draw(small), draw(small)])
    line = np.linspace(p0, p1, m + 1)[1:-1].T
    spread = draw(st.sampled_from([0.0, 0.3, 1.5]))
    q = line + spread * np.array(draw(st.lists(small, min_size=2 * (m - 1),
                                               max_size=2 * (m - 1)))).reshape(2, m - 1)
    tau = np.array(draw(st.lists(TAU, min_size=m, max_size=m)))
    return q, tau, init, target


def setup_for(world, init, target):
    return ObjectiveSetup(init, target, world, *SETUP_ARGS)


def assert_objective_bitwise(q, tau, setup):
    got = objective.total_objective(q, tau, setup)
    ref = reference_total_objective(q, tau, setup)
    assert type(got[0]) is float and same_bits(got[0], ref[0])
    assert same_bits(got[1], ref[1]) and same_bits(got[2], ref[2])


@pytest.mark.parametrize("name", sorted(WORLDS))
@SETTINGS
@given(data=st.data())
def test_total_objective_equals_reference_bitwise(name, data):
    q, tau, init, target = data.draw(problem())
    assert_objective_bitwise(q, tau, setup_for(WORLDS[name], init, target))


@SETTINGS
@given(data=st.data())
def test_total_objective_equals_reference_bitwise_all_out_of_bounds(data):
    q, tau, init, target = data.draw(problem(far=True))
    assert_objective_bitwise(q, tau, setup_for(WORLDS["scene4"], init, target))


@pytest.mark.parametrize("tau", [40.0, -40.0, 0.0, -0.0, 1e3, -1e3])
def test_saturated_and_zero_tau_equal_reference_bitwise(tau):
    for m in (1, 3):
        taus = np.full(m, tau)
        bounds = objective._duration_bounds(RC.transform)
        for got, ref in zip(objective._duration_map(taus, bounds),
                            reference_duration_map(taus, RC.transform)):
            assert same_bits(got, ref)
        init, target = BoundaryState([0.0, 0.0], [0.5, 0.0]), BoundaryState([6.0, 0.3], [1.0, 0.0])
        q = np.linspace(init.position, target.position, m + 1)[1:-1].T
        assert_objective_bitwise(q, taus, setup_for(WORLDS["pole"], init, target))


def test_one_setup_evaluates_as_fresh_setups_bitwise():
    # an ObjectiveSetup keeps workspaces from one evaluation to the next; no state
    # may pass through them: after other points, after an evaluation that raised
    # and for other piece counts, each result is a fresh setup's, bit for bit
    world = WORLDS["pole"]
    init = BoundaryState([0.0, 0.0], [0.5, 0.0], [0.2, -0.1])
    target = BoundaryState([6.0, 0.3], [1.0, 0.0])
    shared = setup_for(world, init, target)

    def point(m, bulge, tau):
        line = np.linspace(init.position, target.position, m + 1)[1:-1].T
        return line + bulge * np.sin(np.pi * np.arange(1, m) / m), np.full(m, tau)

    def check(q, tau):
        got = objective.total_objective(q, tau, shared)
        ref = objective.total_objective(q, tau, setup_for(world, init, target))
        assert type(got[0]) is float and same_bits(got[0], ref[0])
        assert same_bits(got[1], ref[1]) and same_bits(got[2], ref[2])

    x1 = point(3, 0.0, 0.4)  # through the pole: the obstacle term is active
    x2 = point(3, 2.5, -3.0)  # a wide bulge in short pieces: the feasibility term is active
    for (q, tau), term in ((x1, "obstacle"), (x2, "feasibility")):
        traj = minco.solve_coeffs(init, target, TrajParams(q, objective.tau_to_time(
            tau, RC.transform)), RC.s_order)
        samples = objective.sample_trajectory(traj, RC.penalty.kappa)
        cost = (objective.obstacle_cost(traj, world, RC.penalty, samples) if term == "obstacle"
                else objective.feasibility_cost(traj, RC.penalty, samples))[0]
        assert cost > 0.0, term
    for q, tau in (x1, x2, x1):
        check(q, tau)
    inf_knot = x1[0].copy()
    inf_knot[0, 1] = np.inf
    nan_tau = x1[1].copy()
    nan_tau[1] = np.nan
    for q, tau in ((inf_knot, x1[1]), (x1[0], nan_tau)):
        with pytest.raises(SingularSystem):
            objective.total_objective(q, tau, shared)
        check(*x1)
    for m in (2, 4, 1, 3):
        check(*point(m, 0.8, 0.2))
    check(*x1)


def assert_terms_bitwise(traj, world, cfg=PenaltyConfig()):
    """Every term, the sampled ones with shared samples, against the reference.

    Returns whether the obstacle and the feasibility terms were active.
    """
    samples = objective.sample_trajectory(traj, cfg.kappa)
    refs = {}
    for key, got, ref in (
        ("effort", objective.control_effort(traj, RC.s_order),
         reference_control_effort(traj, RC.s_order)),
        ("obstacle", objective.obstacle_cost(traj, world, cfg, samples),
         reference_obstacle_cost(traj, world, cfg)),
        ("feasibility", objective.feasibility_cost(traj, cfg, samples),
         reference_feasibility_cost(traj, cfg)),
    ):
        assert type(got[0]) is float and same_bits(got[0], ref[0]), key
        assert same_bits(got[1], ref[1]) and same_bits(got[2], ref[2]), key
        refs[key] = ref[0] > 0.0
    return refs["obstacle"], refs["feasibility"]


@pytest.mark.parametrize("name", sorted(WORLDS))
@SETTINGS
@given(data=st.data())
def test_terms_with_shared_samples_equal_reference_bitwise(name, data):
    q, tau, init, target = data.draw(problem(far=data.draw(st.booleans())))
    tbar = objective.tau_to_time(tau, RC.transform)
    assert_terms_bitwise(minco.solve_coeffs(init, target, TrajParams(q, tbar), RC.s_order),
                         WORLDS[name])


def test_terms_equal_reference_in_every_branch(rng):
    # active and inactive penalties, sample batches in, partly out of and
    # wholly out of bounds: each branch at least 10 times in 400 draws
    seen = {"obstacle": [0, 0], "feasibility": [0, 0], "in": 0, "mixed": 0, "out": 0}
    for k in range(400):
        world = WORLDS[sorted(WORLDS)[k % len(WORLDS)]]
        m = int(rng.integers(1, 5)) if k % 10 else 9
        slow = k % 3 == 0  # gentle boundary states, short hops, long pieces: feasible
        p0 = rng.uniform([-1.0, -0.5], [1.0, 0.5]) + (k % 7 == 0) * np.array([-60.0, 0.0])
        speed = 0.1 if slow else 0.8
        init = BoundaryState(p0, rng.normal(scale=speed, size=2), rng.normal(scale=speed, size=2))
        target = BoundaryState(p0 + rng.uniform([3.0, -1.0], [7.0, 1.0]) * (0.4 if slow else 1.0),
                               rng.normal(scale=speed, size=2))
        q = (np.linspace(init.position, target.position, m + 1)[1:-1].T
             + rng.normal(scale=0.1 if slow else rng.choice([0.1, 1.0, 2.5]), size=(2, m - 1)))
        durations = rng.uniform(3.0, 4.5, size=m) if slow else rng.uniform(0.6, 4.0, size=m)
        traj = minco.solve_coeffs(init, target, TrajParams(q, durations), RC.s_order)
        inside = world.in_bounds(objective.sample_trajectory(traj, RC.penalty.kappa)
                                 .values[0].reshape(-1, 2))
        seen["in" if inside.all() else "out" if not inside.any() else "mixed"] += 1
        obstacle, feasibility = assert_terms_bitwise(traj, world)
        seen["obstacle"][obstacle] += 1
        seen["feasibility"][feasibility] += 1
    assert min(seen["obstacle"] + seen["feasibility"]) >= 10, seen
    assert min(seen["in"], seen["mixed"], seen["out"]) >= 10, seen


@SETTINGS
@given(durations=st.lists(st.one_of(st.floats(0.5, 5.0), st.sampled_from([
    np.nextafter(0.5, 1.0), np.nextafter(5.0, 0.0), 1.0, 1e-3, 40.0])), min_size=1, max_size=5),
    seed=st.integers(0, 2**16))
def test_banded_system_equals_reference_bitwise(durations, seed):
    rhs = np.random.default_rng(seed).normal(size=(6 * len(durations), 2))
    work = minco.Workspace(len(durations), RC.s_order, rhs[:2 * RC.s_order])
    got = minco.BandedSystem(np.array(durations), RC.s_order, work)
    ref = ReferenceBandedSystem(durations, RC.s_order)
    for transpose in (False, True):
        assert same_bits(got.solve(rhs, transpose), ref.solve(rhs, transpose))


# --- the engine on frozen plan-set problems ----------------------------------

PLAN_SET = Path(__file__).resolve().parent.parent / "perfbench" / "data" / "plan_set.json"


def frozen_problem(index):
    """(world, init, target) of one frozen plan-set problem."""
    doc = json.loads(PLAN_SET.read_text())
    p = doc["problems"][index]
    return (GridWorld(SceneSpec.from_dict(doc["worlds"][p["world"]]), RC.resolution),
            BoundaryState(p["init"]["p"], p["init"]["v"], p["init"]["a"]),
            BoundaryState(p["target"]["p"], p["target"]["v"]))


@pytest.mark.parametrize("index", [0, 17, 40, 63, 91])
def test_minimize_on_plan_set_problem_equals_reference_bitwise(index):
    world, init, target = frozen_problem(index)
    tf, m = RC.transform, RC.m_pieces
    for guess in (
        initializers.baseline_init(init, target, m, tf, RC.penalty.v_max, RC.cruise_fraction),
        initializers.geo_init(world, init, target, m, tf, RC.penalty.v_max, RC.cruise_fraction,
                              RC.penalty.d_safe),
    ):
        setup = setup_for(world, init, target)
        tau0 = objective.time_to_tau(solver.clamp_durations(guess.durations, tf), tf)
        x0 = np.concatenate([guess.waypoints.flatten(order="F"), tau0])
        nq = 2 * (m - 1)

        def objective_of(evaluate):
            def f(x):
                h, dq, dtau = evaluate(x[:nq].reshape((2, m - 1), order="F"), x[nq:], setup)
                return h, np.concatenate([dq.flatten(order="F"), dtau])
            return f

        x, fx, iters, evals, conv = solver.minimize(objective_of(objective.total_objective),
                                                    x0, RC.solver)
        rx, rfx, riters, revals, rconv = reference_minimize(
            objective_of(reference_total_objective), x0, RC.solver)
        assert same_bits(x, rx) and same_bits(fx, rfx)
        assert (iters, evals, conv) == (riters, revals, rconv)
        assert iters > 5  # a real run, with a full curvature history


def test_minimize_equals_reference_on_rosenbrock():
    def rosen(x):
        v = 100.0 * (x[1] - x[0] ** 2) ** 2 + (1 - x[0]) ** 2
        return v, np.array([-400.0 * x[0] * (x[1] - x[0] ** 2) - 2.0 * (1 - x[0]),
                            200.0 * (x[1] - x[0] ** 2)])

    for x0 in ([-1.2, 1.0], [2.0, -1.5], [0.0, 0.0]):
        cfg = SolverConfig(g_tol=1e-12, f_tol=1e-18)
        got = solver.minimize(rosen, np.array(x0), cfg)
        ref = reference_minimize(rosen, np.array(x0), cfg)
        assert same_bits(got[0], ref[0]) and same_bits(got[1], ref[1])
        assert got[2:] == ref[2:]


# --- the ray walk -------------------------------------------------------------

RAY_WORLD = WORLDS["scene4"]


@st.composite
def ray_origin(draw):
    """Points on cell borders, at cell centers, anywhere, and inside obstacles."""
    xmin, ymin, xmax, ymax = RAY_WORLD.bounds
    res = RAY_WORLD.resolution
    border = st.integers(0, int((xmax - xmin) / res)).map(lambda k: xmin + k * res)
    center = st.integers(0, int((xmax - xmin) / res) - 1).map(lambda k: xmin + (k + 0.5) * res)
    x = draw(st.one_of(border, center, st.floats(xmin, xmax)))
    y = draw(st.one_of(st.integers(0, int((ymax - ymin) / res)).map(lambda k: ymin + k * res),
                       st.floats(ymin, ymax)))
    return np.array([x, y])


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(pos=ray_origin(),
       heading=st.one_of(st.sampled_from([0.0, np.pi / 2, np.pi, -np.pi / 2, np.pi / 4]),
                         st.floats(-np.pi, np.pi)))
def test_raycast_scan_equals_reference_bitwise(pos, heading):
    rays = (RC.n_rays, RC.fov_deg, RC.max_range)
    assert same_bits(RAY_WORLD.raycast_scan(pos, heading, *rays),
                     reference_raycast_scan(RAY_WORLD, pos, heading, *rays))


@pytest.mark.parametrize("dx, dy", [(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0),
                                    (-0.0, 1.0), (1.0, -0.0), (0.6, 0.8), (-0.8, -0.6)])
def test_axis_aligned_rays_equal_reference(dx, dy, rng):
    for _ in range(200):
        pos = np.array([rng.uniform(-2.0, 32.0), rng.uniform(-6.0, 6.0)])
        for max_range in (5.0, 5, 40.0):
            got = RAY_WORLD._cast_ray(pos, np.float64(dx), np.float64(dy), max_range)
            ref = reference_cast_ray(RAY_WORLD, pos, np.float64(dx), np.float64(dy), max_range)
            assert got == ref and np.signbit(got) == np.signbit(ref)
