"""Objective terms, tau transform, and full-gradient finite differences."""

import math

import numpy as np
import pytest

from conftest import RC, SETUP_ARGS, random_instance
from neotraj.errors import OutOfRange
from neotraj.minco import BoundaryState, TrajParams, Trajectory, solve_coeffs
from neotraj.objective import (
    CostWeights,
    ObjectiveSetup,
    PenaltyConfig,
    TimeTransform,
    _duration_bounds,
    _duration_map,
    control_effort,
    feasibility_cost,
    obstacle_cost,
    sample_trajectory,
    tau_to_time,
    time_cost,
    time_to_tau,
    total_objective,
)
from neotraj.world import GridWorld, SceneSpec


def test_control_effort_zero_trajectory():
    traj = Trajectory(np.zeros((1, 6, 2)), np.array([1.0]))
    cost, dc, dt = control_effort(traj, RC.s_order)
    assert cost == 0.0
    assert np.allclose(dc[0], 0.0) and np.allclose(dt, 0.0)


@pytest.mark.parametrize("d,T", [(1.0, 1.0), (2.5, 1.7), (-3.0, 0.8)])
def test_control_effort_min_jerk_closed_form(d, T):
    traj = solve_coeffs(
        BoundaryState([0.0], [0.0]), BoundaryState([d], [0.0]), TrajParams(np.zeros((1, 0)), [T]),
        RC.s_order,
    )
    cost, _, _ = control_effort(traj, RC.s_order)
    assert cost == pytest.approx(720 * d * d / T**5, rel=1e-9)


def test_control_effort_matches_quadrature(rng):
    for _ in range(10):
        init, target, params = random_instance(rng)
        traj = solve_coeffs(init, target, params, RC.s_order)
        cost, _, _ = control_effort(traj, RC.s_order)
        # numerical quadrature oracle
        total = 0.0
        for i in range(traj.n_pieces):
            s = np.linspace(0, params.durations[i], 4001)
            jerk = traj.eval_piece(i, s, 3)
            total += np.trapezoid(np.sum(jerk**2, axis=1), s)
        assert cost == pytest.approx(total, rel=1e-6)


def test_time_cost():
    c, g = time_cost(np.array([1.0, 1.0, 1.0]))
    assert c == 3.0 and np.allclose(g, 1.0)
    assert time_cost(np.array([0.5, 2.0, 5.0]))[0] == 7.5
    assert time_cost(np.array([5.0, 0.5, 2.0]))[0] == 7.5


def test_obstacle_cost_empty_world(empty_world, rng):
    # any in-bounds trajectory (out-of-bounds samples count as zero clearance)
    cfg = PenaltyConfig()
    for _ in range(10):
        init = BoundaryState([10.0, 0.0] + rng.uniform(-1, 1, 2), rng.uniform(-0.5, 0.5, 2))
        target = BoundaryState([16.0, 0.0] + rng.uniform(-1, 1, 2), rng.uniform(-0.5, 0.5, 2))
        q = np.column_stack([rng.uniform([11, -3], [15, 3]) for _ in range(2)])
        traj = solve_coeffs(init, target, TrajParams(q, rng.uniform(1.5, 3.0, 3)), RC.s_order)
        cost, dc, dt = obstacle_cost(traj, empty_world, cfg, sample_trajectory(traj, cfg.kappa))
        assert cost == 0.0
        assert all(np.allclose(g, 0.0) for g in dc) and np.allclose(dt, 0.0)


def test_obstacle_cost_against_dense_quadrature():
    # straight constant-speed pass 0.2 m from a pole's edge
    spec = SceneSpec(obstacles=[(5.0, 0.7, 1.0)])
    world = GridWorld(spec, RC.resolution)
    coef = np.zeros((6, 2))
    coef[0, 0] = 3.0
    coef[1, 0] = 1.0
    traj = Trajectory(coef[None], np.array([4.0]))
    coarse, _, _ = obstacle_cost(traj, world, PenaltyConfig(kappa=16), sample_trajectory(traj, 16))
    dense, _, _ = obstacle_cost(traj, world, PenaltyConfig(kappa=4096),
                                sample_trajectory(traj, 4096))
    assert coarse > 0.0
    assert coarse == pytest.approx(dense, rel=0.02)


def test_feasibility_zero_within_limits(rng):
    init = BoundaryState([0.0, 0.0], [0.0, 0.0])
    target = BoundaryState([1.0, 0.0], [0.0, 0.0])
    traj = solve_coeffs(init, target, TrajParams(np.array([[0.5], [0.0]]), [2.0, 2.0]), RC.s_order)
    cfg = PenaltyConfig()
    cost, dc, dt = feasibility_cost(traj, cfg, sample_trajectory(traj, cfg.kappa))
    assert cost == 0.0
    assert all(np.allclose(g, 0.0) for g in dc) and np.allclose(dt, 0.0)


def test_feasibility_constant_speed_closed_form():
    coef = np.zeros((6, 2))
    coef[1, 0] = 1.2
    cfg = PenaltyConfig()
    for tb in (0.7, 1.3, 3.0):
        traj = Trajectory(coef[None], np.array([tb]))
        cost, _, _ = feasibility_cost(traj, cfg, sample_trajectory(traj, cfg.kappa))
        assert cost == pytest.approx(tb * (1.2**2 - 1.0**2) ** 3, rel=1e-12)


def test_tau_transform():
    tf = TimeTransform(0.5, 5.0)
    assert tau_to_time(np.zeros(3), tf) == pytest.approx([2.75] * 3)
    taus = np.linspace(-10, 10, 41)
    back = time_to_tau(tau_to_time(taus, tf), tf)
    assert np.allclose(back, taus, atol=1e-10)
    # monotone approach to the upper bound; strictly interior until the
    # sigmoid saturates in float64
    assert np.all(np.diff(tau_to_time(np.linspace(-3, 12, 50), tf)) > 0)
    assert tau_to_time(np.array([30.0]), tf)[0] < 5.0
    assert tau_to_time(np.array([5000.0]), tf)[0] == pytest.approx(5.0, abs=1e-12)
    with pytest.raises(OutOfRange):
        time_to_tau(np.array([0.5]), tf)
    with pytest.raises(OutOfRange):
        time_to_tau(np.array([5.0]), tf)


def test_saturated_tau_stays_strictly_inside_the_bounds():
    # _sigmoid(40.0) rounds to 1.0, so unclipped these map exactly onto a bound
    tf = TimeTransform(0.5, 5.0)
    taus = np.array([40.0, -40.0, 1e3, -1e3])
    tbar = tau_to_time(taus, tf)
    assert np.all((tbar > tf.t_min) & (tbar < tf.t_max))
    assert np.all(np.isfinite(time_to_tau(tbar, tf)))


def test_duration_map_derivative_matches_fd():
    tf = TimeTransform()
    for tau in (-2.0, 0.0, 1.3):
        h = 1e-6
        fd = (tau_to_time(tau + h, tf) - tau_to_time(tau - h, tf)) / (2 * h)
        dtbar = _duration_map(np.array([tau]), _duration_bounds(tf))[1][0]
        assert dtbar == pytest.approx(float(fd), rel=1e-8)


def test_total_objective_time_only(empty_world):
    setup = ObjectiveSetup(
        BoundaryState([0.0, 0.0], [0.0, 0.0]),
        BoundaryState([3.0, 0.0], [0.0, 0.0]),
        empty_world,
        CostWeights(0.0, 1.0, 0.0, 0.0),
        *SETUP_ARGS[1:],
    )
    tau = np.array([0.3, -0.2, 0.9])
    h, dq, dtau = total_objective(np.zeros((2, 2)), tau, setup)
    assert h == pytest.approx(float(tau_to_time(tau, setup.transform).sum()))
    assert np.allclose(dq, 0.0)


def test_total_objective_empty_world_zero_obstacle_term(empty_world):
    init = BoundaryState([0.0, 0.0], [0.0, 0.0])
    target = BoundaryState([6.0, 0.0], [0.0, 0.0])
    q = np.array([[2.0, 4.0], [0.0, 0.0]])
    tau = np.zeros(3)
    with_obs = total_objective(q, tau, ObjectiveSetup(init, target, empty_world, *SETUP_ARGS))[0]
    no_obs = total_objective(
        q, tau, ObjectiveSetup(init, target, empty_world, CostWeights(1, 1, 0, 1), *SETUP_ARGS[1:])
    )[0]
    assert with_obs == pytest.approx(no_obs, abs=1e-12)


def test_total_objective_pure(scene4_world):
    setup = ObjectiveSetup(
        BoundaryState([1.0, 0.2], [0.5, 0.0]), BoundaryState([7.0, -0.4], [0.6, 0.1]), scene4_world,
        *SETUP_ARGS,
    )
    q = np.array([[3.0, 5.0], [0.4, -0.2]])
    tau = np.array([0.1, -0.3, 0.2])
    a = total_objective(q, tau, setup)
    b = total_objective(q, tau, setup)
    assert a[0] == b[0]
    assert np.array_equal(a[1], b[1]) and np.array_equal(a[2], b[2])


def test_all_terms_nonnegative_and_finite(scene4_world, rng):
    cfg = PenaltyConfig()
    for _ in range(20):
        init, target, params = random_instance(rng)
        traj = solve_coeffs(init, target, params, RC.s_order)
        samples = sample_trajectory(traj, cfg.kappa)
        for cost in (
            control_effort(traj, RC.s_order)[0],
            time_cost(params.durations)[0],
            obstacle_cost(traj, scene4_world, cfg, samples)[0],
            feasibility_cost(traj, cfg, samples)[0],
        ):
            assert np.isfinite(cost) and cost >= 0.0


def test_piecewise_accumulation(scene4_world, rng):
    # each term equals the sum of its single-piece evaluations
    init, target, params = random_instance(rng)
    traj = solve_coeffs(init, target, params, RC.s_order)
    cfg = PenaltyConfig()
    for term in (lambda t: control_effort(t, RC.s_order),
                 lambda t: feasibility_cost(t, cfg, sample_trajectory(t, cfg.kappa)),
                 lambda t: obstacle_cost(t, scene4_world, cfg, sample_trajectory(t, cfg.kappa))):
        total = term(traj)[0]
        parts = 0.0
        for i in range(traj.n_pieces):
            single = Trajectory(traj.coefficients[i:i + 1], traj.durations[i:i + 1])
            parts += term(single)[0]
        assert total == pytest.approx(parts, rel=1e-12, abs=1e-12)


def _fd_total(q, tau, setup, h=1e-6):
    h0, dq, dtau = total_objective(q, tau, setup)
    worst = 0.0
    for idx in np.ndindex(q.shape):
        qp, qm = q.copy(), q.copy()
        qp[idx] += h
        qm[idx] -= h
        fd = (total_objective(qp, tau, setup)[0] - total_objective(qm, tau, setup)[0]) / (2 * h)
        worst = max(worst, abs(fd - dq[idx]) / max(1.0, abs(fd)))
    for i in range(tau.size):
        tp, tm = tau.copy(), tau.copy()
        tp[i] += h
        tm[i] -= h
        fd = (total_objective(q, tp, setup)[0] - total_objective(q, tm, setup)[0]) / (2 * h)
        worst = max(worst, abs(fd - dtau[i]) / max(1.0, abs(fd)))
    return worst


def test_total_objective_gradients_match_fd(scene4_world, rng):
    setup = ObjectiveSetup(
        BoundaryState([2.0, 0.3], [0.8, 0.1]), BoundaryState([8.0, -0.5], [0.5, -0.2]), scene4_world,
        *SETUP_ARGS,
    )
    worst = 0.0
    for _ in range(25):
        q = np.array([[4.0, 6.0], [0.0, 0.0]]) + rng.normal(scale=1.0, size=(2, 2))
        tau = rng.normal(scale=0.8, size=3)
        worst = max(worst, _fd_total(q, tau, setup))
    assert worst < 1e-4


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_total_objective_gradients_match_fd_per_piece_count(scene4_world, rng, m):
    # the terms are batched over pieces; check every piece count the template serves
    from neotraj.cli import _near_field_kink

    init = BoundaryState([2.0, 0.3], [0.8, 0.1])
    target = BoundaryState([8.0, -0.5], [0.5, -0.2])
    setup = ObjectiveSetup(init, target, scene4_world, *SETUP_ARGS)
    line = init.position[:, None] + np.outer(target.position - init.position, np.arange(1, m) / m)
    worst, checked = 0.0, 0
    while checked < 10:
        q = line + rng.normal(scale=1.0, size=line.shape)
        tau = rng.normal(scale=0.8, size=m)
        if _near_field_kink(q, tau, setup, scene4_world):
            continue  # FD across a cell border of the bilinear field is meaningless
        worst = max(worst, _fd_total(q, tau, setup))
        checked += 1
    assert worst < 1e-4


def _loop_sample_basis(kappa, n, order, t):
    frac = np.arange(kappa + 1) / kappa
    unit, pw = np.zeros((kappa + 1, n)), np.zeros(n)
    for j in range(order, n):
        unit[:, j] = math.perm(j, order) * frac ** (j - order)
        pw[j] = j - order
    return unit * t**pw


def _loop_terms(traj, world, cfg, s=3):
    """Reference: the three cost terms evaluated piece by piece in a Python loop."""
    m, n, kappa = traj.n_pieces, traj.coefficients.shape[1], cfg.kappa
    w = np.ones(kappa + 1)
    w[0] = w[-1] = 0.5
    frac = np.arange(kappa + 1) / kappa
    fac = np.array([math.perm(j, s) for j in range(s, n)], dtype=float)
    a_idx = np.arange(n - s)
    psum = a_idx[:, None] + a_idx[None, :] + 1
    out = {k: [0.0, [np.zeros((n, 2)) for _ in range(m)], np.zeros(m)] for k in "eof"}
    pos = np.vstack([_loop_sample_basis(kappa, n, 0, t) @ c
                     for c, t in zip(traj.coefficients, traj.durations)])
    dist, dgrad = world.query_distance(pos)
    gap = np.maximum(cfg.d_safe - dist, 0.0)
    for i, (c, t) in enumerate(zip(traj.coefficients, traj.durations)):
        e = out["e"]
        u = fac[:, None] * c[s:]
        p = t**psum / psum
        e[0] += float(np.einsum("ad,ab,bd->", u, p, u))
        e[1][i][s:] = 2.0 * fac[:, None] * (p @ u)
        end = (t**a_idx) @ u
        e[2][i] = float(end @ end)

        b = [_loop_sample_basis(kappa, n, k, t) for k in range(4)]
        vel, acc, jrk = b[1] @ c, b[2] @ c, b[3] @ c
        sl = slice(i * (kappa + 1), (i + 1) * (kappa + 1))
        pen, dpen = gap[sl] ** 3, (-3.0 * gap[sl] ** 2)[:, None] * dgrad[sl]
        dpen_ds = np.sum(dpen * vel, axis=1)
        o = out["o"]
        o[0] += (t / kappa) * float(w @ pen)
        o[1][i] += (t / kappa) * (b[0].T @ (w[:, None] * dpen))
        o[2][i] = (1.0 / kappa) * float(w @ pen) + (t / kappa) * float(w @ (dpen_ds * frac))

        ev = np.maximum(np.sum(vel**2, axis=1) - cfg.v_max**2, 0.0)
        ea = np.maximum(np.sum(acc**2, axis=1) - cfg.a_max**2, 0.0)
        pen = ev**3 + ea**3
        f = out["f"]
        f[0] += (t / kappa) * float(w @ pen)
        f[1][i] += (t / kappa) * (b[1].T @ (w[:, None] * (6.0 * ev**2)[:, None] * vel)
                                  + b[2].T @ (w[:, None] * (6.0 * ea**2)[:, None] * acc))
        dpen_ds = 6.0 * ev**2 * np.sum(vel * acc, axis=1) + 6.0 * ea**2 * np.sum(acc * jrk, axis=1)
        f[2][i] = (1.0 / kappa) * float(w @ pen) + (t / kappa) * float(w @ (dpen_ds * frac))
    return out


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_batched_terms_equal_piecewise_loop(scene4_world, rng, m):
    # batching over pieces reorders no floating-point operation: every term
    # equals the per-piece loop bitwise, where the penalties are active or not
    cfg = PenaltyConfig()
    active = {"o": 0, "f": 0}
    for _ in range(30):
        init = BoundaryState([2.0, 0.3] + rng.normal(scale=0.3, size=2), rng.normal(size=2))
        target = BoundaryState([8.0, -0.5] + rng.normal(scale=0.3, size=2), rng.normal(size=2))
        line = np.linspace(init.position, target.position, m + 1)[1:-1].T
        q = line + rng.normal(scale=1.0, size=line.shape)
        traj = solve_coeffs(init, target, TrajParams(q, rng.uniform(0.6, 3.5, size=m)), RC.s_order)
        ref = _loop_terms(traj, scene4_world, cfg)
        samples = sample_trajectory(traj, cfg.kappa)
        for key, got in (("e", control_effort(traj, RC.s_order)),
                         ("o", obstacle_cost(traj, scene4_world, cfg, samples)),
                         ("f", feasibility_cost(traj, cfg, samples))):
            if key in active:
                active[key] += ref[key][0] > 0.0
            assert got[0] == ref[key][0]
            assert np.array_equal(got[1], np.array(ref[key][1]))
            assert np.array_equal(got[2], ref[key][2])
    assert min(active.values()) >= 10
