"""L-BFGS engine and the single-shot planner facade."""

import numpy as np
import pytest

from conftest import PLAN_ARGS, RC, SETUP_ARGS
from neotraj.errors import NonFiniteObjective
from neotraj.minco import BoundaryState, TrajParams
from neotraj.objective import ObjectiveSetup, total_objective, time_to_tau
from neotraj.solver import PlanResult, SolverConfig, _cubic_min, _wolfe_search, minimize, plan
from neotraj.world import GridWorld, SceneSpec


def quadratic(center):
    def f(x):
        return float(np.sum((x - center) ** 2)), 2.0 * (x - center)

    return f


def test_quadratic_converges_fast():
    a = np.array([1.0, 2.0, 3.0])
    x, val, iters, evals, conv = minimize(quadratic(a), np.zeros(3), RC.solver)
    assert conv
    assert iters <= 5
    assert np.max(np.abs(x - a)) < 1e-8


def test_rosenbrock():
    def rosen(x):
        v = 100.0 * (x[1] - x[0] ** 2) ** 2 + (1 - x[0]) ** 2
        g = np.array(
            [-400.0 * x[0] * (x[1] - x[0] ** 2) - 2.0 * (1 - x[0]), 200.0 * (x[1] - x[0] ** 2)]
        )
        return v, g

    x, val, iters, evals, conv = minimize(
        rosen, np.array([-1.2, 1.0]), SolverConfig(g_tol=1e-9, f_tol=1e-16)
    )
    assert np.max(np.abs(x - 1.0)) < 1e-6


def test_stationary_start_returns_immediately():
    x, val, iters, evals, conv = minimize(
        lambda x: (0.0, np.zeros(2)), np.array([3.0, 4.0]), RC.solver
    )
    assert iters == 0 and conv
    assert np.array_equal(x, [3.0, 4.0])


def test_nonfinite_start_raises():
    with pytest.raises(NonFiniteObjective):
        minimize(lambda x: (np.nan, np.zeros(1)), np.zeros(1), RC.solver)


def test_unbounded_objective_returns_unconverged():
    # the expanding line-search step reaches its 1e6 cap, which leaves zoom a
    # zero-width bracket; the cubic fit must bisect instead of dividing by zero
    x, val, iters, evals, conv = minimize(
        lambda x: (float(-x[0]), np.array([-1.0])), np.zeros(1), SolverConfig()
    )
    assert np.all(np.isfinite(x)) and np.isfinite(val)
    assert conv is False


def test_accepted_steps_strictly_decrease():
    values = []

    def tracker(x):
        v, g = quadratic(np.array([2.0, -1.0]))(x)
        return v, g

    # monotone decrease is observable through repeated minimize calls at
    # increasing iteration caps: cost never increases with more iterations
    prev = np.inf
    for cap in range(1, 6):
        _, val, _, _, _ = minimize(tracker, np.array([10.0, 10.0]), SolverConfig(max_iterations=cap))
        assert val <= prev + 1e-15
        prev = val


def test_cubic_min_returns_none_when_degenerate():
    assert _cubic_min(0.0, 0.25, -1.0, 1.0, 0.25, 1.0) == 0.5
    assert _cubic_min(0.0, 0.0, 2.0, 1.0, 1.0, 2.0) is None  # d1 = 1, discriminant 1 - 4 < 0
    assert _cubic_min(0.0, 0.0, 3.0, 1.0, 1.0, 3.0) is None  # d1 = 3, d2 = 0: denominator 0


def _traced(f, trials):
    def func(x):
        trials.append(float(x[0]))
        return f(x)

    return func


def test_wolfe_search_refuses_a_direction_that_does_not_descend():
    trials = []
    g0 = np.array([-2.0])
    func = _traced(quadratic(np.array([1.0])), trials)
    assert _wolfe_search(func, np.zeros(1), 1.0, g0, np.zeros(1), RC.solver, 1.0) is None
    assert _wolfe_search(func, np.zeros(1), 1.0, g0, g0, RC.solver, 1.0) is None
    assert trials == []


def test_wolfe_search_halves_a_step_whose_value_is_not_finite():
    def f(x):
        if x[0] > 1.0:
            return np.inf, np.array([np.nan])
        return quadratic(np.array([0.5]))(x)

    trials = []
    x0 = np.zeros(1)
    f0, g0 = f(x0)
    alpha, fa, ga = _wolfe_search(_traced(f, trials), x0, f0, g0, -g0, RC.solver, 4.0)
    # 4 and 2 land past x = 1, 1 is finite but too high, and zoom's cubic finds 0.5
    assert trials == [4.0, 2.0, 1.0, 0.5]
    assert (alpha, fa, ga.tolist()) == (0.5, 0.0, [0.0])


def test_wolfe_search_gives_up_when_its_steps_run_out():
    # a linear descent never brackets a minimum, so every trial doubles the step
    trials = []
    func = _traced(lambda x: (float(-x[0]), np.array([-1.0])), trials)
    cfg = SolverConfig(max_ls_steps=5)
    assert _wolfe_search(func, np.zeros(1), 0.0, np.array([-1.0]), np.ones(1), cfg, 1.0) is None
    assert trials == [1.0, 2.0, 4.0, 8.0, 16.0]


def test_minimize_falls_back_to_steepest_descent_on_a_vanished_gradient():
    # A g_tol below 0 keeps an exactly zero gradient from converging.  The
    # L-BFGS direction is then zero, which does not descend, so minimize falls
    # back to steepest descent.  That direction is zero as well, so the line
    # search refuses it and the run ends unconverged at the minimum.
    x, val, iters, evals, conv = minimize(
        quadratic(np.array([1.0])), np.zeros(1), SolverConfig(g_tol=-1.0)
    )
    assert (x.tolist(), val, iters, evals, conv) == ([1.0], 0.0, 1, 2, False)


def _plan_setup(world=None):
    init = BoundaryState([0.0, 0.0], [0.0, 0.0])
    target = BoundaryState([6.0, 0.0], [0.0, 0.0])
    guess = TrajParams(np.array([[2.0, 4.0], [0.5, -0.5]]), [2.0, 2.0, 2.0])
    return init, target, guess, world or GridWorld(SceneSpec(), RC.resolution)


def test_plan_empty_world_monotone_descent():
    init, target, guess, world = _plan_setup()
    setup = ObjectiveSetup(init, target, world, *SETUP_ARGS)
    tau0 = time_to_tau(np.clip(guess.durations, 0.501, 4.999), setup.transform)
    h0, _, _ = total_objective(guess.waypoints, tau0, setup)
    result = plan(init, target, guess, world, *PLAN_ARGS)
    assert isinstance(result, PlanResult)
    assert result.cost <= h0
    # final trajectory clears obstacles trivially and stays within bounds
    from neotraj.objective import PenaltyConfig, obstacle_cost, sample_trajectory

    cfg = PenaltyConfig()
    samples = sample_trajectory(result.trajectory, cfg.kappa)
    assert obstacle_cost(result.trajectory, world, cfg, samples)[0] == 0.0
    assert np.all(result.durations > 0.5) and np.all(result.durations < 5.0)


def test_plan_same_basin_same_cost():
    init, target, _, world = _plan_setup()
    g1 = TrajParams(np.array([[2.0, 4.0], [0.2, 0.2]]), [2.0, 2.0, 2.0])
    g2 = TrajParams(np.array([[1.8, 4.2], [0.3, 0.1]]), [2.2, 1.9, 2.1])
    r1 = plan(init, target, g1, world, *PLAN_ARGS)
    r2 = plan(init, target, g2, world, *PLAN_ARGS)
    assert r1.cost == pytest.approx(r2.cost, abs=1e-4)


def test_plan_multimodal_symmetric_obstacle():
    spec = SceneSpec(obstacles=[(3.0, 0.0, 1.0)])
    world = GridWorld(spec, RC.resolution)
    init = BoundaryState([0.0, 0.0], [0.0, 0.0])
    target = BoundaryState([6.0, 0.0], [0.0, 0.0])
    left = plan(init, target, TrajParams(np.array([[2.0, 4.0], [1.2, 1.2]]), [2.0, 2.0, 2.0]),
                world, *PLAN_ARGS)
    right = plan(init, target, TrajParams(np.array([[2.0, 4.0], [-1.2, -1.2]]), [2.0, 2.0, 2.0]),
                 world, *PLAN_ARGS)
    assert np.all(left.waypoints[1] > 0.0)
    assert np.all(right.waypoints[1] < 0.0)


def test_plan_warm_start_fixed_point():
    init, target, guess, world = _plan_setup()
    first = plan(init, target, guess, world, *PLAN_ARGS)
    again = plan(init, target, TrajParams(first.waypoints, first.durations), world, *PLAN_ARGS)
    assert again.iterations <= 2


def test_plan_deterministic_iterations():
    init, target, guess, world = _plan_setup()
    runs = [plan(init, target, guess, world, *PLAN_ARGS) for _ in range(2)]
    assert runs[0].iterations == runs[1].iterations
    assert runs[0].cost == runs[1].cost
    assert np.array_equal(runs[0].waypoints, runs[1].waypoints)


def test_plan_clamps_out_of_range_guess_durations():
    init, target, guess, world = _plan_setup()
    bad = TrajParams(guess.waypoints, [0.1, 9.0, 2.0])
    result = plan(init, target, bad, world, *PLAN_ARGS)
    assert np.all(result.durations > 0.5) and np.all(result.durations < 5.0)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(c1=0.5, c2=0.1)
    with pytest.raises(ValueError):
        SolverConfig(history=0)
