"""L-BFGS engine and the single-shot planner facade."""

import numpy as np
import pytest

from conftest import PLAN_ARGS, RC, SETUP_ARGS
from neotraj.errors import NonFiniteObjective
from neotraj.minco import BoundaryState, TrajParams
from neotraj.objective import ObjectiveSetup, total_objective, time_to_tau
from neotraj.solver import PlanResult, SolverConfig, minimize, plan
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
    from neotraj.objective import PenaltyConfig, obstacle_cost

    assert obstacle_cost(result.trajectory, world, PenaltyConfig())[0] == 0.0
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
