"""Initial-guess strategies: baseline, A*, geo, expert, neural decode."""

import numpy as np
import pytest

from conftest import EXPERT_ARGS, PLAN_ARGS, RC
from neotraj.errors import NoPath
from neotraj.initializers import (
    InitStrategy,
    astar_path,
    baseline_init,
    deformed_guesses,
    expert_plan,
    geo_init,
    neural_init,
)
from neotraj.minco import BoundaryState
from neotraj.neural import MlpModel
from neotraj.objective import PenaltyConfig, TimeTransform
from neotraj.solver import plan
from neotraj.world import GridWorld, SceneSpec

TF = TimeTransform()
CRUISE = (RC.penalty.v_max, RC.cruise_fraction)  # the initializers' speed arguments
INFLATE = RC.penalty.d_safe  # the episode loop inflates A* obstacles by d_safe


def test_baseline_even_spacing():
    start, goal = BoundaryState([0, 0], [0, 0]), BoundaryState([3, 0], [0, 0])
    p = baseline_init(start, goal, 3, TF, *CRUISE)
    assert np.allclose(p.waypoints, [[1.0, 2.0], [0.0, 0.0]])


def test_baseline_time_split():
    # distance tuned so the total time is 4 s: 4 * 0.7 = 2.8 m at v_max 1
    start, goal = BoundaryState([0, 0], [0, 0]), BoundaryState([2.8, 0], [0, 0])
    p = baseline_init(start, goal, 3, TF, *CRUISE)
    assert np.allclose(p.durations, [1.5, 1.0, 1.5])


def test_baseline_degenerate():
    s = BoundaryState([1.0, 2.0], [0.0, 0.0])
    p = baseline_init(s, s, 3, TF, *CRUISE)
    assert np.allclose(p.waypoints, [[1.0, 1.0], [2.0, 2.0]])
    assert np.all(p.durations > TF.t_min) and np.all(p.durations == p.durations[0])


def test_all_strategies_duration_bounds(scene4_world):
    init = BoundaryState([0, 0], [0, 0])
    target = BoundaryState([30, 0], [0, 0])
    for guess in [
        baseline_init(init, target, 3, TF, *CRUISE),
        geo_init(scene4_world, init, target, 3, TF, *CRUISE, INFLATE),
        *deformed_guesses(init, target, 3, TF, *CRUISE, RC.deform_amplitude),
    ]:
        assert np.all(guess.durations > TF.t_min)
        assert np.all(guess.durations < TF.t_max)


def test_astar_empty_map_straight():
    world = GridWorld(SceneSpec(), RC.resolution)
    path = astar_path(world, (0.0, 0.0), (30.0, 0.0), INFLATE)
    direct = np.hypot(30.0, 0.0)
    length = np.sum(np.linalg.norm(np.diff(path, axis=0), axis=1))
    assert length <= direct + 2 * world.resolution * np.sqrt(2.0)
    assert np.max(np.abs(path[:, 1])) <= 0.1


def test_astar_no_path():
    wall = [(5.0, y, 1.0) for y in np.arange(-5.5, 6.0, 0.9)]
    world = GridWorld(SceneSpec(obstacles=wall), RC.resolution)
    with pytest.raises(NoPath):
        astar_path(world, (0.0, 0.0), (30.0, 0.0), INFLATE)


def test_astar_detour_longer_than_straight():
    world = GridWorld(SceneSpec(obstacles=[(5.0, 0.0, 1.5)]), RC.resolution)
    path = astar_path(world, (0.0, 0.0), (10.0, 0.0), INFLATE)
    length = np.sum(np.linalg.norm(np.diff(path, axis=0), axis=1))
    assert length >= 10.0


def test_geo_equals_baseline_on_empty_map():
    world = GridWorld(SceneSpec(), RC.resolution)
    init = BoundaryState([0, 0], [0, 0])
    target = BoundaryState([12, 0], [0, 0])
    g = geo_init(world, init, target, 3, TF, *CRUISE, INFLATE)
    b = baseline_init(init, target, 3, TF, *CRUISE)
    # grid-quantized A* path is marginally longer than the exact segment
    assert np.allclose(g.waypoints, b.waypoints, atol=0.1)
    assert np.allclose(g.durations, b.durations, atol=0.1)


def test_geo_guess_cheaper_on_blocked_segment():
    world = GridWorld(SceneSpec(obstacles=[(5.0, 0.0, 1.5)]), RC.resolution)
    init = BoundaryState([0, 0], [0, 0])
    target = BoundaryState([10, 0], [0, 0])

    def obstacle_term(guess):
        from neotraj.objective import obstacle_cost
        from neotraj.minco import TrajParams, solve_coeffs

        traj = solve_coeffs(init, target, guess, RC.s_order)
        return obstacle_cost(traj, world, PenaltyConfig())[0]

    g = geo_init(world, init, target, 3, TF, *CRUISE, INFLATE)
    b = baseline_init(init, target, 3, TF, *CRUISE)
    assert np.max(np.abs(g.waypoints[1])) > 0.3  # waypoints leave the segment
    assert obstacle_term(g) < obstacle_term(b)


def test_geo_fallback_on_no_path():
    wall = [(5.0, y, 1.0) for y in np.arange(-5.5, 6.0, 0.9)]
    world = GridWorld(SceneSpec(obstacles=wall), RC.resolution)
    init = BoundaryState([0, 0], [0, 0])
    target = BoundaryState([30, 0], [0, 0])
    g = geo_init(world, init, target, 3, TF, *CRUISE, INFLATE)
    b = baseline_init(init, target, 3, TF, *CRUISE)
    assert np.allclose(g.waypoints, b.waypoints)


def test_geo_deterministic(scene4_world):
    init = BoundaryState([0, 0], [0, 0])
    target = BoundaryState([30, 0], [0, 0])
    a = geo_init(scene4_world, init, target, 3, TF, *CRUISE, INFLATE)
    b = geo_init(scene4_world, init, target, 3, TF, *CRUISE, INFLATE)
    assert np.array_equal(a.waypoints, b.waypoints)
    assert np.array_equal(a.durations, b.durations)


def test_deformed_guesses_shape():
    init = BoundaryState([0, 0], [0, 0])
    target = BoundaryState([6, 0], [0, 0])
    straight, left, right = deformed_guesses(init, target, 3, TF, *CRUISE, 1.5)
    bulge = 1.5 * np.sin(np.pi * np.array([1, 2]) / 3)
    assert np.allclose(left.waypoints[1], straight.waypoints[1] + bulge)
    assert np.allclose(right.waypoints[1], straight.waypoints[1] - bulge)


def test_expert_selection_is_argmin():
    # selection logic mirror: costs like 10.87 / 26.62 / 10.83 pick index 2
    costs = [10.87, 26.62, 10.83]
    assert int(np.argmin(costs)) == 2


def test_expert_empty_world_tie_break(empty_world):
    init = BoundaryState([0, 0], [0, 0])
    target = BoundaryState([6, 0], [0, 0])
    result, chosen, costs = expert_plan(empty_world, init, target, *EXPERT_ARGS)
    assert len(costs) == 3
    assert max(costs) - min(costs) < 1e-3
    assert chosen == 0  # tie resolves to the straight seed
    assert result.cost <= min(costs) + 1e-3


def test_expert_symmetric_obstacle(empty_world):
    world = GridWorld(SceneSpec(obstacles=[(3.0, 0.0, 1.0)]), RC.resolution)
    init = BoundaryState([0, 0], [0, 0])
    target = BoundaryState([6, 0], [0, 0])
    result, chosen, costs = expert_plan(world, init, target, *EXPERT_ARGS)
    assert costs[1] == pytest.approx(costs[2], abs=1e-3)
    assert costs[1] < costs[0]
    assert chosen == 1
    assert result.cost <= min(costs) + 1e-3


def test_expert_plans_at_the_given_s_order(empty_world):
    init = BoundaryState([0, 0], [0, 0])
    target = BoundaryState([6, 0], [0, 0])
    guess = baseline_init(init, target, 3, TF, *CRUISE)
    baseline = plan(init, target, guess, empty_world, *PLAN_ARGS[:-1], 2)
    expert, _, _ = expert_plan(empty_world, init, target, *EXPERT_ARGS[:-1], 2)
    assert baseline.trajectory.coefficients.shape == (3, 4, 2)  # 2S coefficients per piece
    assert expert.trajectory.coefficients.shape == (3, 4, 2)


def _identity_model():
    # head weights wired so the output equals a fixed vector, for decode tests
    model = MlpModel(RC.norm_constants(), seed=0)
    for name in model.layers:
        model.layers[name] = [(np.zeros_like(w), np.zeros_like(b)) for w, b in model.layers[name]]
    return model


def test_neural_init_identity_pose():
    model = _identity_model()
    out = np.array([1.0 / 6, 0.0, 2.0 / 6, 0.0, 0.0, 0.0, 0.0])
    w, b = model.layers["head"][-1]
    model.layers["head"][-1] = (w, out.copy())  # bias drives the output
    params = neural_init(model, np.zeros(76), np.zeros(2), 0.0, TF)
    assert np.allclose(params.waypoints, [[1.0, 2.0], [0.0, 0.0]], atol=1e-12)
    assert np.allclose(params.durations, 2.75)


def test_neural_init_rotated_pose():
    model = _identity_model()
    out = np.array([1.0 / 6, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    w, b = model.layers["head"][-1]
    model.layers["head"][-1] = (w, out.copy())
    params = neural_init(model, np.zeros(76), np.array([2.0, 3.0]), np.pi / 2, TF)
    # body (1, 0) rotates to world offset (0, 1)
    assert np.allclose(params.waypoints[:, 0], [2.0, 4.0], atol=1e-12)


def test_strategy_validation():
    with pytest.raises(ValueError):
        InitStrategy("nope")
    with pytest.raises(ValueError):
        InitStrategy("neural")
    InitStrategy("baseline")
