"""Initial-guess strategies: baseline, A*, geo, expert, neural decode."""

import json
from pathlib import Path

import numpy as np
import pytest

from conftest import EXPERT_ARGS, MODEL_SIZES, PLAN_ARGS, RC
from neotraj.errors import NoPath
from neotraj.initializers import (
    InitStrategy,
    _timed,
    astar_path,
    baseline_init,
    cheapest,
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


def reference_astar_path(world, start, goal, inflate):
    """astar_path as first written: numpy element reads per neighbour, the heuristic
    computed on every push, and the step added as numpy floats."""
    import heapq

    res = world.resolution
    blocked = world.field < inflate
    s = world.cell_index(start)
    g = world.cell_index(goal)
    if blocked[s[1], s[0]] or blocked[g[1], g[0]]:
        raise NoPath("start or goal cell blocked after inflation")

    def h(cell):
        return res * np.hypot(cell[0] - g[0], cell[1] - g[1])

    moves = [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1)]
    g_score = {s: 0.0}
    came = {}
    open_heap = [(h(s), 0, s[1] * world.nx + s[0], s, (0, 0))]
    closed = set()
    while open_heap:
        _, _, _, cur, arrival = heapq.heappop(open_heap)
        if cur in closed:
            continue
        closed.add(cur)
        if cur == g:
            cells = [cur]
            while cells[-1] in came:
                cells.append(came[cells[-1]])
            cells.reverse()
            return np.array([world.cell_center(ix, iy) for ix, iy in cells])
        for mv in moves:
            nxt = (cur[0] + mv[0], cur[1] + mv[1])
            if not (0 <= nxt[0] < world.nx and 0 <= nxt[1] < world.ny):
                continue
            if blocked[nxt[1], nxt[0]] or nxt in closed:
                continue
            step = res * (np.sqrt(2.0) if mv[0] and mv[1] else 1.0)
            cand = g_score[cur] + step
            if cand < g_score.get(nxt, np.inf) - 1e-12:
                g_score[nxt] = cand
                came[nxt] = cur
                turn = 0 if mv == arrival else 1
                heapq.heappush(
                    open_heap, (cand + h(nxt), turn, nxt[1] * world.nx + nxt[0], nxt, mv)
                )
    raise NoPath(f"no path from {tuple(start)} to {tuple(goal)}")


def test_astar_equals_reference_on_every_plan_set_geo_decision():
    doc = json.loads(PLAN_SET.read_text())
    worlds = [GridWorld(SceneSpec.from_dict(w), RC.resolution) for w in doc["worlds"]]
    for p in doc["problems"]:  # the endpoints geo_init searches between
        world = worlds[p["world"]]
        start = BoundaryState(p["init"]["p"], p["init"]["v"], p["init"]["a"]).position
        goal = BoundaryState(p["target"]["p"], p["target"]["v"]).position
        got, ref = astar_path(world, start, goal, INFLATE), reference_astar_path(
            world, start, goal, INFLATE)
        assert _same_bytes(got, ref)


@pytest.mark.parametrize("start, goal", [
    ((0.0, 0.0), (30.0, 0.0)),  # the wall separates them
    ((5.0, 0.1), (30.0, 0.0)),  # start inside the wall
    ((0.0, 0.0), (5.0, -0.2)),  # goal inside the wall
])
def test_astar_no_path_as_reference(start, goal):
    wall = [(5.0, y, 1.0) for y in np.arange(-5.5, 6.0, 0.9)]
    world = GridWorld(SceneSpec(obstacles=wall), RC.resolution)
    with pytest.raises(NoPath) as got:
        astar_path(world, start, goal, INFLATE)
    with pytest.raises(NoPath) as ref:
        reference_astar_path(world, start, goal, INFLATE)
    assert str(got.value) == str(ref.value)


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
        from neotraj.objective import obstacle_cost, sample_trajectory
        from neotraj.minco import TrajParams, solve_coeffs

        traj = solve_coeffs(init, target, guess, RC.s_order)
        cfg = PenaltyConfig()
        return obstacle_cost(traj, world, cfg, sample_trajectory(traj, cfg.kappa))[0]

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


PLAN_SET = Path(__file__).resolve().parent.parent / "perfbench" / "data" / "plan_set.json"


def _reference_resample(path, fracs):
    """Points at given arclength fractions of a polyline, shape (len(fracs), 2)."""
    seg = np.linalg.norm(np.diff(path, axis=0), axis=1)
    arc = np.concatenate(([0.0], np.cumsum(seg)))
    total = arc[-1]
    if total < 1e-12:
        return np.tile(path[0], (fracs.size, 1))
    return np.column_stack(
        [np.interp(fracs * total, arc, path[:, k]) for k in range(path.shape[1])]
    )


def _reference_geo_init(world, init, target, m, tf, v_max, cruise_fraction, inflate):
    """geo_init as two passes over the A* path: resample it, then measure it again."""
    try:
        path = astar_path(world, init.position, target.position, inflate)
    except NoPath:
        return baseline_init(init, target, m, tf, v_max, cruise_fraction)
    path = np.vstack([init.position, path, target.position])
    fracs = np.arange(1, m) / m
    q = _reference_resample(path, fracs).T
    seg = np.linalg.norm(np.diff(path, axis=0), axis=1)
    total_len = float(seg.sum())
    if total_len < 1e-9:
        return baseline_init(init, target, m, tf, v_max, cruise_fraction)
    return _timed(q, total_len, tf, v_max, cruise_fraction)


def _same_bytes(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("m", [1, 3, 4])
def test_geo_equals_two_pass_reference_bitwise_on_plan_set(m):
    doc = json.loads(PLAN_SET.read_text())
    worlds = [GridWorld(SceneSpec.from_dict(w), RC.resolution) for w in doc["worlds"]]
    assert len(doc["problems"]) >= 100
    for p in doc["problems"]:
        world = worlds[p["world"]]
        init = BoundaryState(p["init"]["p"], p["init"]["v"], p["init"]["a"])
        target = BoundaryState(p["target"]["p"], p["target"]["v"])
        args = (world, init, target, m, TF, *CRUISE, INFLATE)
        got, ref = geo_init(*args), _reference_geo_init(*args)
        assert _same_bytes(got.waypoints, ref.waypoints)
        assert _same_bytes(got.durations, ref.durations)


def test_geo_on_a_zero_length_path_equals_reference_bitwise(empty_world):
    # start and goal on the same cell center: the snapped path has length exactly 0
    p = empty_world.cell_center(*empty_world.cell_index([4.0, 0.0]))
    state = BoundaryState(p, [0.0, 0.0])
    args = (empty_world, state, state, 3, TF, *CRUISE, INFLATE)
    path = np.vstack([p, astar_path(empty_world, p, p, INFLATE), p])
    assert np.linalg.norm(np.diff(path, axis=0), axis=1).sum() == 0.0
    got, ref = geo_init(*args), _reference_geo_init(*args)
    assert _same_bytes(got.waypoints, ref.waypoints)
    assert _same_bytes(got.durations, ref.durations)
    assert _same_bytes(got.waypoints, baseline_init(state, state, 3, TF, *CRUISE).waypoints)


def test_deformed_guesses_shape():
    init = BoundaryState([0, 0], [0, 0])
    target = BoundaryState([6, 0], [0, 0])
    straight, left, right = deformed_guesses(init, target, 3, TF, *CRUISE, 1.5)
    bulge = 1.5 * np.sin(np.pi * np.array([1, 2]) / 3)
    assert np.allclose(left.waypoints[1], straight.waypoints[1] + bulge)
    assert np.allclose(right.waypoints[1], straight.waypoints[1] - bulge)


@pytest.mark.parametrize("costs, best", [
    ([10.8305, 26.62, 10.83], 0),  # within 1e-3 of the minimum: a tie, the lowest index wins
    ([26.62, 10.8305, 10.83], 1),
    ([10.87, 26.62, 10.83], 2),  # lower by more than 1e-3: the cheaper one wins
    ([5.0], 0),  # one guess
], ids=["tie_to_first", "tie_to_second", "cheaper_wins", "one_guess"])
def test_cheapest_tie_rule(costs, best):
    assert cheapest(costs) == best


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
    model = MlpModel(RC.norm_constants(), **MODEL_SIZES, seed=0)
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
    with pytest.raises(ValueError):
        InitStrategy("baseline", _identity_model())
    InitStrategy("baseline")


def _same_params(a, b):
    return np.array_equal(a.waypoints, b.waypoints) and np.array_equal(a.durations, b.durations)


def test_guesses_are_the_initializers_output(scene4_world):
    init = BoundaryState([0, 0], [0, 0])
    target = BoundaryState([6, 1], [0, 0])
    obs, pos, heading = np.full(76, 0.1), np.array([0.5, -0.5]), 0.3
    model = _identity_model()
    m = RC.m_pieces
    direct = {
        "baseline": [baseline_init(init, target, m, TF, *CRUISE)],
        "geo": [geo_init(scene4_world, init, target, m, TF, *CRUISE, INFLATE)],
        "expert": deformed_guesses(init, target, m, TF, *CRUISE, RC.deform_amplitude),
        "neural": [neural_init(model, obs, pos, heading, TF)],
    }
    for kind, expected in direct.items():
        strategy = InitStrategy(kind, model if kind == "neural" else None)
        got = strategy.guesses(scene4_world, init, target, obs, pos, heading, RC)
        assert len(got) == len(expected) == (3 if kind == "expert" else 1)
        assert all(_same_params(a, b) for a, b in zip(got, expected)), kind
