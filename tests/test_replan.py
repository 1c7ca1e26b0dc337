"""Committed-trajectory splicing, local goals, episodes, latency behavior."""

import itertools
import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import EXPERT_ARGS, MODEL_SIZES, PLAN_ARGS, RC
from neotraj import replan
from neotraj.config import RunConfig
from neotraj.errors import NoFreeCell
from neotraj.initializers import InitStrategy, cheapest, expert_plan
from neotraj.minco import BoundaryState, TrajParams, solve_coeffs
from neotraj.neural import MlpModel, encode_observation
from neotraj.replan import (
    CommittedTrajectory,
    EpisodeReport,
    decide,
    derive_seed,
    run_episode,
    select_local_goal,
)
from neotraj.solver import plan
from neotraj.world import GridWorld, SceneSpec, generate_scene


def straight_traj(p0, p1, duration):
    init = BoundaryState(p0, [0.0, 0.0])
    target = BoundaryState(p1, [0.0, 0.0])
    mid = (np.asarray(p0) + np.asarray(p1)) / 2.0
    params = TrajParams(mid[:, None], [duration / 2, duration / 2])
    return solve_coeffs(init, target, params, RC.s_order)


def test_committed_hover_before_first_activation():
    c = CommittedTrajectory([1.0, 2.0])
    p, v, a = c.query(0.5)
    assert np.allclose(p, [1.0, 2.0]) and np.allclose(v, 0.0) and np.allclose(a, 0.0)


def test_splice_prefix_preserved_and_new_segment_active():
    c = CommittedTrajectory([0.0, 0.0])
    t1 = straight_traj([0, 0], [2, 0], 4.0)
    c.add(0.0, t1)
    eps = 1e-6
    before = c.query(3.0 - eps)[0].copy()
    t2 = straight_traj(c.query(3.0)[0], [4, 0], 4.0)
    c.add(2.0 + 1.0, t2)
    assert np.allclose(c.query(3.0 - eps)[0], before)  # prefix unchanged
    after = c.query(3.0 + eps)[0]
    assert np.allclose(after, t2.eval(eps), atol=1e-9)


def test_splice_continuity_when_planned_from_foreseen_state():
    c = CommittedTrajectory([0.0, 0.0])
    t1 = straight_traj([0, 0], [2, 0], 4.0)
    c.add(0.0, t1)
    t_x, foresee = 1.5, 1.0
    p, v, a = c.query(t_x + foresee)
    new = solve_coeffs(
        BoundaryState(p, v, a),
        BoundaryState([4.0, 0.0], [0.0, 0.0]),
        TrajParams(((p + [4.0, 0.0]) / 2)[:, None], [2.0, 2.0]),
        RC.s_order,
    )
    c.add(t_x + foresee, new)
    eps = 1e-7
    assert np.linalg.norm(c.query(t_x + foresee + eps)[0] - c.query(t_x + foresee - eps)[0]) < 1e-6


def test_splice_out_of_order_add_placed_by_activation_time():
    c = CommittedTrajectory([0.0, 0.0])
    late = straight_traj([0, 0], [2, 0], 4.0)
    early = straight_traj([0, 0], [1, 0], 2.0)
    tie = straight_traj([5, 0], [6, 0], 2.0)
    c.add(3.0, late)
    c.add(1.5, early)  # queued after `late`, active before it
    assert c.activations == [1.5, 3.0]
    assert np.allclose(c.query(2.0)[0], early.eval(0.5))
    assert np.allclose(c.query(3.5)[0], late.eval(0.5))
    c.add(3.0, tie)  # same activation: the later add wins
    assert c.activations == [1.5, 3.0, 3.0]
    assert np.allclose(c.query(3.5)[0], tie.eval(0.5))


def test_select_local_goal_unobstructed(empty_world):
    s = select_local_goal(empty_world, [0.0, 0.0], [30.0, 0.0], RunConfig())
    assert np.allclose(s.position, [6.0, 0.0], atol=1e-9)
    assert np.allclose(s.velocity, [1.0, 0.0])


def test_select_local_goal_terminal(empty_world):
    s = select_local_goal(empty_world, [29.6, 0.0], [30.0, 0.0], RunConfig())
    assert np.allclose(s.position, [30.0, 0.0])
    assert np.allclose(s.velocity, 0.0)


def test_select_local_goal_moves_off_obstacle():
    world = GridWorld(SceneSpec(obstacles=[(6.0, 0.0, 1.0)]), RC.resolution)
    s = select_local_goal(world, [0.0, 0.0], [30.0, 0.0], RunConfig())
    assert world.distance_at(s.position) >= 0.4
    assert np.linalg.norm(s.position - np.array([6.0, 0.0])) <= 2.0


def test_select_local_goal_no_free_cell():
    # saturate the whole map: every cell ends up with clearance < d_safe
    lattice = [
        (x, y, 1.7)
        for x in np.arange(-3.0, 33.5, 1.8)
        for y in np.arange(-7.0, 7.5, 1.8)
    ]
    world = GridWorld(SceneSpec(obstacles=lattice), RC.resolution)
    assert float(world.field.max()) < 0.4
    with pytest.raises(NoFreeCell):
        select_local_goal(world, [0.0, -0.6], [30.0, -0.6], RunConfig())


def test_nearest_clear_cell_breaks_distance_ties_row_major():
    # binary-exact cell centers around a candidate on a cell corner at the
    # obstacle's center: 12 clear cells lie at exactly the same distance, and
    # the first of them in row-major order (lowest row, then lowest column)
    # wins; column-major order would pick (-0.875, -0.125) instead
    spec = SceneSpec(bounds=(-8.0, -8.0, 8.0, 8.0), obstacles=[(0.0, 0.0, 1.0)],
                     start=(-6.0, 0.0), goal=(6.0, 0.0))
    world = GridWorld(spec, 0.25)
    point, d_safe = np.array([0.0, 0.0]), 0.3
    ys, xs = np.nonzero(world.field >= d_safe)
    d2 = (world.origin[0] + (xs + 0.5) * 0.25 - point[0]) ** 2 + (
        world.origin[1] + (ys + 0.5) * 0.25 - point[1]) ** 2
    assert np.count_nonzero(d2 == d2.min()) == 12
    cell = replan._nearest_clear_cell(world, point, d_safe)
    assert cell.tolist() == [-0.125, -0.875]


def test_episode_empty_map_success(empty_world, default_setup):
    rep = run_episode(empty_world, InitStrategy("baseline"), default_setup, seed=1)
    assert rep.success
    assert rep.collision_samples == 0
    assert np.hypot(rep.samples[-1][1] - 30.0, rep.samples[-1][2]) <= 1.0
    assert len(rep.iterations) == rep.replan_count
    # replans fire on the configured cadence
    assert abs(rep.replan_count - rep.flight_time / 1.0) <= 1.5


def test_report_json_keys():
    # every simulated-clock field, without the in-memory wall times and 2 Hz samples
    doc = EpisodeReport("scene4", "baseline", 3, iterations=[4, 6]).to_json_dict()
    assert set(doc) == {
        "format", "scene", "strategy", "seed", "success", "failure_reason", "flight_time",
        "path_length", "collision_samples", "feasibility_violation", "trajectory_cost",
        "replan_count", "iterations", "mean_iterations", "plan_latencies", "late_plans",
        "rmse_position", "rmse_velocity", "max_command_jump",
    }
    assert (doc["format"], doc["replan_count"], doc["mean_iterations"]) == ("neotraj-report-1", 2, 5.0)


def test_episode_deterministic(scene4_world, default_setup):
    a = run_episode(scene4_world, InitStrategy("baseline"), default_setup, seed=5)
    b = run_episode(scene4_world, InitStrategy("baseline"), default_setup, seed=5)
    assert json.dumps(a.to_json_dict(), sort_keys=True) == json.dumps(b.to_json_dict(), sort_keys=True)
    assert a.samples == b.samples


def test_episode_commanded_continuity_with_latency(default_setup):
    world = GridWorld(generate_scene(preset=6, seed=9), RC.resolution)
    rc = RunConfig.from_dict({"latency": 0.8, "foresee": 1.0})
    rep = run_episode(world, InitStrategy("geo"), rc, seed=0)
    bound = rc.penalty.v_max * (1.0 / 60.0) * 2.0 + 1e-6
    assert rep.max_command_jump < bound
    assert rep.late_plans == 0


@pytest.mark.parametrize("overrides", [
    {},
    {"foresee": 1.0, "replan_interval": 0.5},  # the previous plan is still queued at a replan
    {"foresee": 1.5},
], ids=["default", "foresee_1_interval_0.5", "foresee_1.5"])
def test_episode_horizon_longer_than_interval_keeps_command_continuous(overrides):
    # each replan starts from the timeline that holds every queued plan, so
    # the plan it splices in continues the one active at its activation
    spec = SceneSpec(bounds=(-2.0, -4.0, 12.0, 4.0), start=(0.0, 0.0), goal=(10.0, 0.0))
    rc = RunConfig.from_dict(overrides)
    rep = run_episode(GridWorld(spec, rc.resolution), InitStrategy("baseline"), rc, seed=0)
    assert rep.success
    assert rep.max_command_jump < 0.05


def test_episode_counts_a_plan_later_than_the_horizon_as_late():
    # every plan takes 0.8 s but is foreseen only 0.5 s ahead
    spec = SceneSpec(bounds=(-2.0, -4.0, 12.0, 4.0), start=(0.0, 0.0), goal=(10.0, 0.0))
    rc = RunConfig.from_dict({"latency": 0.8, "foresee": 0.5})
    rep = run_episode(GridWorld(spec, rc.resolution), InitStrategy("baseline"), rc, seed=0)
    assert rep.replan_count > 0
    assert rep.late_plans == rep.replan_count


def test_episode_zero_foresight_jumps(default_setup):
    world = GridWorld(generate_scene(preset=6, seed=9), RC.resolution)
    rc = RunConfig.from_dict({"latency": 0.8, "foresee": 0.0})
    rep = run_episode(world, InitStrategy("geo"), rc, seed=0)
    assert rep.max_command_jump > 0.1


def test_episode_latency_rmse_direction():
    world = GridWorld(generate_scene(preset=6, seed=9), RC.resolution)
    rms = {}
    for foresee in (0.0, 1.0):
        rc = RunConfig.from_dict({"latency": 0.8, "foresee": foresee})
        rep = run_episode(world, InitStrategy("geo"), rc, seed=0)
        rms[foresee] = (rep.rmse_position, rep.rmse_velocity)
    assert rms[1.0][0] < rms[0.0][0]
    assert rms[1.0][1] < rms[0.0][1]


def test_tracker_at_rest_stays_at_rest(empty_world):
    # no motion commanded: episode from start=goal succeeds immediately
    spec = SceneSpec(start=(0.0, 0.0), goal=(0.0, 0.0))
    world = GridWorld(spec, RC.resolution)
    rep = run_episode(world, InitStrategy("baseline"), RunConfig(), seed=0)
    assert rep.success
    assert rep.flight_time == 0.0


def test_report_json_excludes_wall_times(tmp_path, empty_world, default_setup):
    rep = run_episode(empty_world, InitStrategy("baseline"), default_setup, seed=2)
    path = tmp_path / "rep.json"
    rep.save_json(path)
    doc = json.loads(path.read_text())
    assert doc["format"] == "neotraj-report-1"
    assert "plan_wall_times" not in doc
    assert len(rep.plan_wall_times) == rep.replan_count  # kept in memory
    log = tmp_path / "log.csv"
    rep.save_samples_csv(log)
    lines = log.read_text().splitlines()
    assert lines[0] == "t,px,py,vx,vy,pdx,pdy,vdx,vdy,clearance"
    assert len(lines) == len(rep.samples) + 1


def test_decision_wall_time_covers_every_plan(monkeypatch):
    # each clock read advances 1/32 s, so a decision read twice takes exactly
    # 1/32 s however many plans the expert runs in between
    clock = SimpleNamespace(perf_counter=itertools.count(0.0, 0.03125).__next__)
    monkeypatch.setattr(replan, "time", clock)
    spec = SceneSpec(bounds=(-2.0, -4.0, 12.0, 4.0), start=(0.0, 0.0), goal=(10.0, 0.0))
    rc = RunConfig.from_dict({"use_wall_time": True})
    rep = run_episode(GridWorld(spec, rc.resolution), InitStrategy("expert"), rc, seed=0)
    assert rep.replan_count > 0
    assert rep.plan_wall_times == [0.03125] * rep.replan_count
    # ceil(1/32 s * 60 Hz) = 2 ticks on top of the configured latency
    assert rep.plan_latencies == [rc.replan.latency + 2 / 60] * rep.replan_count


def test_neo_refuses_a_model_of_another_piece_count(scene4_world):
    # RC's network emits 3-piece plans; an m_pieces 4 episode must not fly them
    rc = RunConfig.from_dict({"m_pieces": 4})
    model = MlpModel(rc.norm_constants(), **MODEL_SIZES, seed=0)
    rep = run_episode(scene4_world, InitStrategy("neural", model), rc, seed=3)
    assert not rep.success
    assert rep.failure_reason == "model_shape_mismatch"
    assert rep.replan_count == 0


def test_episode_contains_planner_error(scene4_world, default_setup, plan_fails_from_second_call):
    rep = run_episode(scene4_world, InitStrategy("baseline"), default_setup, seed=5)
    assert not rep.success
    assert rep.failure_reason == "singular_system"
    assert rep.replan_count == 1  # the failing second replan records nothing
    assert rep.flight_time == pytest.approx(default_setup.replan.replan_interval)
    assert rep.to_json_dict()["failure_reason"] == "singular_system"


def test_derive_seed_properties():
    seeds = {derive_seed(42, i) for i in range(1000)}
    assert len(seeds) == 1000  # no collisions across episode indices
    assert derive_seed(42, 7) == derive_seed(42, 7)
    assert derive_seed(42, 7) != derive_seed(43, 7)
    assert all(0 <= s < 2**32 for s in seeds)


def test_collision_samples_count_sample_rows_inside_the_drone_radius():
    # The start is already inside the drone radius: the nearest occupied cell
    # centers are (0.25, +-0.05), so distance_at(start) = 0.25 < 0.3.  Tick 0
    # replans, logs its sample row, then fails the collision test, so exactly
    # one row is logged and it lies inside the radius.
    spec = SceneSpec(obstacles=[(0.6, 0.0, 0.8)], start=(0.0, 0.0), goal=(6.0, 0.0))
    world = GridWorld(spec, RC.resolution)
    rc = RunConfig()
    assert world.distance_at(world.spec.start) == pytest.approx(0.25)
    report = run_episode(world, InitStrategy("baseline"), rc, seed=0)
    assert report.failure_reason == "collision" and report.flight_time == 0.0
    # reference: one collision query per sample row
    radius = rc.replan.drone_radius
    expected = sum(world.collides(np.array([row[1], row[2]]), radius) for row in report.samples)
    assert report.collision_samples == expected == 1


# --- one replanning decision on frozen plan-set problems ---------------------

DATA = Path(__file__).resolve().parent.parent / "perfbench" / "data"


def frozen_decision_inputs(index):
    """(world, init, target, position, velocity, heading) of one frozen plan-set problem."""
    doc = json.loads((DATA / "plan_set.json").read_text())
    p = doc["problems"][index]
    pose = p["pose"]
    return (GridWorld(SceneSpec.from_dict(doc["worlds"][p["world"]]), RC.resolution),
            BoundaryState(p["init"]["p"], p["init"]["v"], p["init"]["a"]),
            BoundaryState(p["target"]["p"], p["target"]["v"]),
            np.asarray(pose["p"], dtype=float), np.asarray(pose["v"], dtype=float),
            pose["heading"])


def strategy_of(kind):
    return InitStrategy(kind, MlpModel.load(DATA / "neo_model.json") if kind == "neural" else None)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("kind", ["baseline", "geo", "expert", "neural"])
@pytest.mark.parametrize("index", [0, 40, 91])
def test_decide_plans_every_guess_and_keeps_the_cheapest(index, kind):
    world, init, target, pos, vel, heading = frozen_decision_inputs(index)
    strategy = strategy_of(kind)
    results, best, obs = decide(world, strategy, init, target, pos, vel, heading, RC, False)
    guesses = strategy.guesses(world, init, target, obs, pos, heading, RC)
    assert len(results) == len(guesses) == (3 if kind == "expert" else 1)
    for got, guess in zip(results, guesses):
        want = plan(init, target, guess, world, *PLAN_ARGS)
        for field in ("waypoints", "durations", "cost"):
            assert same_bits(getattr(got, field), getattr(want, field)), field
        assert same_bits(got.trajectory.coefficients, want.trajectory.coefficients)
        assert (got.iterations, got.ls_evals, got.converged) == (
            want.iterations, want.ls_evals, want.converged)
    assert best == cheapest([r.cost for r in results])


@pytest.mark.parametrize("kind, observe", [
    ("baseline", False), ("baseline", True), ("expert", True), ("neural", False),
])
def test_decide_observes_when_asked_or_when_the_strategy_has_a_model(kind, observe):
    world, init, target, pos, vel, heading = frozen_decision_inputs(40)
    strategy = strategy_of(kind)
    _, _, obs = decide(world, strategy, init, target, pos, vel, heading, RC, observe)
    if strategy.model is None and not observe:
        assert obs is None
        return
    norm = strategy.model.norm if strategy.model is not None else RC.norm_constants()
    scan = world.raycast_scan(pos, heading, RC.n_rays, RC.fov_deg, RC.max_range)
    assert same_bits(obs, encode_observation(scan, pos, vel, heading, init, target, norm))


@pytest.mark.parametrize("index", [0, 40, 91])
def test_decide_keeps_the_plan_expert_plan_keeps(index):
    world, init, target, pos, vel, heading = frozen_decision_inputs(index)
    results, best, _ = decide(world, InitStrategy("expert"), init, target, pos, vel, heading,
                              RC, False)
    kept, seed, costs = expert_plan(world, init, target, *EXPERT_ARGS)
    assert (best, [r.cost for r in results]) == (seed, costs)
    assert same_bits(results[best].trajectory.coefficients, kept.trajectory.coefficients)
