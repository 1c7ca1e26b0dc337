"""Deterministic event-driven replanning simulation.

One episode is a single-threaded loop on a simulated 60 Hz clock: a
point-mass tracker follows the committed trajectory while replanning
events fire on a fixed interval.  Each replan reads the committed state
one foreseeing horizon ahead, plans from there to a local goal, and the
result is spliced in at t_x + max(foresee, latency) - so with enough
foresight the commanded state never jumps, while a zero horizon under
latency reproduces the abrupt desired-trajectory updates the horizon is
meant to prevent.  Everything is driven by the simulated clock; measured
wall times are kept in memory only, so reports are bit-reproducible.
"""

from __future__ import annotations

import bisect
import csv
import json
import math
import re
import time
from dataclasses import dataclass, field, fields

import numpy as np

from . import initializers, neural
from .config import RunConfig
from .errors import NeotrajError, NoFreeCell
from .minco import BoundaryState, Trajectory
from .solver import plan
from .world import GridWorld

REPORT_FORMAT = "neotraj-report-1"
SAMPLE_COLUMNS = ["t", "px", "py", "vx", "vy", "pdx", "pdy", "vdx", "vdy", "clearance"]


def derive_seed(master: int, index: int) -> int:
    """Per-episode seed: splitmix64 of the index XOR-folded with the master."""
    z = (index + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    z ^= z >> 31
    folded = (z ^ (z >> 32)) & 0xFFFFFFFF
    return (int(master) ^ folded) & 0xFFFFFFFF


# perfbench reads its episode setup through this name
EpisodeSetup = RunConfig


class CommittedTrajectory:
    """Evolving desired trajectory: segments plus their activation times.

    Segments are kept in activation order, including plans queued to
    activate later.  query(t) evaluates the last segment whose activation is
    at or before t; before the first activation (or on an empty object) it
    holds the initial state.
    """

    def __init__(self, hover_position):
        self.hover = np.asarray(hover_position, dtype=float)
        self.activations: list[float] = []
        self.segments: list[Trajectory] = []

    def add(self, t_activate: float, traj: Trajectory) -> None:
        """Insert traj at its activation time; a tie goes to the later add."""
        k = bisect.bisect_right(self.activations, t_activate)
        self.activations.insert(k, float(t_activate))
        self.segments.insert(k, traj)

    def query(self, t: float):
        """Desired (position, velocity, acceleration) at world time t."""
        k = bisect.bisect_right(self.activations, t) - 1
        if k < 0:
            z = np.zeros_like(self.hover)
            return self.hover.copy(), z, z.copy()
        traj = self.segments[k]
        s = min(max(t - self.activations[k], 0.0), traj.total_time)
        return traj.eval_state(s)


def _norm(v: np.ndarray) -> float:
    """np.linalg.norm of a float vector by its own formula, sqrt(v.dot(v)), without its overhead."""
    return math.sqrt(v.dot(v))


def select_local_goal(
    world: GridWorld, position, global_goal, setup: RunConfig
) -> BoundaryState:
    """Collision-free local target one lookahead distance ahead, moving at v_max.

    The candidate sits at min(lookahead, distance-to-goal) along the
    goal direction; if its clearance is below d_safe, the nearest grid
    cell (deterministic scan) with enough clearance replaces it.
    """
    lookahead = setup.replan.lookahead
    v_max, d_safe = setup.penalty.v_max, setup.penalty.d_safe
    position = np.asarray(position, dtype=float)
    goal = np.asarray(global_goal, dtype=float)
    to_goal = goal - position
    dist = _norm(to_goal)
    if dist <= lookahead:
        candidate = goal.copy()
        velocity = np.zeros(2)
    else:
        u = to_goal / dist
        candidate = position + lookahead * u
        velocity = v_max * u
    if world.distance_at(candidate) < d_safe:
        candidate = _nearest_clear_cell(world, candidate, d_safe)
        direction = goal - candidate
        n = _norm(direction)
        velocity = v_max * direction / n if n > 1e-9 else np.zeros(2)
    return BoundaryState(candidate, velocity)


SEARCH_RADIUS = 5.0  # meters around the candidate scanned for a clear cell


def _nearest_clear_cell(world: GridWorld, point, d_safe: float):
    """Center of the closest cell with clearance >= d_safe (ties: row-major)."""
    r_cells = int(np.ceil(SEARCH_RADIUS / world.resolution))
    cx, cy = world.cell_index(point)
    x0, x1 = max(cx - r_cells, 0), min(cx + r_cells + 1, world.nx)
    y0, y1 = max(cy - r_cells, 0), min(cy + r_cells + 1, world.ny)
    window = world.field[y0:y1, x0:x1]
    ys, xs = np.nonzero(window >= d_safe)
    if xs.size == 0:
        raise NoFreeCell(f"no cell with clearance >= {d_safe} within {SEARCH_RADIUS} m")
    centers_x = world.origin[0] + (xs + x0 + 0.5) * world.resolution
    centers_y = world.origin[1] + (ys + y0 + 0.5) * world.resolution
    d2 = (centers_x - point[0]) ** 2 + (centers_y - point[1]) ** 2
    # nonzero lists the cells row-major and argmin keeps the first of tied distances
    k = np.argmin(d2)
    return np.array([centers_x[k], centers_y[k]])


# EpisodeReport fields that stay out of the report file: wall times and the 2 Hz log
_IN_MEMORY = ("plan_wall_times", "samples")


@dataclass
class EpisodeReport:
    """Per-flight record of everything the benchmark aggregates."""

    scene: str
    strategy: str
    seed: int
    success: bool = False
    failure_reason: str = ""
    flight_time: float = 0.0
    path_length: float = 0.0
    collision_samples: int = 0
    feasibility_violation: float = 0.0
    trajectory_cost: float = 0.0
    iterations: list[int] = field(default_factory=list)
    plan_latencies: list[float] = field(default_factory=list)
    plan_wall_times: list[float] = field(default_factory=list)
    late_plans: int = 0
    rmse_position: float = 0.0
    rmse_velocity: float = 0.0
    max_command_jump: float = 0.0  # largest desired-position step between 60 Hz ticks
    samples: list[list[float]] = field(default_factory=list)

    @property
    def replan_count(self) -> int:
        return len(self.iterations)

    @property
    def mean_iterations(self) -> float:
        return float(np.mean(self.iterations)) if self.iterations else 0.0

    def to_json_dict(self) -> dict:
        """Deterministic subset: simulated-clock quantities only."""
        d = {f.name: getattr(self, f.name) for f in fields(self) if f.name not in _IN_MEMORY}
        d.update(format=REPORT_FORMAT, replan_count=self.replan_count,
                 mean_iterations=self.mean_iterations)
        return d

    def save_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    def save_samples_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(SAMPLE_COLUMNS)
            for row in self.samples:
                writer.writerow([repr(float(v)) for v in row])


def _failure_reason(exc: NeotrajError) -> str:
    """Snake-cased error class name, e.g. NoFreeCell -> no_free_cell."""
    return re.sub(r"(?<!^)(?=[A-Z])", "_", type(exc).__name__).lower()


def _heading_of(velocity, position, goal) -> float:
    """Velocity direction when moving, otherwise face the global goal."""
    if float(np.linalg.norm(velocity)) > 0.1:
        return float(np.arctan2(velocity[1], velocity[0]))
    to_goal = np.asarray(goal) - position
    if float(np.linalg.norm(to_goal)) < 1e-9:
        return 0.0
    return float(np.arctan2(to_goal[1], to_goal[0]))


def decide(world: GridWorld, strategy: initializers.InitStrategy, s_init: BoundaryState,
           s_target: BoundaryState, pos, vel, heading: float, setup: RunConfig, observe: bool):
    """One replanning decision: plan each guess of the strategy in order through this module's
    `plan` and return (each guess's PlanResult, the index `cheapest` keeps, the observation).
    The observation (a raycast, then encode_observation) is built when `observe` is set or the
    strategy carries a model, and is None otherwise."""
    obs = None
    if strategy.model is not None or observe:
        norm = strategy.model.norm if strategy.model is not None else setup.norm_constants()
        scan = world.raycast_scan(pos, heading, setup.n_rays, setup.fov_deg, setup.max_range)
        obs = neural.encode_observation(scan, pos, vel, heading, s_init, s_target, norm)
    guesses = strategy.guesses(world, s_init, s_target, obs, pos, heading, setup)
    results = [plan(s_init, s_target, g, world, setup.weights, setup.penalty,
                    setup.transform, setup.solver, setup.s_order) for g in guesses]
    return results, initializers.cheapest([r.cost for r in results]), obs


def run_episode(
    world: GridWorld,
    strategy: initializers.InitStrategy,
    setup: RunConfig,
    seed: int = 0,
    sample_sink=None,
) -> EpisodeReport:
    """Simulate one flight from the scene's start to its goal, one `decide` per replan.

    sample_sink, when given, is called per replanning event with
    (observation, expert-frame target, t) and is meant for dataset
    collection with the expert strategy.
    """
    rc = setup.replan
    dt = 1.0 / rc.tick_rate
    start = np.asarray(world.spec.start, dtype=float)
    goal = np.asarray(world.spec.goal, dtype=float)
    report = EpisodeReport(scene=world.spec.name or "scene", strategy=strategy.kind, seed=seed)
    norm = strategy.model.norm if strategy.model is not None else setup.norm_constants()

    committed = CommittedTrajectory(start)
    pos = start.copy()
    vel = np.zeros(2)
    pos_sq_err: list[float] = []
    vel_sq_err: list[float] = []
    tick = 0
    n_ticks = int(round(rc.timeout * rc.tick_rate))

    def do_replan(t_x: float) -> None:
        """Decide at t_x; add the kept plan to the timeline at its activation time."""
        t_start = time.perf_counter()  # the decision's wall time: observation, guesses, plans
        s_init = BoundaryState(*committed.query(t_x + rc.foresee))
        s_target = select_local_goal(world, s_init.position, goal, setup)
        heading = _heading_of(vel, pos, goal)
        results, best, obs = decide(world, strategy, s_init, s_target, pos, vel, heading, setup,
                                    sample_sink is not None)
        result = results[best]
        wall_time = time.perf_counter() - t_start

        if sample_sink is not None:
            target_vec = neural.encode_target(
                result.waypoints, result.durations, pos, heading, setup.transform, norm
            )
            sample_sink(obs, target_vec, t_x)

        latency = rc.latency
        if rc.use_wall_time:
            latency += np.ceil(wall_time * rc.tick_rate) / rc.tick_rate
        if latency > rc.foresee and rc.foresee > 0:
            report.late_plans += 1
        committed.add(t_x + max(rc.foresee, float(latency)), result.trajectory)
        report.iterations.append(int(result.iterations))
        report.plan_wall_times.append(wall_time)
        report.plan_latencies.append(float(latency))

    ticks_per_replan = max(int(round(rc.replan_interval * rc.tick_rate)), 1)
    log_01 = max(int(round(0.1 * rc.tick_rate)), 1)
    log_05 = max(int(round(0.5 * rc.tick_rate)), 1)

    while tick <= n_ticks:
        t = tick * dt
        if tick % ticks_per_replan == 0:
            try:
                do_replan(t)
            except NeotrajError as exc:  # a failed replan ends this episode only
                report.failure_reason = _failure_reason(exc)
                report.flight_time = t
                break

        pd, vd, ad = committed.query(t)
        if tick > 0:
            report.max_command_jump = max(
                report.max_command_jump, _norm(pd - prev_pd)
            )
        prev_pd = pd
        if tick % log_01 == 0:
            pos_sq_err.append(float(np.sum((pd - pos) ** 2)))
            vel_sq_err.append(float(np.sum((vd - vel) ** 2)))
        if tick % log_05 == 0:
            clearance = world.distance_at(pos)
            report.samples.append(
                [float(v) for v in (t, pos[0], pos[1], vel[0], vel[1], pd[0], pd[1], vd[0], vd[1], clearance)]
            )

        if _norm(pos - goal) <= rc.goal_tolerance:
            report.success = True
            report.flight_time = t
            break
        if world.collides(pos, rc.drone_radius):
            report.failure_reason = "collision"
            report.flight_time = t
            break

        accel = rc.kp * (pd - pos) + rc.kv * (vd - vel) + ad
        a_norm = _norm(accel)
        a_cap = 3.0 * setup.penalty.a_max
        if a_norm > a_cap:
            accel *= a_cap / a_norm
        vel = vel + accel * dt
        pos = pos + vel * dt
        tick += 1
    else:
        report.failure_reason = "timeout"
        report.flight_time = n_ticks * dt

    pts = np.array([[row[1], row[2]] for row in report.samples])
    if pts.shape[0] >= 2:
        report.path_length = float(np.sum(np.linalg.norm(np.diff(pts, axis=0), axis=1)))
    # row[9] is the sample's clearance, world.distance_at(pos); world.collides compares it
    report.collision_samples = sum(1 for row in report.samples if row[9] < rc.drone_radius)
    report.feasibility_violation = float(
        sum(max(np.hypot(row[3], row[4]) - setup.penalty.v_max, 0.0) for row in report.samples)
    )
    report.trajectory_cost = (
        report.path_length + report.collision_samples + report.feasibility_violation
    )
    if pos_sq_err:
        report.rmse_position = float(np.sqrt(np.mean(pos_sq_err)))
        report.rmse_velocity = float(np.sqrt(np.mean(vel_sq_err)))
    return report
