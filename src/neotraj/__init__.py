"""Spatial-temporal trajectory optimization with learned warm starts.

Polynomial trajectories parameterized by waypoints and piece durations,
an L-BFGS planner over both, four initialization strategies (straight
baseline, A* geometric, tri-seed expert, learned predictor) and a
deterministic latency-tolerant replanning simulator with a benchmark CLI.
"""

from .config import ReplanConfig, RunConfig
from .initializers import InitStrategy, astar_path, baseline_init, expert_plan, geo_init, neural_init
from .minco import BoundaryState, TrajParams, Trajectory, propagate_gradients, solve_coeffs
from .neural import MlpModel, NormConstants, adam_step, train
from .objective import (
    CostWeights,
    PenaltyConfig,
    TimeTransform,
    control_effort,
    feasibility_cost,
    obstacle_cost,
    tau_to_time,
    time_cost,
    time_to_tau,
    total_objective,
)
from .replan import CommittedTrajectory, EpisodeReport, run_episode, select_local_goal
from .solver import PlanResult, SolverConfig, minimize, plan
from .world import GridWorld, SceneSpec, generate_scene

__version__ = "0.1.0"
