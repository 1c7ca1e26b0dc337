"""Spatial-temporal trajectory optimization with learned warm starts.

Polynomial trajectories parameterized by waypoints and piece durations,
an L-BFGS planner over both, four initialization strategies (straight
baseline, A* geometric, tri-seed expert, learned predictor) and a
deterministic latency-tolerant replanning simulator with a benchmark CLI.
"""

__version__ = "0.1.0"
