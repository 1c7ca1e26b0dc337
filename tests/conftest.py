import numpy as np
import pytest

from neotraj import neural
from neotraj.minco import BoundaryState, TrajParams, solve_coeffs
from neotraj.config import RunConfig
from neotraj.world import GridWorld, SceneSpec, generate_scene

# the default configuration, for direct library calls that need its values
RC = RunConfig()
# RC's values in the positional order of ObjectiveSetup, solver.plan and expert_plan
SETUP_ARGS = (RC.weights, RC.penalty, RC.transform, RC.s_order)
PLAN_ARGS = (RC.weights, RC.penalty, RC.transform, RC.solver, RC.s_order)
EXPERT_ARGS = (RC.m_pieces, *PLAN_ARGS[:4], RC.deform_amplitude, RC.cruise_fraction, RC.s_order)
# the network's layer sizes under RC, as `neotraj train` builds them
MODEL_SIZES = {"depth_sizes": (RC.n_rays, *neural.DEPTH_HIDDEN),
               "head_sizes": (*neural.HEAD_HIDDEN, neural.plan_width(RC.m_pieces))}


@pytest.fixture(scope="session")
def default_setup() -> RunConfig:
    return RunConfig()


@pytest.fixture(scope="session")
def empty_world() -> GridWorld:
    return GridWorld(SceneSpec(), RC.resolution)


@pytest.fixture(scope="session")
def scene4_world() -> GridWorld:
    return GridWorld(generate_scene(preset=4, seed=3), RC.resolution)


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


def random_instance(rng, m=3, d=2, scale=2.0):
    """Random boundary states, waypoints and durations for property tests."""
    init = BoundaryState(rng.normal(size=d), rng.normal(scale=0.5, size=d),
                         rng.normal(scale=0.3, size=d))
    target = BoundaryState(rng.normal(size=d) + 4.0, rng.normal(scale=0.5, size=d),
                           rng.normal(scale=0.3, size=d))
    q = init.position[:, None] + (target.position - init.position)[:, None] * (
        np.arange(1, m) / m
    ) + rng.normal(scale=scale, size=(d, m - 1))
    tbar = rng.uniform(0.6, 3.5, size=m)
    return init, target, TrajParams(q, tbar)


def make_trajectory(rng, m=3, d=2):
    init, target, params = random_instance(rng, m, d)
    return solve_coeffs(init, target, params, RC.s_order), init, target, params


@pytest.fixture()
def plan_fails_from_second_call(monkeypatch):
    """Make every replan after the first raise SingularSystem; returns the call log."""
    from neotraj import replan
    from neotraj.errors import SingularSystem

    real_plan = replan.plan
    calls = []

    def plan(*args, **kwargs):
        calls.append(len(calls))
        if len(calls) >= 2:
            raise SingularSystem("injected")
        return real_plan(*args, **kwargs)

    monkeypatch.setattr(replan, "plan", plan)
    return calls
