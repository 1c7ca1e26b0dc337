"""Library keyword defaults that restate RunConfig's values stay equal to them.

Direct library callers (tests, the benchmark harness) get these defaults
instead of the config tree; a default changed in config.py alone would
silently split them from the CLI.
"""

import inspect

import pytest

from neotraj import initializers, solver
from neotraj.config import RunConfig
from neotraj.neural import NormConstants
from neotraj.objective import ObjectiveSetup

RC = RunConfig()
# parameter name -> the RunConfig value it restates
CONFIG_VALUES = {
    "v_max": RC.penalty.v_max,
    "cruise_fraction": RC.cruise_fraction,
    "amplitude": RC.deform_amplitude,
    "inflate": RC.penalty.d_safe,  # run_episode passes d_safe as geo_init's inflation
    "s_order": RC.s_order,
    "m": RC.m_pieces,
}
# function -> the parameters whose defaults restate a config value
RESTATED = {
    solver.plan: {"s_order"},
    initializers.baseline_init: {"v_max", "cruise_fraction"},
    initializers.geo_init: {"v_max", "cruise_fraction", "inflate"},
    initializers.deformed_guesses: {"v_max", "cruise_fraction", "amplitude"},
    initializers.expert_plan: {"m", "amplitude", "cruise_fraction", "s_order"},
    initializers.astar_path: {"inflate"},
}


@pytest.mark.parametrize("fn", RESTATED, ids=lambda fn: fn.__name__)
def test_keyword_defaults_equal_run_config(fn):
    params = inspect.signature(fn).parameters
    for name in RESTATED[fn]:
        assert params[name].default == CONFIG_VALUES[name], (fn.__name__, name)


def test_objective_setup_s_order_default():
    assert inspect.signature(ObjectiveSetup).parameters["s_order"].default == RC.s_order


def test_norm_constants_default_equals_config():
    assert NormConstants() == RC.norm_constants()
