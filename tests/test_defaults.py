"""RunConfig and its sections are the only place a config default is written.

Every function, method and dataclass signature in the package takes its
config values from the caller.  A keyword default that restated one would
let direct library callers (tests, the benchmark harness) plan with other
settings than the CLI as soon as config.py changed alone.  The one default
left is expert_plan's trailing s_order, which perfbench's frozen
PlanSet.decide leaves out; it must equal RunConfig().s_order.
"""

import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import neotraj
from neotraj.config import RunConfig

RC = RunConfig()
SECTIONS = {f.name for f in dataclasses.fields(RunConfig)
            if f.default_factory is not dataclasses.MISSING}
# parameter names that carry a config value: the flat keys, the sections, the aliases
CONFIG_NAMES = set(RC.to_dict()) | SECTIONS | {
    "m", "tf", "solver_cfg", "cfg", "amplitude", "inflate", "norm", "d_look",
}
NOT_CONFIG = {("AdamState", "m")}  # Adam's first moment, not the piece count
ALLOWED = {("expert_plan", "s_order"): RC.s_order}
CONFIG_CLASSES = {RunConfig} | {type(getattr(RC, section)) for section in SECTIONS}


def _package_signatures():
    """{qualname: callable} of every function, method and dataclass defined in neotraj."""
    found = {}
    for info in pkgutil.iter_modules(neotraj.__path__):
        if info.name == "__main__":  # runs the CLI on import
            continue
        module = importlib.import_module(f"neotraj.{info.name}")
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__ or obj in CONFIG_CLASSES:
                continue
            if inspect.isfunction(obj):
                found[obj.__qualname__] = obj
            elif inspect.isclass(obj):
                plain = not dataclasses.is_dataclass(obj)
                if not plain:  # the class's signature is its generated __init__'s
                    found[obj.__qualname__] = obj
                for name, attr in vars(obj).items():
                    fn = getattr(attr, "__func__", attr)  # staticmethod, classmethod
                    if inspect.isfunction(fn) and (
                        not name.startswith("__") or (plain and name == "__init__")
                    ):
                        found[fn.__qualname__] = fn
    return found


SIGNATURES = _package_signatures()


def test_walk_finds_the_config_taking_signatures():
    for name in ("plan", "minimize", "expert_plan", "ObjectiveSetup", "NormConstants",
                 "MlpModel.__init__", "GridWorld.raycast_scan", "propagate_gradients"):
        assert name in SIGNATURES, name


@pytest.mark.parametrize("qualname", sorted(SIGNATURES))
def test_keyword_defaults_equal_run_config(qualname):
    """No config-valued default outside RunConfig; the one allowed equals RunConfig's."""
    for name, param in inspect.signature(SIGNATURES[qualname]).parameters.items():
        if param.default is inspect.Parameter.empty or (qualname, name) in NOT_CONFIG:
            continue
        if name in CONFIG_NAMES:
            assert (qualname, name) in ALLOWED, f"{qualname}({name}=...) restates a config default"
            assert param.default == ALLOWED[qualname, name], (qualname, name)
