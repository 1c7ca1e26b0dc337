"""Shared set-up of the benchmark: thread limits, the package under test and
the frozen inputs.

Everything here runs from the root of a checkout.  The package under test is
always the checkout's own ``src/neotraj``; an installed copy elsewhere is
refused, so a run never measures code other than the tree it sits in.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

# One BLAS/OpenMP thread for this process and, through the environment, for
# every pool worker the CLI starts.  Must be set before numpy is imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DATA = Path(__file__).resolve().parent / "data"
PLAN_SET_PATH = DATA / "plan_set.json"
MODEL_PATH = DATA / "neo_model.json"
PLAN_SET_FORMAT = "perfbench-plan-set-1"


class SetupError(RuntimeError):
    """The checkout or the frozen inputs are not usable."""


def import_neotraj():
    """Import the checkout's own package; refuse any other copy."""
    if not (SRC / "neotraj" / "__init__.py").is_file():
        raise SetupError(f"no src/neotraj under {ROOT}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import neotraj

    if Path(neotraj.__file__).resolve().parent != (SRC / "neotraj").resolve():
        raise SetupError(f"imported neotraj from {neotraj.__file__}, not from {SRC}")


def episode_setup():
    """The default run configuration as the episode loop consumes it."""
    from neotraj.config import RunConfig
    from neotraj.replan import EpisodeSetup

    rc = RunConfig()
    return rc, EpisodeSetup.from_run_config(rc)


def read_plan_set() -> dict:
    """The frozen plan-set document, checked for format and size."""
    with open(PLAN_SET_PATH) as fh:
        doc = json.load(fh)
    if doc.get("format") != PLAN_SET_FORMAT:
        raise SetupError(f"{PLAN_SET_PATH}: format {doc.get('format')!r}, need {PLAN_SET_FORMAT}")
    if len(doc["problems"]) < 100:
        raise SetupError(f"{PLAN_SET_PATH}: {len(doc['problems'])} problems, need at least 100")
    return doc


def load_plan_set():
    """(worlds, problems) of the frozen plan-set, with GridWorlds built."""
    import numpy as np
    from neotraj.minco import BoundaryState
    from neotraj.world import GridWorld, SceneSpec

    rc, _ = episode_setup()
    doc = read_plan_set()
    worlds = [GridWorld(SceneSpec.from_dict(w), rc.resolution) for w in doc["worlds"]]
    problems = []
    for p in doc["problems"]:
        problems.append({
            "world": worlds[p["world"]],
            "init": BoundaryState(p["init"]["p"], p["init"]["v"], p["init"]["a"]),
            "target": BoundaryState(p["target"]["p"], p["target"]["v"]),
            "pos": np.asarray(p["pose"]["p"], dtype=float),
            "vel": np.asarray(p["pose"]["v"], dtype=float),
            "heading": p["pose"]["heading"],
        })
    return worlds, problems


def load_model():
    """The committed neo model, checked against the network's geometry."""
    from neotraj.neural import MlpModel

    model = MlpModel.load(MODEL_PATH)
    if model.n_inputs != 76 or model.n_outputs != 7:
        raise SetupError(f"{MODEL_PATH}: {model.n_inputs} inputs / {model.n_outputs} outputs")
    return model
