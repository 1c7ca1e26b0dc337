"""The benchmark harness under perfbench/ still runs against this package.

perfbench is frozen: it pins names, attributes and positional signatures of
the package.  These tests build its plan-set workload, make one decision per
initializer, harvest one short episode and install its trace hooks, so a
change that would break `python3 perfbench/run.py` fails here first.
"""

import os
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    """The harness modules (common, harvest, tracing, workloads)."""
    environ = dict(os.environ)  # importing perfbench pins BLAS threads through the environment
    sys.path.insert(0, str(PERFBENCH))
    try:
        import common
        import harvest
        import tracing
        import workloads
    finally:
        sys.path[:] = [p for p in sys.path if p != str(PERFBENCH)]  # harvest adds it too
        for key in set(os.environ) - set(environ):
            del os.environ[key]
        os.environ.update(environ)
    return common, harvest, tracing, workloads


def test_plan_set_decisions(perfbench):
    _, _, _, workloads = perfbench
    plan_set = workloads.PlanSet()
    plan_set.setup()
    prob = plan_set.problems[0]
    for init in workloads.INITS:  # baseline, geo, neo, expert
        result = plan_set.decide(init, prob)
        assert np.isfinite(result.cost), init
        assert np.all(np.isfinite(result.trajectory.coefficients)), init
        assert workloads._plan_problems(
            result, prob["init"], prob["target"], plan_set.es.transform
        ) == [], init


def test_harvest_episode(perfbench):
    from neotraj import replan
    from neotraj.world import GridWorld, SceneSpec

    common, harvest, _, _ = perfbench
    heading_of, plan = replan._heading_of, replan.plan
    rc, setup = common.episode_setup()
    world = GridWorld(SceneSpec(start=(0.0, 0.0), goal=(4.0, 0.0)), rc.resolution)
    problems = harvest.harvest_episode(world, setup, 0)
    assert problems
    assert all(set(p) == {"init", "target", "pose"} for p in problems)
    assert (replan._heading_of, replan.plan) == (heading_of, plan)  # patches undone


def test_trace_hooks_resolve(perfbench):
    _, _, tracing, _ = perfbench
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == set()


def test_trace_sees_every_plan_of_an_episode_and_of_the_expert(perfbench):
    # replan.plan_share reads the solver.plan spans under replan.episode, and
    # initializers.expert_evals the ones under initializers.expert
    from neotraj import replan
    from neotraj.initializers import InitStrategy
    from neotraj.world import GridWorld, SceneSpec

    common, _, tracing, workloads = perfbench
    rc, setup = common.episode_setup()
    world = GridWorld(SceneSpec(start=(0.0, 0.0), goal=(4.0, 0.0)), rc.resolution)
    plan_set = workloads.PlanSet()
    plan_set.setup()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        report = replan.run_episode(world, InitStrategy("baseline"), setup, seed=0)
        plan_set.decide("expert", plan_set.problems[0])
    finally:
        tracer.uninstall()
    assert report.replan_count > 0
    assert tracer.calls("solver.plan", "replan.episode") == report.replan_count
    assert tracer.calls("solver.plan", "initializers.expert") == 3
    assert tracer.calls("solver.plan") == report.replan_count + 3


def test_every_evaluation_holds_each_layer_once(perfbench):
    # the per-layer metrics divide each layer's span time by its calls, so one
    # objective evaluation must hold every layer's span exactly once
    _, _, tracing, workloads = perfbench

    class Nesting(tracing.Tracer):
        """The tracer, also counting the direct child spans of every span."""

        def __init__(self):
            super().__init__()
            self.open: list[Counter] = []
            self.held: list[tuple[str, Counter]] = []

        def span(self, name, fn):
            if self.open:
                self.open[-1][name] += 1
            children = Counter()
            self.open.append(children)
            try:
                return super().span(name, fn)
            finally:
                self.open.pop()
                self.held.append((name, children))

    plan_set = workloads.PlanSet()
    plan_set.setup()
    tracer = Nesting()
    tracer.install()
    try:
        plan_set.decide("baseline", plan_set.problems[0])
    finally:
        tracer.uninstall()
    layers = Counter(dict.fromkeys(("minco.assemble", "minco.solve", "minco.adjoint",
                                    "objective.effort", "objective.obstacle",
                                    "objective.feasibility"), 1))
    evals = [children for name, children in tracer.held if name == "objective.eval"]
    assert len(evals) > 10
    assert all(children == layers for children in evals)
    queries = [children for name, children in tracer.held if name == "objective.obstacle"]
    assert len(queries) == len(evals)
    assert all(children == Counter({"world.query": 1}) for children in queries)
