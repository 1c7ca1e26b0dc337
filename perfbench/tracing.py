"""Trace hooks for the per-layer run and the metrics computed from them.

Hooks wrap the package's functions where they are looked up: a name that a
module imported into its own namespace (`objective.BandedSystem`,
`replan.plan`, `initializers.plan`, `cli.run_episode`) is patched in that
module as well as at its definition.  A hook whose target no longer exists is
recorded as missing and the metrics that need it are reported as missing; the
untraced runs never install hooks.

Spans are aggregated in memory by (name, parent): calls, inclusive seconds
and the seconds covered by child spans, so self time is inclusive minus
children.  Results of `plan` calls are kept with the context: the initializer
the workload is running, or the strategy of the enclosing `run_episode`.
"""

from __future__ import annotations

import time
from collections import defaultdict

# (span name, module, attribute path); results of solver.plan are recorded
HOOKS = [
    ("minco.assemble", "neotraj.objective", "BandedSystem"),
    ("minco.assemble", "neotraj.minco", "BandedSystem"),
    ("minco.solve", "neotraj.minco", "solve_coeffs"),
    ("minco.adjoint", "neotraj.minco", "propagate_gradients"),
    ("objective.eval", "neotraj.objective", "total_objective"),
    ("objective.effort", "neotraj.objective", "control_effort"),
    ("objective.obstacle", "neotraj.objective", "obstacle_cost"),
    ("objective.feasibility", "neotraj.objective", "feasibility_cost"),
    ("world.query", "neotraj.world", "GridWorld.query_distance"),
    ("world.collides", "neotraj.world", "GridWorld.collides"),
    ("world.raycast", "neotraj.world", "GridWorld.raycast_scan"),
    ("world.build", "neotraj.world", "GridWorld.__init__"),
    ("solver.minimize", "neotraj.solver", "minimize"),
    ("solver.plan", "neotraj.solver", "plan"),
    ("solver.plan", "neotraj.replan", "plan"),
    ("solver.plan", "neotraj.initializers", "plan"),
    ("initializers.baseline", "neotraj.initializers", "baseline_init"),
    ("initializers.geo", "neotraj.initializers", "geo_init"),
    ("initializers.neural", "neotraj.initializers", "neural_init"),
    ("initializers.astar", "neotraj.initializers", "astar_path"),
    ("initializers.expert", "neotraj.initializers", "expert_plan"),
    ("neural.encode", "neotraj.neural", "encode_observation"),
    ("neural.forward", "neotraj.neural", "MlpModel.forward"),
    ("replan.query", "neotraj.replan", "CommittedTrajectory.query"),
    ("replan.episode", "neotraj.replan", "run_episode"),
    ("replan.episode", "neotraj.cli", "run_episode"),
]


class Tracer:
    """Installs the hooks, aggregates spans and restores the package."""

    def __init__(self):
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # (name, parent) -> calls, incl, child
        self.plans: list[tuple[str, str, int, int, bool]] = []  # context, parent, iters, evals, conv
        self.context = ""
        self.missing: set[str] = set()
        self._stack: list[list] = []  # [name, child seconds]
        self._patched: list[tuple[object, str, object]] = []

    def span(self, name: str, fn):
        """Run fn() inside a span called name."""
        parent = self._stack[-1][0] if self._stack else ""
        frame = [name, 0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn()
        finally:
            dt = time.perf_counter() - t0
            self._stack.pop()
            s = self.stats[(name, parent)]
            s[0] += 1
            s[1] += dt
            s[2] += frame[1]
            if self._stack:
                self._stack[-1][1] += dt

    def _wrap(self, name: str, fn):
        tracer = self

        def hooked(*args, **kwargs):
            parent = tracer._stack[-1][0] if tracer._stack else ""
            if name == "replan.episode":
                strategy = args[1] if len(args) > 1 else kwargs.get("strategy")
                kind = getattr(strategy, "kind", "")
                tracer.context = "neo" if kind == "neural" else kind
            out = tracer.span(name, lambda: fn(*args, **kwargs))
            if name == "solver.plan":
                tracer.plans.append((tracer.context, parent, int(out.iterations),
                                     int(out.ls_evals), bool(out.converged)))
            return out

        hooked.__wrapped__ = fn
        return hooked

    def install(self) -> None:
        import importlib

        for name, module_name, path in HOOKS:
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for p in parents:
                    owner = getattr(owner, p)
                target = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.missing.add(name)
                continue
            if not callable(target):
                self.missing.add(name)
                continue
            setattr(owner, attr, self._wrap(name, target))
            self._patched.append((owner, attr, target))

    def uninstall(self) -> None:
        for owner, attr, target in reversed(self._patched):
            setattr(owner, attr, target)
        self._patched.clear()

    # -- aggregates ---------------------------------------------------------
    def calls(self, name: str, parent: str | None = None) -> int:
        return sum(v[0] for (n, p), v in self.stats.items()
                   if n == name and (parent is None or p == parent))

    def inclusive(self, name: str, parent: str | None = None) -> float:
        return sum(v[1] for (n, p), v in self.stats.items()
                   if n == name and (parent is None or p == parent))

    def self_time(self, name: str) -> float:
        return sum(v[1] - v[2] for (n, _), v in self.stats.items() if n == name)


# per-layer metric -> (unit, span names it needs)
LAYER_METRICS = {
    "minco.assemble_us": ("us", ("minco.assemble",)),
    "minco.solve_us": ("us", ("minco.solve",)),
    "minco.adjoint_us": ("us", ("minco.adjoint",)),
    "minco.calls_per_eval": ("count", ("objective.eval", "minco.assemble", "minco.solve",
                                       "minco.adjoint")),
    "objective.eval_us": ("us", ("objective.eval",)),
    "objective.self_us": ("us", ("objective.eval",)),
    "objective.obstacle_us": ("us", ("objective.obstacle",)),
    "objective.feasibility_us": ("us", ("objective.feasibility",)),
    "objective.effort_us": ("us", ("objective.effort",)),
    "world.query_us": ("us", ("world.query", "objective.obstacle")),
    "world.query_calls_per_eval": ("count", ("world.query", "objective.obstacle",
                                             "objective.eval")),
    "world.collides_us": ("us", ("world.collides",)),
    "world.raycast_ms": ("ms", ("world.raycast",)),
    "world.build_ms": ("ms", ("world.build",)),
    "solver.iterations.baseline": ("count", ("solver.plan",)),
    "solver.iterations.geo": ("count", ("solver.plan",)),
    "solver.iterations.neo": ("count", ("solver.plan",)),
    "solver.iterations.expert": ("count", ("solver.plan",)),
    "solver.plan_ms": ("ms", ("solver.plan",)),
    "solver.evals_per_iter": ("count", ("solver.plan",)),
    "solver.self_ms": ("ms", ("solver.minimize", "objective.eval")),
    "solver.unconverged_rate": ("ratio", ("solver.plan",)),
    "initializers.astar_ms": ("ms", ("initializers.astar",)),
    "initializers.expert_ms": ("ms", ("initializers.expert",)),
    "initializers.expert_evals": ("count", ("initializers.expert", "solver.plan")),
    "initializers.share.baseline": ("ratio", ("solver.plan",)),
    "initializers.share.geo": ("ratio", ("solver.plan",)),
    "initializers.share.neo": ("ratio", ("solver.plan",)),
    "initializers.share.expert": ("ratio", ("solver.plan", "initializers.expert")),
    "neural.encode_us": ("us", ("neural.encode",)),
    "neural.forward_us": ("us", ("neural.forward",)),
    "replan.loop_ms_per_sim_s": ("ms", ("replan.episode", "solver.plan", "world.raycast",
                                        "initializers.baseline", "initializers.geo",
                                        "initializers.neural", "initializers.expert")),
    "replan.query_us": ("us", ("replan.query",)),
    "replan.plan_share": ("ratio", ("replan.episode", "solver.plan")),
    "cli.pool_efficiency": ("ratio", ()),
    "cli.pool_overhead_s": ("s", ()),
    "cli.serial_grid_s": ("s", ()),
    "trace.overhead_s": ("s", ()),
    "trace.overhead_share": ("ratio", ()),
}

_OVERHEAD = ["trace.overhead_s", "trace.overhead_share"]
# the per-layer metrics each workload exists to move, besides the per_layer list
# of BENCHMARK.json that every workload reports; printed as MISSING if absent
WORKLOAD_LAYERS = {
    "plan-set": [m for m in LAYER_METRICS if m.split(".")[0] in
                 ("minco", "objective", "solver", "initializers", "neural")]
    + ["world.query_us", "world.query_calls_per_eval", "world.raycast_ms", "world.build_ms"]
    + _OVERHEAD,
    "fly": ["world.collides_us", "world.raycast_ms", "world.build_ms", "replan.loop_ms_per_sim_s",
            "replan.query_us", "replan.plan_share"] + _OVERHEAD,
    "bench-grid": ["cli.pool_efficiency", "cli.pool_overhead_s", "cli.serial_grid_s",
                   "world.build_ms", "replan.loop_ms_per_sim_s", "replan.plan_share"] + _OVERHEAD,
}


def layer_values(tr: Tracer, sim_seconds: float = 0.0) -> dict:
    """Every per-layer metric the trace has data for: name -> (value, n)."""
    out = {}

    def per_call(metric, name, scale, parent=None, use_self=False):
        n = tr.calls(name, parent)
        if n:
            total = tr.self_time(name) if use_self else tr.inclusive(name, parent)
            out[metric] = (total * scale / n, n)

    per_call("minco.assemble_us", "minco.assemble", 1e6)
    per_call("minco.solve_us", "minco.solve", 1e6, use_self=True)
    per_call("minco.adjoint_us", "minco.adjoint", 1e6, use_self=True)
    per_call("objective.eval_us", "objective.eval", 1e6)
    per_call("objective.self_us", "objective.eval", 1e6, use_self=True)
    per_call("objective.obstacle_us", "objective.obstacle", 1e6)
    per_call("objective.feasibility_us", "objective.feasibility", 1e6)
    per_call("objective.effort_us", "objective.effort", 1e6)
    per_call("world.query_us", "world.query", 1e6, parent="objective.obstacle")
    per_call("world.collides_us", "world.collides", 1e6)
    per_call("world.raycast_ms", "world.raycast", 1e3)
    per_call("world.build_ms", "world.build", 1e3)
    per_call("solver.plan_ms", "solver.plan", 1e3)
    per_call("initializers.astar_ms", "initializers.astar", 1e3)
    per_call("initializers.expert_ms", "initializers.expert", 1e3)
    per_call("neural.encode_us", "neural.encode", 1e6)
    per_call("neural.forward_us", "neural.forward", 1e6)
    per_call("replan.query_us", "replan.query", 1e6)

    evals = tr.calls("objective.eval")
    if evals:
        minco_calls = sum(tr.calls(n, "objective.eval")
                          for n in ("minco.assemble", "minco.solve", "minco.adjoint"))
        out["minco.calls_per_eval"] = (minco_calls / evals, evals)
        queries = tr.calls("world.query", "objective.obstacle")
        if queries:
            out["world.query_calls_per_eval"] = (queries / evals, evals)
    n_min = tr.calls("solver.minimize")
    if n_min:
        out["solver.self_ms"] = (tr.self_time("solver.minimize") * 1e3 / n_min, n_min)

    plans = tr.plans
    if plans:
        for init in ("baseline", "geo", "neo", "expert"):
            its = [p[2] for p in plans if p[0] == init]
            if its:
                out[f"solver.iterations.{init}"] = (sum(its) / len(its), len(its))
        iters = sum(p[2] for p in plans)
        if iters:
            out["solver.evals_per_iter"] = (sum(p[3] for p in plans) / iters, iters)
        out["solver.unconverged_rate"] = (sum(not p[4] for p in plans) / len(plans), len(plans))
        expert_calls = tr.calls("initializers.expert")
        if expert_calls:
            out["initializers.expert_evals"] = (sum(
                p[3] for p in plans if p[1] == "initializers.expert") / expert_calls, expert_calls)

    for init in ("baseline", "geo", "neo", "expert"):
        decision = tr.inclusive(f"decision.{init}")
        if decision:
            parent = "initializers.expert" if init == "expert" else f"decision.{init}"
            out[f"initializers.share.{init}"] = (
                1.0 - tr.inclusive("solver.plan", parent) / decision, tr.calls(f"decision.{init}"))

    episodes = tr.inclusive("replan.episode")
    if episodes and sim_seconds > 0:
        inside = sum(tr.inclusive(n, "replan.episode") for n in (
            "solver.plan", "world.raycast", "initializers.baseline", "initializers.geo",
            "initializers.neural", "initializers.expert"))
        n = tr.calls("replan.episode")
        out["replan.loop_ms_per_sim_s"] = ((episodes - inside) * 1e3 / sim_seconds, n)
        out["replan.plan_share"] = (tr.inclusive("solver.plan", "replan.episode") / episodes, n)
    return out
