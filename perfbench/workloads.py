"""The benchmark's three workloads and their correctness checks.

plan-set    Closed loop, one client, one process.  One replanning decision per
            frozen problem with each initializer.  Isolates the planner
            (minco, objective, solver, initializers, neural); the episode loop
            and the process pool do no work here.
fly         One process flies run_episode for baseline, geo and neo on paired
            worlds of presets 4 and 6 with fixed seeds.  Adds the 60 Hz
            loop with its collision checks, trajectory queries and splices.
bench-grid  The `neotraj bench` command over a fixed presets 5, 8 x
            {baseline, geo, neo} grid with one worker per core.  The only
            workload that exercises task pickling, per-task world builds,
            model loads in the workers and pool tail imbalance.

BENCHMARK.json lists plan-set and bench-grid.  fly runs the same way when
named on the command line; it is left out of the manifest because the
episode loop it adds is also flown by bench-grid, and two workloads leave
each run enough time to average out the host's drift (see README.md).

A workload is set up once (timed as setup_s), then runs whole passes over its
fixed inputs.  On plan-set and fly the --seed permutes the order of a pass and
rotates the order of the initializers; the grid's order is the CLI's.  Every
seed measures the same work.

Every workload reports the same end-to-end metrics (the `end_to_end` list of
BENCHMARK.json), each defined on the workload's own operation: `op_ms_p50`
is the median wall time of a decision on plan-set, of an episode on fly and
of a whole grid on bench-grid.  The workload-specific metrics of the table
(`plan_ms_p50.<init>`, `episode_s_p50`, `grid_wall_s`, ...) are printed
besides them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from collections import Counter

import common  # sets the thread limits before numpy loads
import numpy as np
import tracing

INITS = ("baseline", "geo", "neo", "expert")
# The expert optimizes three seeds and costs as much as the other three
# initializers together; only its median is reported, so it runs on every
# third problem (36 decisions) to keep a pass near 35 s on 2 cores.
EXPERT_EVERY = 3
FLY_KINDS = ("baseline", "geo", "neo")
FLY_SEED = 2023
FLY_PRESETS = (4, 6)  # 6 episodes, about 13 s a pass on 2 cores
# presets fly does not use; 6 episodes, about 7.5 s a grid on 2 cores
GRID_PRESETS = ("5", "8")
GRID_ARGS = ["bench", "--scenes", *GRID_PRESETS, "--runs", "1", "--inits", "baseline,geo,neo",
             "--model", str(common.MODEL_PATH), "--seed", "777"]
TOL = 1e-6
TMP_ROOT = common.ROOT / ".perfbench_tmp"  # bench output directories, removed on exit


class Ledger:
    """Operations attempted and failed.

    An operation that raises is counted by exception type and the run goes
    on; one whose output fails a correctness check is counted separately,
    because that makes the whole run incorrect.
    """

    def __init__(self):
        self.attempted = 0
        self.errors: Counter = Counter()
        self.check_failures: list[str] = []

    @property
    def failed(self) -> int:
        return sum(self.errors.values()) + len(self.check_failures)

    def run(self, label: str, fn):
        """(value, seconds) of one operation; value is None if it raised."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            value = fn()
        except Exception as exc:  # one failed operation must not end the run
            self.errors[type(exc).__name__] += 1
            print(f"error: {label}: {type(exc).__name__}: {exc}", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            return None, time.perf_counter() - t0
        return value, time.perf_counter() - t0

    def fail(self, label: str, why: str) -> None:
        self.check_failures.append(f"{label}: {why}")
        print(f"check failed: {label}: {why}", flush=True)


def _rotated(items, shift: int):
    shift %= len(items)
    return tuple(items[shift:]) + tuple(items[:shift])


def _permutation(n: int, seed: int, pass_index: int) -> list[int]:
    return [int(i) for i in np.random.default_rng([seed, pass_index]).permutation(n)]


def _verify_frozen_inputs() -> None:
    """Raise SetupError unless both committed inputs load."""
    common.read_plan_set()
    common.load_model()


def _plan_problems(result, s_init, s_target, tf) -> list[str]:
    """Why a plan breaks its contract: boundary states, knots, durations, cost."""
    traj = result.trajectory
    why = []
    if not np.isfinite(result.cost):
        why.append(f"cost {result.cost}")
    dur = np.asarray(traj.durations)
    if np.any(dur <= tf.t_min) or np.any(dur >= tf.t_max):
        why.append(f"durations {dur.tolist()} outside ({tf.t_min}, {tf.t_max})")
    total = traj.total_time
    for k in range(3):
        for t, state, end in ((0.0, s_init, "start"), (total, s_target, "end")):
            want = state.derivative(k)
            got = traj.eval(t, k)
            if np.max(np.abs(got - want)) > TOL * max(1.0, float(np.max(np.abs(want)))):
                why.append(f"order-{k} {end} state {got.tolist()} != {want.tolist()}")
    q = np.atleast_2d(result.waypoints)
    for i in range(1, traj.n_pieces):
        left = traj.eval_piece(i - 1, np.array([traj.durations[i - 1]]))[0]
        right = traj.eval_piece(i, np.array([0.0]))[0]
        scale = max(1.0, float(np.max(np.abs(q[:, i - 1]))))
        if max(np.max(np.abs(left - q[:, i - 1])), np.max(np.abs(right - q[:, i - 1]))) > TOL * scale:
            why.append(f"knot {i} misses waypoint {q[:, i - 1].tolist()}")
    return why


def _clear(result, world, kappa: int, radius: float) -> bool:
    """Clearance >= radius at the objective's kappa+1 samples of every piece."""
    traj = result.trajectory
    frac = np.arange(kappa + 1) / kappa
    pts = np.vstack([traj.eval_piece(i, frac * traj.durations[i]) for i in range(traj.n_pieces)])
    dist, _ = world.query_distance(pts)
    return bool(np.min(dist) >= radius)


def _iter_ratio(neo: list, baseline: list) -> tuple:
    """(mean neo iterations / mean baseline iterations, n neo) or nothing."""
    if not (neo and baseline):
        return ()
    return statistics.fmean(neo) / statistics.fmean(baseline), "ratio", len(neo)


def _no_span(name, fn):
    return fn()


class Workload:
    """Set up once, then whole passes over fixed inputs."""

    name = ""
    min_passes = 1
    # after min_passes whole passes, a pass of many operations stops at the
    # run's deadline, so every run measures for the same time
    cut_at_deadline = False

    def setup(self) -> None:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def sim_seconds(self, one_pass: dict) -> float:
        return 0.0

    def traced(self, tracer, seed: int, ledger: Ledger, passes: list, walls: list) -> dict:
        """Per-layer values of one traced pass run after the untraced ones.

        The set-up is repeated under the hooks so world builds are traced;
        the traced pass joins `passes`, so repeat checks cover it.
        """
        def span(name, fn):
            tracer.context = name.split(".", 1)[1]
            return tracer.span(name, fn)

        tracer.install()
        try:
            self.setup()
            t = time.perf_counter()
            traced = self.run_pass(len(passes), seed, ledger, span)
            wall = time.perf_counter() - t
        finally:
            tracer.uninstall()
        passes.append(traced)
        values = tracing.layer_values(tracer, self.sim_seconds(traced))
        base = statistics.median(walls[:self.min_passes])  # whole passes
        values["trace.overhead_s"] = (wall - base, 1)
        values["trace.overhead_share"] = ((wall - base) / base, 1)
        return values


class PlanSet(Workload):
    """One decision per frozen problem with each of the four initializers."""

    name = "plan-set"
    min_passes = 1
    cut_at_deadline = True

    def setup(self) -> None:
        common.import_neotraj()
        _verify_frozen_inputs()
        self.rc, self.es = common.episode_setup()
        self.worlds, self.problems = common.load_plan_set()
        self.model = common.load_model()

    def decide(self, init: str, prob: dict):
        """One replanning decision, the way the episode loop makes it."""
        from neotraj import initializers, neural, solver

        es = self.es
        s0, s1, world = prob["init"], prob["target"], prob["world"]
        if init == "expert":
            result, _, _ = initializers.expert_plan(
                world, s0, s1, es.m_pieces, es.weights, es.penalty, es.transform, es.solver,
                es.deform_amplitude, es.cruise_fraction,
            )
            return result
        if init == "baseline":
            guess = initializers.baseline_init(
                s0, s1, es.m_pieces, es.transform, es.penalty.v_max, es.cruise_fraction)
        elif init == "geo":
            guess = initializers.geo_init(
                world, s0, s1, es.m_pieces, es.transform, es.penalty.v_max,
                es.cruise_fraction, es.penalty.d_safe)
        else:
            pos, vel = prob["pos"], prob["vel"]
            scan = world.raycast_scan(pos, prob["heading"], es.n_rays, es.fov_deg, es.max_range)
            obs = neural.encode_observation(
                scan, pos, vel, prob["heading"], s0, s1, self.model.norm)
            guess = initializers.neural_init(self.model, obs, pos, prob["heading"], es.transform)
        return solver.plan(s0, s1, guess, world, es.weights, es.penalty, es.transform,
                           es.solver, es.s_order)

    def run_pass(self, index: int, seed: int, ledger: Ledger, span=_no_span,
                 deadline: float | None = None) -> dict:
        """{(problem, init): (seconds, cost, iterations, clear)} of one pass."""
        out = {}
        for k, pi in enumerate(_permutation(len(self.problems), seed, index)):
            if deadline is not None and time.perf_counter() >= deadline:
                break
            prob = self.problems[pi]
            inits = INITS if pi % EXPERT_EVERY == 0 else INITS[:-1]
            for init in _rotated(inits, seed + index + k):
                label = f"problem {pi} [{init}]"
                result, dt = ledger.run(
                    label, lambda: span(f"decision.{init}", lambda: self.decide(init, prob)))
                if result is None:
                    continue
                why = _plan_problems(result, prob["init"], prob["target"], self.es.transform)
                if why:
                    ledger.fail(label, "; ".join(why))
                    continue
                clear = _clear(result, prob["world"], self.es.penalty.kappa,
                               self.es.replan.drone_radius)
                out[(pi, init)] = (dt, float(result.cost), int(result.iterations), clear)
        return out

    def check_passes(self, passes: list[dict], ledger: Ledger) -> None:
        first = passes[0]
        for later in passes[1:]:
            for key, row in later.items():
                if key in first and first[key][1:] != row[1:]:
                    ledger.fail(f"problem {key[0]} [{key[1]}]",
                                f"not deterministic: {first[key][1:]} then {row[1:]}")

    def metrics(self, passes: list[dict]) -> dict:
        keys = sorted(set().union(*passes))
        wall = {key: statistics.median(p[key][0] for p in passes if key in p) for key in keys}
        row = {key: next(p[key] for p in passes if key in p) for key in keys}
        single_ms = [wall[key] * 1e3 for key in keys if key[1] != "expert"]
        m = {"op_ms_p50": (statistics.median(single_ms), "ms", len(single_ms))}
        for init in INITS:
            ms = [wall[key] * 1e3 for key in keys if key[1] == init]
            if ms:
                m[f"plan_ms_p50.{init}"] = (statistics.median(ms), "ms", len(ms))
                if init != "expert":
                    m[f"plan_ms_p90.{init}"] = (float(np.percentile(ms, 90)), "ms", len(ms))
        # expert reports the iterations of its chosen seed only, so only the
        # one-plan initializers enter the iteration means
        iters = {i: [row[key][2] for key in keys if key[1] == i] for i in FLY_KINDS}
        single = [v for i in FLY_KINDS for v in iters[i]]
        m["success_rate"] = (sum(row[key][3] for key in keys) / len(keys), "ratio", len(keys))
        m["mean_iterations"] = (statistics.fmean(single), "count", len(single))
        if ratio := _iter_ratio(iters["neo"], iters["baseline"]):
            m["iter_ratio.neo"] = ratio
        m["mean_plan_cost"] = (statistics.fmean(row[key][1] for key in keys), "cost", len(keys))
        return m


class Fly(Workload):
    """run_episode for baseline, geo and neo on paired worlds of presets 4 and 6."""

    name = "fly"
    # each episode's time is the median of its three repeats, so one pass in a
    # slow spell of the host does not move it
    min_passes = 3
    cut_at_deadline = True

    def setup(self) -> None:
        common.import_neotraj()
        from neotraj.initializers import InitStrategy
        from neotraj.replan import derive_seed
        from neotraj.world import GridWorld, generate_scene

        _verify_frozen_inputs()
        self.rc, self.es = common.episode_setup()
        model = common.load_model()
        self.strategies = {"baseline": InitStrategy("baseline"), "geo": InitStrategy("geo"),
                           "neo": InitStrategy("neural", model)}
        self.worlds = []
        for preset in FLY_PRESETS:
            seed = derive_seed(FLY_SEED, preset)
            self.worlds.append((GridWorld(generate_scene(preset=preset, seed=seed),
                                          self.rc.resolution), seed))

    def run_pass(self, index: int, seed: int, ledger: Ledger, span=_no_span,
                 deadline: float | None = None) -> dict:
        """{(world, kind): (seconds, report hash, flight time, success, iterations)}."""
        from neotraj import replan

        out = {}
        for k, wi in enumerate(_permutation(len(self.worlds), seed, index)):
            world, wseed = self.worlds[wi]
            for kind in _rotated(FLY_KINDS, seed + index + k):
                if deadline is not None and time.perf_counter() >= deadline:
                    return out
                label = f"{world.spec.name} [{kind}]"
                report, dt = ledger.run(label, lambda: span(
                    f"episode.{kind}",
                    lambda: replan.run_episode(world, self.strategies[kind], self.es, seed=wseed)))
                if report is None:
                    continue
                doc = report.to_json_dict()
                digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
                if not (report.flight_time > 0 and report.replan_count > 0):
                    ledger.fail(label, f"flight_time {report.flight_time}, "
                                       f"{report.replan_count} replans")
                    continue
                out[(wi, kind)] = (dt, digest, float(report.flight_time), bool(report.success),
                                   list(report.iterations))
        return out

    def sim_seconds(self, one_pass: dict) -> float:
        return sum(row[2] for row in one_pass.values())

    def check_passes(self, passes: list[dict], ledger: Ledger) -> None:
        first = passes[0]
        for later in passes[1:]:
            for key, row in later.items():
                if key in first and first[key][1] != row[1]:
                    ledger.fail(f"world {key[0]} [{key[1]}]", "episode report differs on repeat")

    def metrics(self, passes: list[dict]) -> dict:
        keys = sorted(set().union(*passes))
        wall = [statistics.median(p[key][0] for p in passes if key in p) for key in keys]
        rows = [next(p[key] for p in passes if key in p) for key in keys]
        rtf = [sum(r[2] for r in p.values()) / sum(r[0] for r in p.values()) for p in passes if p]
        iters = [it for r in rows for it in r[4]]
        by_kind = {kind: [it for key, r in zip(keys, rows) if key[1] == kind for it in r[4]]
                   for kind in FLY_KINDS}
        m = {
            "op_ms_p50": (statistics.median(wall) * 1e3, "ms", len(wall)),
            "episode_s_p50": (statistics.median(wall), "s", len(wall)),
            "sim_rtf": (statistics.median(rtf), "ratio", len(rtf)),
            "success_rate": (sum(r[3] for r in rows) / len(rows), "ratio", len(rows)),
            "mean_iterations": (statistics.fmean(iters), "count", len(iters)),
        }
        if ratio := _iter_ratio(by_kind["neo"], by_kind["baseline"]):
            m["iter_ratio.neo"] = ratio
        return m


class BenchGrid(Workload):
    """`neotraj bench` over presets 5, 8 x {baseline, geo, neo}, one run each."""

    name = "bench-grid"
    # one grid's wall time moves by up to one episode when noise changes which
    # worker takes the last task, so a run reports the median of five grids
    min_passes = 5

    def setup(self) -> None:
        common.import_neotraj()
        import neotraj.cli  # noqa: F401

        _verify_frozen_inputs()
        self.workers = len(os.sched_getaffinity(0))
        self.tmp = None

    def close(self) -> None:
        if self.tmp is not None:
            shutil.rmtree(self.tmp, ignore_errors=True)
            self.tmp = None
        try:
            os.rmdir(TMP_ROOT)
        except OSError:
            pass

    def grid(self, workers: int, tag: str) -> bytes:
        """episodes.jsonl of one `neotraj bench` call with `workers` workers."""
        from neotraj import cli

        if self.tmp is None:
            TMP_ROOT.mkdir(exist_ok=True)
            self.tmp = tempfile.mkdtemp(prefix="grid-", dir=TMP_ROOT)
        out_dir = os.path.join(self.tmp, tag)
        saved = os.environ.get("NEOTRAJ_WORKERS")
        os.environ["NEOTRAJ_WORKERS"] = str(workers)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main([*GRID_ARGS, "--out-dir", out_dir])
        finally:
            if saved is None:
                del os.environ["NEOTRAJ_WORKERS"]
            else:
                os.environ["NEOTRAJ_WORKERS"] = saved
        if code != 0:
            raise RuntimeError(f"neotraj bench exited with {code}")
        with open(os.path.join(out_dir, "episodes.jsonl"), "rb") as fh:
            data = fh.read()
        shutil.rmtree(out_dir, ignore_errors=True)
        return data

    def run_pass(self, index: int, seed: int, ledger: Ledger, span=_no_span,
                 deadline: float | None = None) -> dict:
        """One grid; it is a single operation, so it ignores `deadline`."""
        data, dt = ledger.run(f"grid {index}", lambda: self.grid(self.workers, f"p{index}"))
        if data is None:
            return {}
        episodes = [json.loads(line) for line in data.decode().splitlines()]
        if len(episodes) != len(FLY_KINDS) * len(GRID_PRESETS):
            ledger.fail(f"grid {index}", f"{len(episodes)} episodes")
            return {}
        return {"wall": dt, "bytes": data, "episodes": episodes}

    def check_passes(self, passes: list[dict], ledger: Ledger) -> None:
        for i, p in enumerate(passes[1:], 1):
            if p and passes[0] and p["bytes"] != passes[0]["bytes"]:
                ledger.fail(f"grid {i}", "episodes.jsonl differs from grid 0")

    def traced(self, tracer, seed: int, ledger: Ledger, passes: list, walls: list) -> dict:
        """A 1-worker grid untraced and traced, both byte-compared to the pooled ones."""
        serial, serial_s = ledger.run("serial grid", lambda: self.grid(1, "serial"))
        tracer.install()
        try:
            data, traced_s = ledger.run("traced grid", lambda: tracer.span(
                "grid", lambda: self.grid(1, "traced")))
        finally:
            tracer.uninstall()
        pooled = [p for p in passes if p]
        for label, got in (("1-worker grid", serial), ("traced 1-worker grid", data)):
            if got is not None and pooled and got != pooled[0]["bytes"]:
                ledger.fail(label, "episodes.jsonl differs from the pooled grid")
        if serial is None or data is None or not pooled:
            return {}
        sim = sum(json.loads(line)["flight_time"] for line in data.decode().splitlines())
        values = tracing.layer_values(tracer, sim)
        grid_s = statistics.median(p["wall"] for p in pooled)
        values["cli.serial_grid_s"] = (serial_s, 1)
        values["cli.pool_efficiency"] = (serial_s / (self.workers * grid_s), len(pooled))
        values["cli.pool_overhead_s"] = (grid_s - serial_s / self.workers, len(pooled))
        values["trace.overhead_s"] = (traced_s - serial_s, 1)
        values["trace.overhead_share"] = ((traced_s - serial_s) / serial_s, 1)
        return values

    def metrics(self, passes: list[dict]) -> dict:
        done = [p for p in passes if p]
        eps = done[0]["episodes"]
        sim = sum(e["flight_time"] for e in eps)
        iters = [it for e in eps for it in e["iterations"]]
        by_kind = {kind: [it for e in eps if e["strategy"] == kind for it in e["iterations"]]
                   for kind in ("neural", "baseline")}
        walls = [p["wall"] for p in done]
        m = {
            "op_ms_p50": (statistics.median(walls) * 1e3, "ms", len(walls)),
            "grid_wall_s": (statistics.median(walls), "s", len(walls)),
            "sim_rtf": (statistics.median(sim / w for w in walls), "ratio", len(walls)),
            "success_rate": (sum(e["success"] for e in eps) / len(eps), "ratio", len(eps)),
            "mean_iterations": (statistics.fmean(iters), "count", len(iters)),
        }
        if ratio := _iter_ratio(by_kind["neural"], by_kind["baseline"]):
            m["iter_ratio.neo"] = ratio
        return m


WORKLOADS = {w.name: w for w in (PlanSet, Fly, BenchGrid)}
