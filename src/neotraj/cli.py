"""Command-line interface: scenes, data collection, training, flights,
benchmarks, the latency study and the gradient checker.

Every command is deterministic under a fixed --seed: per-episode seeds are
derived from the master seed and the episode's position in the task grid
(never from worker scheduling), file outputs carry format fields or header
rows, and measured wall times never reach any output file.  Exit codes:
0 success, 1 usage/config error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import functools
import json
import os
import sys
from dataclasses import replace

import numpy as np

from . import neural
from .config import RunConfig
from .errors import ModelShapeMismatch, NeotrajError
from .initializers import InitStrategy
from .minco import BoundaryState, TrajParams, solve_coeffs
from .objective import ObjectiveSetup, sample_trajectory, tau_to_time, total_objective
from .replan import derive_seed, run_episode, select_local_goal
from .world import FIXED_PRESETS, RANDOM_PRESETS, GridWorld, SceneSpec, generate_scene

AGGREGATE_COLUMNS = ["scene", "init", "success_rate", "avg_cost", "avg_plan_time", "avg_iterations"]


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _load_config(args) -> RunConfig:
    if args.config:
        return RunConfig.load(args.config)
    return RunConfig()


def _scene_token(token: str):
    """A scene argument is either a preset id (1-9) or a path to a scene file."""
    try:
        preset = int(token)
    except ValueError:
        return SceneSpec.load(token)
    if preset in FIXED_PRESETS or preset in RANDOM_PRESETS:
        return preset
    raise ValueError(f"unknown scene preset {preset}")


def _scene_label(token) -> str:
    if isinstance(token, SceneSpec):
        return token.name or "file"
    return f"scene{token}"


def cmd_scene(args) -> int:
    if args.preset is not None:
        spec = generate_scene(preset=args.preset, seed=args.seed)
    elif args.count is None:
        raise ValueError("need --preset or --count/--width-min/--width-max")
    else:
        spec = generate_scene(
            count=args.count, width_range=(args.width_min, args.width_max), seed=args.seed
        )
    spec.save(args.out)
    print(f"wrote {args.out}: {len(spec.obstacles)} obstacles")
    return 0


def _drawn(token) -> bool:
    """True if the scene's world is drawn from the episode seed (presets 4-9); a fixed
    scene (preset 1-3 or a file) ignores the seed, so all its episodes are one episode."""
    return isinstance(token, int) and token in RANDOM_PRESETS


def cmd_collect(args) -> int:
    rc = _load_config(args)
    scenes = [_scene_token(t) for t in args.scenes]
    tasks = []
    for ep in range(args.episodes):
        token = scenes[ep % len(scenes)]
        # a fixed scene flies at the first episode that uses it, so its records are written once
        if _drawn(token) or token not in scenes[:ep]:
            tasks.append({"scene": token, "scene_label": f"{_scene_label(token)}-ep{ep}",
                          "seed": derive_seed(args.seed, ep), "config": rc})
    results = _run_tasks(tasks, _collect_episode)
    # records of failed episodes are dropped; the summary counts them
    records = [rec for r in results if r["success"] for rec in r["records"]]
    succeeded = sum(r["success"] for r in results)
    summary = {
        "format": neural.DATASET_FORMAT,
        "episodes": len(tasks),
        "succeeded": succeeded,
        "failed": len(tasks) - succeeded,
        "records": len(records),
    }
    neural.save_dataset(records, args.out)
    with open(str(args.out) + ".summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(
        f"collected {summary['records']} records from {summary['succeeded']} episodes "
        f"({summary['failed']} failed) -> {args.out}"
    )
    return 0


def cmd_train(args) -> int:
    rc = _load_config(args)
    records = neural.load_dataset(args.data)
    model = neural.MlpModel(norm=rc.norm_constants(),
                            depth_sizes=(rc.n_rays, *neural.DEPTH_HIDDEN),
                            head_sizes=(*neural.HEAD_HIDDEN, neural.plan_width(rc.m_pieces)),
                            seed=args.seed)
    model, curve = neural.train(records, model, args.lr, args.epochs, args.seed)
    model.save(args.out)
    loss_path = args.loss_out or str(args.out) + ".loss.csv"
    _write_csv(
        loss_path,
        ["epoch", "train_mse", "val_mse"],
        [[c["epoch"], c["train_mse"], c["val_mse"]] for c in curve],
    )
    best = min(c["val_mse"] for c in curve)
    print(f"trained {len(curve)} epochs on {len(records)} records; best val MSE {best:.6g}")
    return 0


@functools.lru_cache(maxsize=None)
def _load_model(path) -> neural.MlpModel:
    """Each model file is read once per process (bench workers fly many episodes)."""
    return neural.MlpModel.load(path)


def _build_strategy(init: str, model_path, rc: RunConfig) -> InitStrategy:
    """The strategy behind a CLI init name (`neo` is the neural initializer);
    a neo model must read rc.n_rays depths of rc.max_range and plan rc.m_pieces pieces."""
    if init not in ("neo", "neural"):
        return InitStrategy(init)
    if not model_path:
        raise ValueError(f"init {init} requires --model")
    model = _load_model(model_path)
    depths, width = model.depth_sizes[0], neural.plan_width(rc.m_pieces)
    if (depths, model.n_outputs) != (rc.n_rays, width):
        raise ModelShapeMismatch(
            f"{model_path} reads {depths} depths and emits {model.n_outputs} outputs; "
            f"n_rays={rc.n_rays} needs {rc.n_rays} depths, m_pieces={rc.m_pieces} needs {width}")
    if model.norm.max_range != rc.max_range:
        raise ModelShapeMismatch(
            f"{model_path} was trained with max_range={model.norm.max_range}, not {rc.max_range}")
    return InitStrategy("neural", model)


def _fly(token, init: str, model_path, rc: RunConfig, seed: int, sample_sink=None):
    """One episode: a scene file's world, or preset `token`'s world drawn from seed."""
    strategy = _build_strategy(init, model_path, rc)
    spec = token if isinstance(token, SceneSpec) else generate_scene(preset=token, seed=seed)
    return run_episode(GridWorld(spec, rc.resolution), strategy, rc, seed=seed,
                       sample_sink=sample_sink)


def cmd_fly(args) -> int:
    rc = _load_config(args)
    report = _fly(_scene_token(args.scene), args.init, args.model, rc, args.seed)
    if args.report:
        report.save_json(args.report)
    if args.log:
        report.save_samples_csv(args.log)
    mean_wall = float(np.mean(report.plan_wall_times)) if report.plan_wall_times else 0.0
    print(
        f"{report.scene} [{report.strategy}] success={report.success} "
        f"reason={report.failure_reason or '-'} cost={report.trajectory_cost:.2f} "
        f"replans={report.replan_count} mean_iters={report.mean_iterations:.2f} "
        f"rmse_pos={report.rmse_position:.3f} (mean plan wall {mean_wall*1e3:.0f} ms, not persisted)"
    )
    return 0


def _bench_episode(task: dict) -> dict:
    """Worker entry: runs one episode described by a picklable task dict."""
    report = _fly(task["scene"], task["init"], task["model_path"], task["config"], task["seed"])
    out = report.to_json_dict()
    out["scene"] = _scene_label(task["scene"])
    out["run"] = task["run"]
    out["index"] = task["index"]
    return out


def _collect_episode(task: dict) -> dict:
    """Worker entry: one expert episode and the (observation, target) records it yields."""
    records = []

    def sink(obs, target, t):
        records.append({
            "obs": [float(v) for v in obs],
            "target": [float(v) for v in target],
            "scene": task["scene_label"],
            "t": float(t),
        })

    report = _fly(task["scene"], "expert", None, task["config"], task["seed"], sink)
    return {"success": report.success, "records": records}


def _pool_size() -> int:
    env = os.environ.get("NEOTRAJ_WORKERS")
    if env:
        return max(1, int(env))
    return max(1, os.cpu_count() or 1)


def _run_tasks(tasks: list[dict], worker) -> list[dict]:
    """worker(task) for every task, in a process pool, returned in task order."""
    workers = _pool_size()
    if workers == 1 or len(tasks) <= 1:
        return [worker(t) for t in tasks]
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, tasks, chunksize=1))


def _fly_grid(scenes, arms, runs, seed, model_path) -> list[dict]:
    """_bench_episode's row for every (scene, arm, run) in order; an arm is an (init, RunConfig)
    pair.  Arms see paired worlds: a world depends only on (scene, run).  Of a scene that is not
    _drawn only run 0 of each arm flies and later runs copy its row under their own index, run
    and seed, unless measured wall times make runs differ."""
    tasks, flies = [], []
    for si, token in enumerate(scenes):
        for init, rc in arms:
            for run in range(runs):
                flies.append(_drawn(token) or rc.replan.use_wall_time or run == 0)
                tasks.append({"index": len(tasks), "scene": token, "init": init, "run": run,
                              "seed": derive_seed(seed, si * 1000003 + run),
                              "model_path": model_path, "config": rc})
    flown = iter(_run_tasks([t for t, f in zip(tasks, flies) if f], _bench_episode))
    rows = []
    for task, fly in zip(tasks, flies):
        rows.append(next(flown) if fly else
                    {**rows[-1], "index": task["index"], "run": task["run"], "seed": task["seed"]})
    return rows


def _aggregate(results: list[dict], scenes, inits) -> list[list]:
    rows = []
    for token in scenes:
        label = _scene_label(token)
        for init in inits:
            group = [r for r in results if r["scene"] == label and r["strategy"] == init]
            succ = [r for r in group if r["success"]]
            iters = [it for r in group for it in r["iterations"]]
            lat = [v for r in group for v in r["plan_latencies"]]
            rows.append(
                [
                    label,
                    init,
                    len(succ) / len(group),
                    float(np.mean([r["trajectory_cost"] for r in succ])) if succ else float("nan"),
                    float(np.mean(lat)) if lat else 0.0,
                    float(np.mean(iters)) if iters else 0.0,
                ]
            )
    return rows


def _svg_bars(path, title, labels, series: dict) -> None:
    """Tiny deterministic grouped-bar SVG (no plotting library)."""
    width, height, pad = 640, 360, 48
    groups = len(labels)
    names = list(series)
    vals = [v for vs in series.values() for v in vs]
    vmax = max(vals + [1e-9])
    bw = (width - 2 * pad) / max(groups * (len(names) + 1), 1)
    colors = ["#4878cf", "#6acc65", "#d65f5f", "#b47cc7"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<text x="{width/2:.1f}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<line x1="{pad}" y1="{height-pad}" x2="{width-pad}" y2="{height-pad}" stroke="black"/>',
    ]
    for gi, label in enumerate(labels):
        gx = pad + gi * bw * (len(names) + 1)
        parts.append(
            f'<text x="{gx + bw*len(names)/2:.1f}" y="{height-pad+16}" '
            f'text-anchor="middle" font-size="11">{label}</text>'
        )
        for ni, name in enumerate(names):
            h = (height - 2 * pad) * series[name][gi] / vmax
            x = gx + ni * bw
            y = height - pad - h
            parts.append(
                f'<rect x="{x:.1f}" y="{y:.1f}" width="{bw*0.9:.1f}" height="{h:.1f}" '
                f'fill="{colors[ni % len(colors)]}"/>'
            )
    for ni, name in enumerate(names):
        parts.append(
            f'<rect x="{pad + ni*120}" y="28" width="10" height="10" fill="{colors[ni % len(colors)]}"/>'
            f'<text x="{pad + ni*120 + 14}" y="38" font-size="11">{name}</text>'
        )
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")


def cmd_bench(args) -> int:
    rc = _load_config(args)
    # building each strategy checks its name and model before any episode flies
    inits = [_build_strategy(s.strip(), args.model, rc).kind
             for s in args.inits.split(",") if s.strip()]
    if not inits:
        raise ValueError(f"--inits {args.inits!r} names no initializer")
    scenes = [_scene_token(t) for t in args.scenes]
    os.makedirs(args.out_dir, exist_ok=True)
    results = _fly_grid(scenes, [(init, rc) for init in inits], args.runs, args.seed, args.model)
    with open(os.path.join(args.out_dir, "episodes.jsonl"), "w") as fh:
        for r in results:
            fh.write(json.dumps(r, sort_keys=True) + "\n")
    rows = _aggregate(results, scenes, inits)
    _write_csv(os.path.join(args.out_dir, "aggregate.csv"), AGGREGATE_COLUMNS, rows)
    if args.svg:
        labels = [_scene_label(t) for t in scenes]
        for col, name in ((2, "success_rate"), (5, "avg_iterations")):
            series = {
                k: [next(r[col] for r in rows if r[0] == lab and r[1] == k) for lab in labels]
                for k in inits
            }
            _svg_bars(os.path.join(args.out_dir, f"bench_{name}.svg"), name, labels, series)
    for row in rows:
        print(
            f"{row[0]:>10} {row[1]:>9}: success={row[2]:.2f} cost={row[3]:.2f} "
            f"iters={row[5]:.2f}"
        )
    return 0


def cmd_latency(args) -> int:
    rc = _load_config(args)
    foresee_values = [float(s) for s in args.foresee.split(",")]
    arms = [(args.init, replace(rc, replan=replace(rc.replan, latency=args.latency, foresee=v)))
            for v in foresee_values]
    scenes = [_scene_token(t) for t in args.scenes]
    all_rows = []
    for token in scenes:
        # one grid per scene, so every scene's runs keep the seeds derive_seed(seed, run)
        results = _fly_grid([token], arms, args.runs, args.seed, None)
        per_arm = [results[i:i + args.runs] for i in range(0, len(results), args.runs)]
        for metric in ("position", "velocity"):
            all_rows.append([_scene_label(token), f"{metric}_rmse"] + [
                float(np.mean([r[f"rmse_{metric}"] for r in rows])) for rows in per_arm])
    header = ["scene", "metric"] + [f"foresee_{v:g}" for v in foresee_values]
    _write_csv(args.out, header, all_rows)
    for row in all_rows:
        print(" ".join(map(str, row)))
    return 0


def _gradcheck_config(rng, rc: RunConfig, worlds):
    """One random, kink-free (Q, tau, scene) configuration for the FD check."""
    world = worlds[rng.integers(len(worlds))]
    for _ in range(60):
        p0 = np.array([rng.uniform(1.0, 20.0), rng.uniform(-3.0, 3.0)])
        if world.distance_at(p0) < 0.45:
            continue
        goal = np.asarray(world.spec.goal, dtype=float)
        s_init = BoundaryState(p0, rng.uniform(-0.8, 0.8, size=2))
        s_target = select_local_goal(world, p0, goal, rc)
        direction = s_target.position - p0
        fr = np.arange(1, rc.m_pieces) / rc.m_pieces
        q = p0[:, None] + direction[:, None] * fr[None, :]
        q += rng.normal(scale=0.6, size=q.shape)
        tau = rng.normal(scale=0.7, size=rc.m_pieces)
        ob = ObjectiveSetup(
            s_init, s_target, world, rc.weights, rc.penalty, rc.transform, rc.s_order
        )
        if _near_field_kink(q, tau, ob, world):
            continue
        return q, tau, ob
    return q, tau, ob  # last draw; kink rejection is best-effort


def _near_field_kink(q, tau, ob, world) -> bool:
    """True if any penalty-active sample sits close to a grid-cell border.

    The bilinear distance field is only piecewise smooth; FD across a cell
    border is meaningless where the obstacle penalty is active, so those
    configurations are redrawn.
    """
    tbar = tau_to_time(tau, ob.transform)
    traj = solve_coeffs(ob.init, ob.target, TrajParams(q, tbar), ob.s_order)
    # the very sample points the obstacle term reads
    pos = sample_trajectory(traj, ob.penalty.kappa).values[0].reshape(-1, q.shape[0])
    dist, _ = world.query_distance(pos)
    g = (pos[dist < ob.penalty.d_safe + 0.05] - world.origin) / world.resolution - 0.5
    return bool(np.any(np.abs(g - np.round(g)) < 0.02))


def cmd_gradcheck(args) -> int:
    rc = _load_config(args)
    if args.trials == 0:
        print("warning: --trials 0, vacuous pass")
        return 0
    rng = np.random.default_rng(args.seed)
    worlds = [GridWorld(generate_scene(preset=p, seed=derive_seed(args.seed, p)), rc.resolution)
              for p in (4, 6, 9)]
    worst = 0.0
    for trial in range(args.trials):
        q, tau, ob = _gradcheck_config(rng, rc, worlds)
        h0, dq, dtau = total_objective(q, tau, ob)
        x = np.concatenate([q.ravel(), tau])
        grad = np.concatenate([dq.ravel(), dtau])
        for k in range(x.size):
            h = 1e-5 * max(1.0, abs(x[k]))
            xp, xm = x.copy(), x.copy()
            xp[k] += h
            xm[k] -= h
            fp, _, _ = total_objective(xp[: q.size].reshape(q.shape), xp[q.size :], ob)
            fm, _, _ = total_objective(xm[: q.size].reshape(q.shape), xm[q.size :], ob)
            fd = (fp - fm) / (2 * h)
            err = abs(fd - grad[k]) / max(abs(fd), abs(grad[k]), 1.0)
            worst = max(worst, err)
    print(f"gradcheck: {args.trials} trials, max relative error {worst:.3e}")
    if worst > 1e-4:
        print("FAIL: exceeds 1e-4", file=sys.stderr)
        return 2
    return 0


def _at_least(minimum: int):
    """argparse type: an integer no smaller than `minimum`."""

    def count(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    return count


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="neotraj", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=0)
    configured = argparse.ArgumentParser(add_help=False, parents=[seeded])
    configured.add_argument("--config")

    sp = sub.add_parser("scene", parents=[seeded], help="generate a scene file")
    sp.add_argument("--preset", type=int, choices=sorted(FIXED_PRESETS | RANDOM_PRESETS.keys()))
    sp.add_argument("--count", type=_at_least(0))
    sp.add_argument("--width-min", type=float, default=0.5)
    sp.add_argument("--width-max", type=float, default=1.0)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_scene)

    sp = sub.add_parser("collect", parents=[configured], help="collect expert training data")
    sp.add_argument("--scenes", nargs="+", default=["4"])
    sp.add_argument("--episodes", type=_at_least(1), default=30)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_collect)

    sp = sub.add_parser("train", parents=[configured], help="train the warm-start network")
    sp.add_argument("--data", required=True)
    sp.add_argument("--epochs", type=int, default=neural.EPOCHS)
    sp.add_argument("--lr", type=float, default=neural.LEARNING_RATE)
    sp.add_argument("--out", required=True)
    sp.add_argument("--loss-out")
    sp.set_defaults(func=cmd_train)

    sp = sub.add_parser("fly", parents=[configured], help="run one episode")
    sp.add_argument("--scene", required=True)
    sp.add_argument("--init", choices=["baseline", "geo", "expert", "neo"], default="baseline")
    sp.add_argument("--model")
    sp.add_argument("--report")
    sp.add_argument("--log")
    sp.set_defaults(func=cmd_fly)

    sp = sub.add_parser("bench", parents=[configured], help="benchmark initializers over scenes")
    sp.add_argument("--scenes", nargs="+", default=["4", "5", "6", "7", "8", "9"])
    sp.add_argument("--runs", type=_at_least(1), default=20)
    sp.add_argument("--inits", default="baseline,geo,neo")
    sp.add_argument("--model")
    sp.add_argument("--out-dir", required=True)
    sp.add_argument("--svg", action="store_true")
    sp.set_defaults(func=cmd_bench)

    sp = sub.add_parser("latency", parents=[configured], help="foreseeing-horizon latency study")
    sp.add_argument("--scenes", nargs="+", default=["1", "2", "3"])
    sp.add_argument("--runs", type=_at_least(1), default=10)
    sp.add_argument("--latency", type=float, default=0.8)
    sp.add_argument("--foresee", default="0,1.0")
    sp.add_argument("--init", choices=["baseline", "geo", "expert"], default="geo")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_latency)

    sp = sub.add_parser(
        "gradcheck", parents=[configured], help="finite-difference gradient verification"
    )
    sp.add_argument("--trials", type=_at_least(0), default=100)
    sp.set_defaults(func=cmd_gradcheck)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code else 0
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NeotrajError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
