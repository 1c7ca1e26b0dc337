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
from .errors import NeotrajError
from .initializers import STRATEGY_KINDS, InitStrategy
from .minco import BoundaryState
from .objective import ObjectiveSetup, total_objective
from .replan import derive_seed, run_episode, select_local_goal
from .world import FIXED_PRESETS, RANDOM_PRESETS, GridWorld, SceneSpec, generate_scene

AGGREGATE_COLUMNS = ["scene", "init", "success_rate", "avg_cost", "avg_plan_time", "avg_iterations"]


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _load_config(args) -> RunConfig:
    if getattr(args, "config", None):
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


def cmd_collect(args) -> int:
    rc = _load_config(args)
    scenes = [_scene_token(t) for t in args.scenes]
    records, summary = neural.collect_dataset(scenes, args.episodes, args.seed, rc)
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
    cfg = neural.TrainConfig(learning_rate=args.lr, epochs=args.epochs, seed=args.seed)
    model = neural.MlpModel(norm=rc.norm_constants(), seed=args.seed)
    model, curve = neural.train(records, cfg, model)
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


def _init_kind(init: str) -> str:
    """The strategy kind behind a CLI init name (`neo` is the neural initializer)."""
    return "neural" if init in ("neo", "neural") else init


@functools.lru_cache(maxsize=None)
def _load_model(path) -> neural.MlpModel:
    """Each model file is read once per process (bench workers fly many episodes)."""
    return neural.MlpModel.load(path)


def _build_strategy(init: str, model_path) -> InitStrategy:
    init = _init_kind(init)
    if init == "neural":
        if not model_path:
            raise ValueError("--init neo requires --model")
        return InitStrategy("neural", _load_model(model_path))
    return InitStrategy(init)


def _fly(token, world_seed: int, init: str, model_path, rc: RunConfig, seed: int):
    """One episode: a scene file's world, or preset `token`'s world drawn from world_seed."""
    strategy = _build_strategy(init, model_path)
    spec = token if isinstance(token, SceneSpec) else generate_scene(preset=token, seed=world_seed)
    return run_episode(GridWorld(spec, rc.resolution), strategy, rc, seed=seed)


def cmd_fly(args) -> int:
    rc = _load_config(args)
    report = _fly(_scene_token(args.scene), args.seed, args.init, args.model, rc, args.seed)
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
    report = _fly(task["scene"], task["world_seed"], task["init"], task["model_path"],
                  task["config"], task["episode_seed"])
    out = report.to_json_dict()
    out["scene"] = task["scene_label"]
    out["run"] = task["run"]
    out["index"] = task["index"]
    return out


def _pool_size() -> int:
    env = os.environ.get("NEOTRAJ_WORKERS")
    if env:
        return max(1, int(env))
    return max(1, os.cpu_count() or 1)


def _run_tasks(tasks: list[dict]) -> list[dict]:
    workers = _pool_size()
    if workers == 1 or len(tasks) <= 1:
        results = [_bench_episode(t) for t in tasks]
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_bench_episode, tasks, chunksize=1))
    results.sort(key=lambda r: r["index"])
    return results


def _make_tasks(scenes, inits, runs, seed, rc, model_path) -> list[dict]:
    tasks = []
    index = 0
    for si, token in enumerate(scenes):
        fixed = isinstance(token, SceneSpec) or token in FIXED_PRESETS
        for init in inits:
            for run in range(runs):
                # the world depends only on (scene, run) so inits see paired worlds
                world_seed = derive_seed(seed, si * 1000003 + run)
                tasks.append(
                    {
                        "index": index,
                        "scene_label": _scene_label(token),
                        "scene": token,
                        "world_seed": 0 if fixed else world_seed,
                        "episode_seed": world_seed,
                        "init": init,
                        "model_path": model_path,
                        "run": run,
                        "config": rc,
                    }
                )
                index += 1
    return tasks


def _aggregate(results: list[dict], scenes, inits) -> list[list]:
    rows = []
    for token in scenes:
        label = _scene_label(token)
        for init in inits:
            group = [r for r in results if r["scene"] == label and r["strategy"] == init]
            if not group:
                continue
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
    vals = [v for vs in series.values() for v in vs if np.isfinite(v)]
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
            v = series[name][gi]
            if not np.isfinite(v):
                continue
            h = (height - 2 * pad) * v / vmax
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
    inits = [_init_kind(s.strip()) for s in args.inits.split(",") if s.strip()]
    for init in inits:
        if init not in STRATEGY_KINDS:
            raise ValueError(f"unknown strategy {init!r}")
    if "neural" in inits and not args.model:
        raise ValueError("--inits with neo requires --model")
    scenes = [_scene_token(t) for t in args.scenes]
    os.makedirs(args.out_dir, exist_ok=True)
    tasks = _make_tasks(scenes, inits, args.runs, args.seed, rc, args.model)
    results = _run_tasks(tasks)
    with open(os.path.join(args.out_dir, "episodes.jsonl"), "w") as fh:
        for r in results:
            fh.write(json.dumps(r, sort_keys=True) + "\n")
    rows = _aggregate(results, scenes, inits)
    _write_csv(os.path.join(args.out_dir, "aggregate.csv"), AGGREGATE_COLUMNS, rows)
    if args.svg:
        labels = [_scene_label(t) for t in scenes]
        for col, name in ((2, "success_rate"), (5, "avg_iterations")):
            series = {
                k: [next((r[col] for r in rows if r[0] == lab and r[1] == k), float("nan"))
                    for lab in labels]
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
    scenes = [_scene_token(t) for t in args.scenes]
    all_rows = []
    for token in scenes:
        label = _scene_label(token)
        per_foresee = {}
        for tf_value in foresee_values:
            rc_v = replace(rc, replan=replace(rc.replan, latency=args.latency, foresee=tf_value))
            tasks = _make_tasks([token], [args.init], args.runs, args.seed, rc_v, None)
            results = _run_tasks(tasks)
            per_foresee[tf_value] = (
                float(np.mean([r["rmse_position"] for r in results])),
                float(np.mean([r["rmse_velocity"] for r in results])),
            )
        all_rows.append([label, "position_rmse"] + [per_foresee[v][0] for v in foresee_values])
        all_rows.append([label, "velocity_rmse"] + [per_foresee[v][1] for v in foresee_values])
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
    from . import minco, objective

    tbar = objective.tau_to_time(tau, ob.transform)
    traj = minco.solve_coeffs(ob.init, ob.target, minco.TrajParams(q, tbar), ob.s_order)
    kappa = ob.penalty.kappa
    frac = np.arange(kappa + 1) / kappa
    for i in range(traj.n_pieces):
        pos = traj.eval_piece(i, frac * tbar[i])
        dist, _ = world.query_distance(pos)
        active = dist < ob.penalty.d_safe + 0.05
        if not active.any():
            continue
        g = (pos[active] - world.origin) / world.resolution - 0.5
        fx = np.abs(g - np.round(g))
        if np.any(fx < 0.02):
            return True
    return False


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

    sp = sub.add_parser("scene", help="generate a scene file")
    sp.add_argument("--preset", type=int, choices=sorted(FIXED_PRESETS | RANDOM_PRESETS.keys()))
    sp.add_argument("--count", type=_at_least(0))
    sp.add_argument("--width-min", type=float, default=0.5)
    sp.add_argument("--width-max", type=float, default=1.0)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_scene)

    sp = sub.add_parser("collect", help="collect expert training data")
    sp.add_argument("--scenes", nargs="+", default=["4"])
    sp.add_argument("--episodes", type=_at_least(1), default=30)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", required=True)
    sp.add_argument("--config")
    sp.set_defaults(func=cmd_collect)

    sp = sub.add_parser("train", help="train the warm-start network")
    sp.add_argument("--data", required=True)
    sp.add_argument("--epochs", type=int, default=neural.TrainConfig.epochs)
    sp.add_argument("--lr", type=float, default=neural.TrainConfig.learning_rate)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", required=True)
    sp.add_argument("--loss-out")
    sp.add_argument("--config")
    sp.set_defaults(func=cmd_train)

    sp = sub.add_parser("fly", help="run one episode")
    sp.add_argument("--scene", required=True)
    sp.add_argument("--init", choices=["baseline", "geo", "expert", "neo"], default="baseline")
    sp.add_argument("--model")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--report")
    sp.add_argument("--log")
    sp.add_argument("--config")
    sp.set_defaults(func=cmd_fly)

    sp = sub.add_parser("bench", help="benchmark initializers over scenes")
    sp.add_argument("--scenes", nargs="+", default=["4", "5", "6", "7", "8", "9"])
    sp.add_argument("--runs", type=_at_least(1), default=20)
    sp.add_argument("--inits", default="baseline,geo,neo")
    sp.add_argument("--model")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out-dir", required=True)
    sp.add_argument("--svg", action="store_true")
    sp.add_argument("--config")
    sp.set_defaults(func=cmd_bench)

    sp = sub.add_parser("latency", help="foreseeing-horizon latency study")
    sp.add_argument("--scenes", nargs="+", default=["1", "2", "3"])
    sp.add_argument("--runs", type=_at_least(1), default=10)
    sp.add_argument("--latency", type=float, default=0.8)
    sp.add_argument("--foresee", default="0,1.0")
    sp.add_argument("--init", choices=["baseline", "geo", "expert"], default="geo")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", required=True)
    sp.add_argument("--config")
    sp.set_defaults(func=cmd_latency)

    sp = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    sp.add_argument("--trials", type=_at_least(0), default=100)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--config")
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
