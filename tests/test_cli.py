"""Command-line interface: flags, outputs, determinism, exit codes."""

import csv
import dataclasses
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

from neotraj import cli
from neotraj.cli import main
from neotraj.replan import derive_seed
from neotraj.world import SceneSpec


def run(args):
    return main([str(a) for a in args])


def test_scene_preset_and_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["scene", "--preset", 9, "--seed", 1, "--out", a]) == 0
    assert run(["scene", "--preset", 9, "--seed", 1, "--out", b]) == 0
    assert a.read_bytes() == b.read_bytes()
    doc = json.loads(a.read_text())
    assert len(doc["obstacles"]) == 24
    widths = [o["width"] for o in doc["obstacles"]]
    assert min(widths) >= 0.5 and max(widths) <= 0.6


def test_scene_custom_zero_count(tmp_path):
    out = tmp_path / "empty.json"
    assert run(["scene", "--count", 0, "--seed", 3, "--out", out]) == 0
    assert json.loads(out.read_text())["obstacles"] == []


def test_scene_packing_failure(tmp_path):
    out = tmp_path / "never.json"
    assert run(["scene", "--count", 4000, "--width-min", 1.0, "--width-max", 1.0,
                "--seed", 0, "--out", out]) == 2


def test_scene_requires_args(tmp_path):
    assert run(["scene", "--out", tmp_path / "x.json"]) == 1


def test_fly_empty_scene_and_outputs(tmp_path):
    scene = tmp_path / "s.json"
    assert run(["scene", "--count", 0, "--seed", 0, "--out", scene]) == 0
    report = tmp_path / "rep.json"
    log = tmp_path / "log.csv"
    assert run(["fly", "--scene", scene, "--init", "baseline", "--seed", 2,
                "--report", report, "--log", log]) == 0
    doc = json.loads(report.read_text())
    assert doc["success"] is True
    assert doc["format"] == "neotraj-report-1"
    assert log.read_text().splitlines()[0].startswith("t,px,py")


@pytest.mark.parametrize("xmax", [0.04, 0.14])  # 0 and 1 cells across at 0.1 m
def test_fly_grid_under_two_cells_is_an_error(tmp_path, capsys, xmax):
    scene = tmp_path / "thin.json"
    scene.write_text(json.dumps({"bounds": [0.0, 0.0, xmax, 3.0], "obstacles": [],
                                 "start": [0.02, 0.5], "goal": [0.02, 2.5]}))
    assert run(["fly", "--scene", scene, "--init", "baseline"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "at least 2 cells" in err


def test_fly_neo_without_model_usage_error(tmp_path):
    assert run(["fly", "--scene", "4", "--init", "neo"]) == 1


def test_fly_deterministic(tmp_path):
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for r in (r1, r2):
        assert run(["fly", "--scene", "6", "--init", "geo", "--seed", 7, "--report", r]) == 0
    assert r1.read_bytes() == r2.read_bytes()


def test_gradcheck_passes_and_vacuous(tmp_path, capsys):
    assert run(["gradcheck", "--trials", 5, "--seed", 11]) == 0
    assert run(["gradcheck", "--trials", 0]) == 0
    out = capsys.readouterr().out
    assert "vacuous" in out


def test_unknown_config_key_rejected(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"v_max": 1.0, "not_a_key": 2}))
    assert run(["fly", "--scene", "4", "--config", cfg]) == 1


@pytest.mark.parametrize("doc", [
    {"use_wall_time": "no"},
    {"m_pieces": "3"},
    {"m_pieces": True},
    {"v_max": "1.0"},
    {"v_max": float("nan")},
    {"timeout": float("inf")},
    {"weights": 5},
    {"weights": [1.0, 1.0, 1.0]},
    {"weights": [1.0, -1.0, 1.0, 1.0]},
    {"weights": [1.0, 1.0, float("inf"), 1.0]},
    {"tick_rate": 0},
    {"s_order": 3.5},
    {"s_order": 4},
    {"s_order": 0},
    {"dims": 3},
    [1, 2],
    {"cruise_fraction": 0},  # the initializers divide by it
    {"latency": -0.5},
    {"timeout": -1.0},  # would plan nothing and report a timeout
    {"lookahead": 0.0},  # the local goal would sit on the drone
    {"max_range": 0.0},  # the depth scaling would divide 0 by 0
])
def test_bad_config_value_rejected(tmp_path, capsys, doc):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert run(["fly", "--scene", "4", "--config", cfg]) == 1
    assert capsys.readouterr().err.startswith("error: ")


# Every key of the flat config document, each with a non-default value
# (dims can only be 2: the planner is planar).
FLAT_CONFIG = {
    "m_pieces": 4, "dims": 2, "s_order": 2,
    "v_max": 1.5, "a_max": 2.5, "t_min": 0.4, "t_max": 4.0,
    "weights": [2.0, 3.0, 5000.0, 4.0], "kappa": 12, "d_safe": 0.35,
    "history": 6, "max_iterations": 150, "g_tol": 1e-6, "f_tol": 1e-9,
    "c1": 1e-3, "c2": 0.8, "max_ls_steps": 30,
    "resolution": 0.05,
    "replan_interval": 0.5, "foresee": 0.8, "latency": 0.2, "use_wall_time": True,
    "lookahead": 5.0, "goal_tolerance": 0.4, "timeout": 60.0, "drone_radius": 0.25,
    "kp": 7.0, "kv": 4.0, "tick_rate": 50.0,
    "n_rays": 32, "fov_deg": 90.0, "max_range": 4.0,
    "cruise_fraction": 0.6, "deform_amplitude": 1.2,
}


def test_config_roundtrip(tmp_path):
    from neotraj.config import ReplanConfig, RunConfig
    from neotraj.objective import CostWeights, PenaltyConfig, TimeTransform
    from neotraj.replan import EpisodeSetup
    from neotraj.solver import SolverConfig

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(RunConfig().to_dict()))
    loaded = RunConfig.load(cfg)
    assert loaded == RunConfig()
    assert RunConfig().to_dict().keys() == FLAT_CONFIG.keys()

    rc = RunConfig.from_dict(FLAT_CONFIG)
    assert rc.weights == CostWeights(effort=2.0, time=3.0, obstacle=5000.0, feasibility=4.0)
    assert rc.penalty == PenaltyConfig(kappa=12, d_safe=0.35, v_max=1.5, a_max=2.5)
    assert rc.transform == TimeTransform(t_min=0.4, t_max=4.0)
    assert rc.solver == SolverConfig(
        history=6, max_iterations=150, g_tol=1e-6, f_tol=1e-9, c1=1e-3, c2=0.8, max_ls_steps=30
    )
    assert rc.replan == ReplanConfig(
        replan_interval=0.5, foresee=0.8, latency=0.2, use_wall_time=True, lookahead=5.0,
        goal_tolerance=0.4, timeout=60.0, drone_radius=0.25, kp=7.0, kv=4.0, tick_rate=50.0,
    )
    assert (rc.m_pieces, rc.s_order, rc.resolution, rc.cruise_fraction, rc.deform_amplitude,
            rc.n_rays, rc.fov_deg, rc.max_range) == (4, 2, 0.05, 0.6, 1.2, 32, 90.0, 4.0)
    assert rc.to_dict() == FLAT_CONFIG

    assert EpisodeSetup() == RunConfig()
    assert EpisodeSetup.from_run_config(rc) is rc


def test_readme_config_paragraph_names_every_key():
    # the README's `--config` paragraph and its key list name the flat keys
    # and the section each lands in, and nothing else
    from neotraj.config import RunConfig

    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    start = readme.index("`--config file.json` overrides")
    paragraph = readme[start : readme.index("\n\n", readme.index("\n- ", start))]
    named = set(re.findall(r"`([a-z_][a-z0-9_]*)`", paragraph))
    keys = set(RunConfig().to_dict())
    sections = {f.name for f in dataclasses.fields(RunConfig)}
    assert keys <= named, f"undocumented config keys: {sorted(keys - named)}"
    assert named <= keys | sections, f"not config keys: {sorted(named - keys - sections)}"


@pytest.mark.slow
def test_bench_grid_rows_and_determinism(tmp_path):
    out1, out2 = tmp_path / "b1", tmp_path / "b2"
    base = ["bench", "--scenes", "6", "--runs", 2, "--inits", "baseline,geo",
            "--seed", 5]
    env = os.environ
    env["NEOTRAJ_WORKERS"] = "1"
    assert run(base + ["--out-dir", out1]) == 0
    env["NEOTRAJ_WORKERS"] = "2"
    assert run(base + ["--out-dir", out2, "--svg"]) == 0
    env.pop("NEOTRAJ_WORKERS")
    agg1 = (out1 / "aggregate.csv").read_bytes()
    agg2 = (out2 / "aggregate.csv").read_bytes()
    assert agg1 == agg2  # worker-pool size cannot affect results
    assert (out1 / "episodes.jsonl").read_bytes() == (out2 / "episodes.jsonl").read_bytes()
    lines = agg1.decode().splitlines()
    assert lines[0] == "scene,init,success_rate,avg_cost,avg_plan_time,avg_iterations"
    assert len(lines) == 1 + 1 * 2  # |scenes| x |inits|
    assert (out2 / "bench_success_rate.svg").exists()


def test_bench_survives_planner_error(tmp_path, monkeypatch, plan_fails_from_second_call):
    monkeypatch.setenv("NEOTRAJ_WORKERS", "1")  # in-process, so the patched plan is used
    out = tmp_path / "b"
    assert run(["bench", "--scenes", "6", "--runs", 1, "--inits", "baseline,geo",
                "--seed", 5, "--out-dir", out]) == 0
    episodes = [json.loads(line) for line in (out / "episodes.jsonl").read_text().splitlines()]
    assert [e["strategy"] for e in episodes] == ["baseline", "geo"]
    assert all(e["failure_reason"] == "singular_system" for e in episodes)
    assert len((out / "aggregate.csv").read_text().splitlines()) == 1 + 2


@pytest.mark.slow
def test_latency_table_shape(tmp_path):
    out = tmp_path / "latency.csv"
    assert run(["latency", "--scenes", "1", "--runs", 1, "--latency", 0.8,
                "--foresee", "0,1.0", "--seed", 3, "--out", out]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "scene,metric,foresee_0,foresee_1"
    assert len(lines) == 3  # position + velocity rows for one scene
    for line in lines[1:]:
        cells = line.split(",")
        assert cells[1] in ("position_rmse", "velocity_rmse")
        assert float(cells[3]) < float(cells[2])  # foreseeing horizon helps


LATENCY = ["latency", "--runs", 3, "--latency", 0.8, "--foresee", "0,1.0", "--seed", 8]
LATENCY_1_4 = [*LATENCY, "--scenes", "1", "4", "--out", "latency.csv"]
BENCH_1_4 = ["bench", "--scenes", "1", "4", "--runs", 3, "--inits", "baseline,geo", "--seed", 8,
             "--out-dir", "b"]


def short_config(tmp_path, **overrides):
    config = tmp_path / "short.json"
    config.write_text(json.dumps({"timeout": 2.0, **overrides}))
    return config


# the poles scene flies once per foresee value (latency) or init (bench) and preset 4 every
# run, unless measured wall times make the runs differ
@pytest.mark.slow
@pytest.mark.parametrize("command, overrides, episodes", [
    (LATENCY_1_4, {}, 2 + 6),
    (LATENCY_1_4, {"use_wall_time": True}, 12),
    (BENCH_1_4, {}, 2 + 6),
    (BENCH_1_4, {"use_wall_time": True}, 12),
], ids=["default", "use_wall_time", "bench-default", "bench-use_wall_time"])
def test_latency_flies_a_fixed_scene_once_per_foresee_value(tmp_path, monkeypatch, command,
                                                            overrides, episodes):
    monkeypatch.setenv("NEOTRAJ_WORKERS", "1")
    monkeypatch.chdir(tmp_path)
    flown = []
    fly = cli.run_episode
    monkeypatch.setattr(cli, "run_episode", lambda *a, **kw: flown.append(1) or fly(*a, **kw))
    assert run([*command, "--config", short_config(tmp_path, **overrides)]) == 0
    assert len(flown) == episodes


@pytest.mark.slow
def test_bench_copies_a_fixed_scene_row_per_run(tmp_path, monkeypatch):
    monkeypatch.setenv("NEOTRAJ_WORKERS", "1")
    monkeypatch.chdir(tmp_path)
    assert run([*BENCH_1_4, "--config", short_config(tmp_path)]) == 0
    rows = [json.loads(line) for line in (tmp_path / "b/episodes.jsonl").read_text().splitlines()]
    assert [r["index"] for r in rows] == list(range(12))
    assert [r["run"] for r in rows] == [0, 1, 2] * 4
    # the world seed depends only on (scene position, run), so both inits fly paired worlds
    assert [r["seed"] for r in rows] == [derive_seed(8, si * 1000003 + run)
                                         for si in (0, 1) for _init in ("baseline", "geo")
                                         for run in range(3)]
    keys = ("index", "run", "seed")
    for first in (0, 3):  # scene 1's runs of baseline, then of geo, are one episode
        same = [{k: v for k, v in r.items() if k not in keys} for r in rows[first:first + 3]]
        assert same[0]["scene"] == "scene1" and same[1:] == same[:1] * 2


@pytest.mark.slow
def test_latency_row_of_a_scene_does_not_depend_on_the_scenes_before_it(tmp_path, monkeypatch):
    monkeypatch.setenv("NEOTRAJ_WORKERS", "1")
    config = short_config(tmp_path)
    both, alone = tmp_path / "both.csv", tmp_path / "alone.csv"
    assert run([*LATENCY, "--scenes", "1", "4", "--config", config, "--out", both]) == 0
    assert run([*LATENCY, "--scenes", "4", "--config", config, "--out", alone]) == 0
    assert both.read_text().splitlines()[3:] == alone.read_text().splitlines()[1:]


@pytest.mark.slow
def test_latency_on_a_fixed_scene_equals_flying_every_run(tmp_path, monkeypatch):
    # the run seeds differ, yet every run of the poles scene flies one episode
    monkeypatch.setenv("NEOTRAJ_WORKERS", "1")
    config = short_config(tmp_path)
    once, every = tmp_path / "once.csv", tmp_path / "every.csv"
    assert run([*LATENCY, "--scenes", "1", "--config", config, "--out", once]) == 0
    monkeypatch.setattr(cli, "RANDOM_PRESETS", {**cli.RANDOM_PRESETS, 1: None})
    assert run([*LATENCY, "--scenes", "1", "--config", config, "--out", every]) == 0
    assert once.read_bytes() == every.read_bytes()


@pytest.mark.slow
def test_collect_and_train_cycle(tmp_path):
    data = tmp_path / "mini.jsonl"
    assert run(["collect", "--scenes", "4", "--episodes", 2, "--seed", 77, "--out", data]) == 0
    with open(str(data) + ".summary.json") as fh:
        summary = json.load(fh)
    n_lines = len(data.read_text().splitlines())
    assert summary["records"] == n_lines
    assert n_lines > 20  # ~25-35 records per ~30 s episode
    model = tmp_path / "model.json"
    assert run(["train", "--data", data, "--epochs", 30, "--seed", 0, "--out", model]) == 0
    doc = json.loads(model.read_text())
    assert doc["format"] == "neotraj-model-1"
    assert (tmp_path / "model.json.loss.csv").exists()
    # the trained model can fly
    rep = tmp_path / "rep.json"
    assert run(["fly", "--scene", "4", "--init", "neo", "--model", model, "--seed", 1,
                "--report", rep]) == 0
    assert json.loads(rep.read_text())["replan_count"] > 0


def test_collect_deterministic(tmp_path, monkeypatch):
    outputs = []
    for workers in ("1", "2"):  # two episodes, so the second run uses the pool
        monkeypatch.setenv("NEOTRAJ_WORKERS", workers)
        d = tmp_path / f"d{workers}.jsonl"
        assert run(["collect", "--scenes", "4", "--episodes", 2, "--seed", 9, "--out", d]) == 0
        outputs.append((d.read_bytes(), (tmp_path / f"d{workers}.jsonl.summary.json").read_bytes()))
    assert outputs[0] == outputs[1]  # worker-pool size cannot affect the dataset


@pytest.mark.slow
def test_collect_flies_a_fixed_scene_once(tmp_path, monkeypatch):
    # episodes 0 and 2 use the poles scene, which ignores the seed, so only episode 0 flies it;
    # a 28 m goal tolerance ends each episode within the 5 s timeout after five replans
    monkeypatch.setenv("NEOTRAJ_WORKERS", "1")
    flown = []
    fly = cli.run_episode
    monkeypatch.setattr(cli, "run_episode", lambda *a, **kw: flown.append(1) or fly(*a, **kw))
    data = tmp_path / "d.jsonl"
    config = short_config(tmp_path, timeout=5.0, goal_tolerance=28.0)
    assert run(["collect", "--scenes", "1", "4", "--episodes", 4, "--config", config,
                "--out", data]) == 0
    assert len(flown) == 3
    summary = json.loads(Path(f"{data}.summary.json").read_text())
    assert (summary["episodes"], summary["failed"]) == (3, 0)
    records = [json.loads(line) for line in data.read_text().splitlines()]
    assert any(r["scene"] == "scene1-ep0" for r in records)
    # two worlds with nothing in view yet can yield one record; one scene yields each record once
    assert len({(r["scene"].split("-")[0], tuple(r["obs"]), tuple(r["target"]), r["t"])
                for r in records}) == len(records)


NEO_MODEL = Path(__file__).resolve().parent.parent / "perfbench" / "data" / "neo_model.json"
# malformed input files, written for test_errors_reach_main_as_one_line
BAD_INPUTS = {
    "boundless.json": {"format": "neotraj-scene-1"},
    "array.json": [1, 2],
    "sizeless.json": {"format": "neotraj-model-1"},
    "targetless.jsonl": {"obs": [1.0]},
    "far.json": {"bounds": [0, 0, 10, 10], "obstacles": [], "start": [1, 1], "goal": [50, 9]},
    "lettered.json": {"bounds": [0, 0, 10, 10], "obstacles": [], "start": ["a", 0],
                      "goal": [5, 5]},
    "normless.json": {**json.loads(NEO_MODEL.read_text()), "norm": {}},
}


def one_error_line(capsys) -> bool:
    err = capsys.readouterr().err
    return err.startswith("error: ") and err.count("error:") == 1


@pytest.mark.parametrize("args, code", [
    (["scene", "--out", "s.json"], 1),  # neither --preset nor --count
    (["train", "--data", "empty.jsonl", "--out", "m.json"], 2),
    (["bench", "--scenes", "4", "--runs", 1, "--inits", "neo", "--out-dir", "b"], 1),
    # obstacle widths that are negative, reversed, or wider than the obstacle region
    (["scene", "--count", 2, "--width-min", -1.0, "--width-max", -0.5, "--out", "s.json"], 1),
    (["scene", "--count", 2, "--width-min", 1.0, "--width-max", 0.2, "--out", "s.json"], 1),
    (["scene", "--count", 2, "--width-min", 0.5, "--width-max", 50, "--out", "s.json"], 1),
    (["latency", "--scenes", "1", "--latency", -0.5, "--out", "lat.csv"], 1),
    (["bench", "--scenes", "4", "--inits", ",", "--out-dir", "b"], 1),  # no initializer
    (["fly", "--scene", "boundless.json"], 1),
    (["fly", "--scene", "array.json"], 1),  # not a JSON object
    (["fly", "--scene", "4", "--init", "neo", "--model", "sizeless.json"], 1),
    (["train", "--data", "targetless.jsonl", "--out", "m.json"], 1),
    (["fly", "--scene", "far.json"], 1),  # the goal lies outside the bounds
    (["fly", "--scene", "lettered.json"], 1),  # a start that is not numbers
    (["fly", "--scene", "4", "--init", "neo", "--model", "normless.json"], 1),  # an empty norm
])
def test_errors_reach_main_as_one_line(tmp_path, monkeypatch, capsys, args, code):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "empty.jsonl").write_text("")
    for name, doc in BAD_INPUTS.items():
        (tmp_path / name).write_text(json.dumps(doc) + "\n")
    assert run(args) == code
    assert one_error_line(capsys)


def test_bench_rejects_unknown_init_before_flying(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("NEOTRAJ_WORKERS", "1")  # in-process, so the counter sees every episode
    flown = []
    real_run_episode = cli.run_episode

    def counting(*args, **kwargs):
        flown.append(1)
        return real_run_episode(*args, **kwargs)

    monkeypatch.setattr(cli, "run_episode", counting)
    assert run(["bench", "--scenes", "4", "--runs", 1, "--inits", "baseline,foo",
                "--out-dir", tmp_path / "b"]) == 1
    assert one_error_line(capsys)
    assert flown == []


def test_bench_rejects_a_model_that_does_not_fit_m_pieces(tmp_path, monkeypatch, capsys):
    # the committed model emits 3-piece plans (7 outputs); m_pieces 4 needs 10
    monkeypatch.setenv("NEOTRAJ_WORKERS", "1")  # in-process, so the counter sees every episode
    flown = []
    real_run_episode = cli.run_episode

    def counting(*args, **kwargs):
        flown.append(1)
        return real_run_episode(*args, **kwargs)

    monkeypatch.setattr(cli, "run_episode", counting)
    config = tmp_path / "m4.json"
    config.write_text(json.dumps({"m_pieces": 4}))
    assert run(["bench", "--config", config, "--scenes", "4", "5", "--runs", 1,
                "--inits", "baseline,neo", "--model", NEO_MODEL, "--out-dir", tmp_path / "b"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("error:") == 1 and "m_pieces=4 needs 10" in err
    assert flown == [] and not (tmp_path / "b").exists()


@pytest.mark.slow
def test_collect_train_bench_with_four_pieces(tmp_path, monkeypatch):
    # train sizes the network's head from the config, so a 4-piece pipeline runs through
    monkeypatch.setenv("NEOTRAJ_WORKERS", "1")
    config = tmp_path / "m4.json"
    config.write_text(json.dumps({"m_pieces": 4}))
    data, model = tmp_path / "m4.jsonl", tmp_path / "m4_model.json"
    assert run(["collect", "--config", config, "--scenes", "4", "--episodes", 1, "--seed", 3,
                "--out", data]) == 0
    assert run(["train", "--config", config, "--data", data, "--epochs", 5, "--seed", 0,
                "--out", model]) == 0
    assert json.loads(model.read_text())["head_sizes"][-1] == 10
    out = tmp_path / "b"
    assert run(["bench", "--config", config, "--scenes", "4", "--runs", 1, "--inits", "neo",
                "--model", model, "--seed", 1, "--out-dir", out]) == 0
    episodes = [json.loads(line) for line in (out / "episodes.jsonl").read_text().splitlines()]
    assert len(episodes) == 1 and episodes[0]["replan_count"] > 0
    assert episodes[0]["failure_reason"] != "model_shape_mismatch"


FLY_NEO = ["fly", "--scene", "4", "--init", "neo"]
BENCH_NEO = ["bench", "--scenes", "4", "--runs", 1, "--inits", "neo", "--out-dir", "b"]


@pytest.mark.parametrize("command, config, why", [
    (FLY_NEO, {"n_rays": 32}, "n_rays=32 needs 32 depths"),
    (FLY_NEO, {"m_pieces": 4}, "m_pieces=4 needs 10"),
    (BENCH_NEO, {"n_rays": 32}, "n_rays=32 needs 32 depths"),
    (FLY_NEO, {"max_range": 4.0}, "trained with max_range=5.0, not 4.0"),
    (BENCH_NEO, {"max_range": 4.0}, "trained with max_range=5.0, not 4.0"),
], ids=["fly-n_rays", "fly-m_pieces", "bench-n_rays", "fly-max_range", "bench-max_range"])
def test_fly_and_bench_refuse_a_model_that_does_not_fit(tmp_path, monkeypatch, capsys, command,
                                                        config, why):
    # the committed model reads 64 depths of 5 m and plans 3 pieces (7 outputs); bench
    # with m_pieces 4 is test_bench_rejects_a_model_that_does_not_fit_m_pieces
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("NEOTRAJ_WORKERS", "1")
    flown = []
    monkeypatch.setattr(cli, "run_episode", lambda *args, **kwargs: flown.append(1))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert run([*command, "--config", path, "--model", NEO_MODEL]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("error:") == 1 and why in err
    assert flown == [] and sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


@pytest.mark.slow
def test_collect_train_bench_with_32_rays(tmp_path, monkeypatch):
    # train sizes the depth branch from n_rays, so a 32-ray pipeline runs through
    monkeypatch.setenv("NEOTRAJ_WORKERS", "1")
    config = tmp_path / "r32.json"
    config.write_text(json.dumps({"n_rays": 32}))
    data, model = tmp_path / "r32.jsonl", tmp_path / "r32_model.json"
    assert run(["collect", "--config", config, "--scenes", "4", "--episodes", 1, "--seed", 3,
                "--out", data]) == 0
    assert run(["train", "--config", config, "--data", data, "--epochs", 5, "--seed", 0,
                "--out", model]) == 0
    assert json.loads(model.read_text())["depth_sizes"][0] == 32
    out = tmp_path / "b"
    assert run(["bench", "--config", config, "--scenes", "4", "--runs", 1, "--inits", "neo",
                "--model", model, "--seed", 1, "--out-dir", out]) == 0
    episodes = [json.loads(line) for line in (out / "episodes.jsonl").read_text().splitlines()]
    assert len(episodes) == 1 and episodes[0]["replan_count"] > 0
    assert episodes[0]["failure_reason"] != "shape_mismatch"
    with open(out / "aggregate.csv") as fh:
        (row,) = list(csv.DictReader(fh))
    assert all(np.isfinite(float(row[k])) for k in ("success_rate", "avg_cost", "avg_iterations"))


@pytest.mark.parametrize("args", [
    ["gradcheck", "--trials", -3],
    ["scene", "--count", -2, "--out", "s.json"],
    ["latency", "--runs", 0, "--out", "lat.csv"],
    ["bench", "--runs", 0, "--out-dir", "b"],
    ["collect", "--episodes", 0, "--out", "d.jsonl"],
])
def test_count_flags_below_their_minimum_are_usage_errors(tmp_path, monkeypatch, capsys, args):
    monkeypatch.chdir(tmp_path)
    assert run(args) == 1
    assert "must be at least" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_bench_csv_quotes_a_scene_name(tmp_path, monkeypatch):
    monkeypatch.setenv("NEOTRAJ_WORKERS", "1")
    scene = tmp_path / "named.json"
    name = 'poles, "left"'
    SceneSpec(bounds=(-2.0, -3.0, 8.0, 3.0), obstacles=[(3.0, 2.0, 0.5)], start=(0.0, 0.0),
              goal=(6.0, 0.0), name=name).save(scene)
    out = tmp_path / "b"
    assert run(["bench", "--scenes", scene, "--runs", 1, "--inits", "baseline",
                "--out-dir", out]) == 0
    with open(out / "aggregate.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert [len(row) for row in rows] == [6, 6]
    assert rows[1][:2] == [name, "baseline"]
