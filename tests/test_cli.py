"""Command-line interface: flags, outputs, determinism, exit codes."""

import csv
import json
import os

import numpy as np
import pytest

from neotraj import cli
from neotraj.cli import main
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


def test_collect_deterministic(tmp_path):
    d1, d2 = tmp_path / "d1.jsonl", tmp_path / "d2.jsonl"
    for d in (d1, d2):
        assert run(["collect", "--scenes", "4", "--episodes", 1, "--seed", 9, "--out", d]) == 0
    assert d1.read_bytes() == d2.read_bytes()


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
])
def test_errors_reach_main_as_one_line(tmp_path, monkeypatch, capsys, args, code):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "empty.jsonl").write_text("")
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
