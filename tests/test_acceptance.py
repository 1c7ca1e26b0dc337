"""Acceptance criteria, one test per criterion.

Each test prints one PASS line with its measured numbers (run with -s to
see them).  The expensive artifacts (expert dataset, trained model, the
benchmark grid) are session-scoped fixtures shared across criteria.
"""

import json
import os
import time

import numpy as np
import pytest

from conftest import random_instance
from neotraj.cli import main as cli_main
from neotraj.initializers import InitStrategy, expert_plan
from neotraj.minco import BoundaryState, TrajParams, solve_coeffs
from neotraj.objective import control_effort
from neotraj.replan import run_episode
from neotraj.config import RunConfig
from neotraj.world import GridWorld, SceneSpec, generate_scene

pytestmark = pytest.mark.acceptance

COLLECT_SEED = 1234
BENCH_SEED = 777


def run_cli(args):
    return cli_main([str(a) for a in args])


@pytest.fixture(scope="session")
def acceptance_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="session")
def dataset_path(acceptance_dir):
    path = acceptance_dir / "expert.jsonl"
    assert run_cli(["collect", "--scenes", "4", "--episodes", 30,
                    "--seed", COLLECT_SEED, "--out", path]) == 0
    return path


@pytest.fixture(scope="session")
def model_path(acceptance_dir, dataset_path):
    path = acceptance_dir / "model.json"
    t0 = time.perf_counter()
    assert run_cli(["train", "--data", dataset_path, "--epochs", 800,
                    "--seed", 0, "--out", path]) == 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0, f"training took {elapsed:.0f}s, budget is 10 min"
    return path


@pytest.fixture(scope="session")
def bench_grid(acceptance_dir, model_path):
    """Presets 4-9, 20 episodes each, baseline vs neural on paired worlds."""
    out = acceptance_dir / "grid"
    assert run_cli(["bench", "--scenes", "4", "5", "6", "7", "8", "9",
                    "--runs", 20, "--inits", "baseline,neo",
                    "--model", model_path, "--seed", BENCH_SEED,
                    "--out-dir", out]) == 0
    episodes = [json.loads(line) for line in (out / "episodes.jsonl").read_text().splitlines()]
    return episodes


def pooled_iterations(episodes, scene, strategy):
    return [it for e in episodes if e["scene"] == scene and e["strategy"] == strategy
            for it in e["iterations"]]


def success_rate(episodes, scene, strategy):
    group = [e for e in episodes if e["scene"] == scene and e["strategy"] == strategy]
    return sum(e["success"] for e in group) / len(group), len(group)


def test_criterion_1_gradient_correctness(capsys):
    t0 = time.perf_counter()
    code = run_cli(["gradcheck", "--trials", 100, "--seed", 2026])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    assert code == 0, out
    assert elapsed < 60.0
    print(f"ACCEPTANCE 1 (gradient correctness): PASS - {out.strip()} in {elapsed:.1f}s")


def test_criterion_2_minco_exactness(rng):
    # residuals on 100 random instances
    def poly_eval(c, t, order=0):
        p = np.poly1d(c[::-1])
        for _ in range(order):
            p = np.polyder(p)
        return p(t)

    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(1, 5))
        init, target, params = random_instance(rng, m=m)
        traj = solve_coeffs(init, target, params)
        for d in range(2):
            for k in range(3):
                worst = max(worst, abs(poly_eval(traj.coefficients[0][:, d], 0.0, k)
                                       - init.derivative(k)[d]))
                worst = max(worst, abs(poly_eval(traj.coefficients[-1][:, d],
                                                 params.durations[-1], k)
                                       - target.derivative(k)[d]))
            for i in range(1, m):
                ti = params.durations[i - 1]
                left = traj.coefficients[i - 1][:, d]
                right = traj.coefficients[i][:, d]
                worst = max(worst, abs(poly_eval(left, ti) - params.waypoints[d, i - 1]))
                worst = max(worst, abs(poly_eval(right, 0.0) - params.waypoints[d, i - 1]))
                for k in range(1, 5):
                    worst = max(worst, abs(poly_eval(left, ti, k) - poly_eval(right, 0.0, k)))
    assert worst < 1e-8

    # optimality: 100 null-space perturbations never reduce the effort
    import scipy.linalg
    from test_minco import effort_by_quadrature, feasible_constraint_matrix

    init, target, params = random_instance(rng, m=3)
    traj = solve_coeffs(init, target, params)
    base = effort_by_quadrature(traj)
    null = scipy.linalg.null_space(feasible_constraint_matrix(params, m=3))
    flat = np.vstack(traj.coefficients)
    min_gain = np.inf
    for _ in range(100):
        delta = null @ rng.normal(size=(null.shape[1], 2))
        delta *= 1e-3 / np.linalg.norm(delta)
        from neotraj.minco import Trajectory

        pert = Trajectory([flat[6 * i: 6 * (i + 1)] + delta[6 * i: 6 * (i + 1)]
                           for i in range(3)], params.durations)
        min_gain = min(min_gain, effort_by_quadrature(pert) - base)
    assert min_gain >= -1e-9

    # closed-form min-jerk effort
    d, T = 2.5, 1.7
    quintic = solve_coeffs(BoundaryState([0.0], [0.0]), BoundaryState([d], [0.0]),
                           TrajParams(np.zeros((1, 0)), [T]))
    cost, _, _ = control_effort(quintic)
    rel = abs(cost - 720 * d * d / T**5) / (720 * d * d / T**5)
    assert rel < 1e-9
    print(f"ACCEPTANCE 2 (minco exactness): PASS - residual {worst:.2e}, "
          f"worst perturbation gain {min_gain:.2e}, closed-form rel err {rel:.2e}")


def test_criterion_3_warm_start_benefit(acceptance_dir, dataset_path, model_path):
    n_records = len(dataset_path.read_text().splitlines())
    assert n_records >= 500, f"only {n_records} expert samples"

    out = acceptance_dir / "warmstart"
    assert run_cli(["bench", "--scenes", "4", "--runs", 10,
                    "--inits", "baseline,neo", "--model", model_path,
                    "--seed", BENCH_SEED, "--out-dir", out]) == 0
    episodes = [json.loads(line) for line in (out / "episodes.jsonl").read_text().splitlines()]
    base = pooled_iterations(episodes, "scene4", "baseline")
    neo = pooled_iterations(episodes, "scene4", "neural")
    assert len(base) + len(neo) >= 200, "need at least 200 replanning problems"
    ratio = np.mean(neo) / np.mean(base)
    assert ratio <= 0.9, f"iteration ratio {ratio:.3f} > 0.9"
    print(f"ACCEPTANCE 3 (warm-start benefit): PASS - {n_records} samples, "
          f"{len(base)}+{len(neo)} replans, iterations {np.mean(neo):.2f} vs "
          f"{np.mean(base):.2f} (ratio {ratio:.3f})")


def test_criterion_4_generalization(bench_grid):
    wins = 0
    details = []
    for preset in (5, 6, 7, 8, 9):
        scene = f"scene{preset}"
        base = float(np.mean(pooled_iterations(bench_grid, scene, "baseline")))
        neo = float(np.mean(pooled_iterations(bench_grid, scene, "neural")))
        sb, nb = success_rate(bench_grid, scene, "baseline"), success_rate(bench_grid, scene, "neural")
        assert nb[1] == 20 and sb[1] == 20
        assert nb[0] >= sb[0] - 0.1, f"{scene}: success {nb[0]:.2f} < baseline {sb[0]:.2f} - 0.1"
        wins += neo <= base
        details.append(f"{scene}: {neo:.1f} vs {base:.1f} it, success {nb[0]:.2f}/{sb[0]:.2f}")
    assert wins >= 4, f"NEO beat baseline iterations on only {wins}/5 presets"
    print(f"ACCEPTANCE 4 (generalization): PASS - {wins}/5 presets; " + "; ".join(details))


def test_criterion_5_multimodality():
    world = GridWorld(SceneSpec(obstacles=[(3.0, 0.0, 1.0)]))
    init = BoundaryState([0.0, 0.0], [0.0, 0.0])
    target = BoundaryState([6.0, 0.0], [0.0, 0.0])
    result, chosen, costs = expert_plan(world, init, target)
    spread = (max(costs) - min(costs)) / min(costs)
    assert spread > 0.05, f"seed costs {costs} differ by only {spread:.1%}"
    assert result.cost <= min(costs) + 1e-3
    assert costs[chosen] <= min(costs) + 1e-3
    print(f"ACCEPTANCE 5 (multimodality): PASS - seed costs "
          f"{[round(c, 2) for c in costs]}, chosen index {chosen}")


def test_criterion_6_latency_tolerance(acceptance_dir):
    out = acceptance_dir / "latency.csv"
    assert run_cli(["latency", "--scenes", "1", "2", "3", "--runs", 10,
                    "--latency", 0.8, "--foresee", "0,1.0",
                    "--seed", 5, "--out", out]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "scene,metric,foresee_0,foresee_1"
    assert len(lines) == 7  # 3 scenes x (position + velocity)
    gaps = []
    for line in lines[1:]:
        scene, metric, without, with_f = line.split(",")
        without, with_f = float(without), float(with_f)
        assert with_f <= 0.7 * without, f"{scene} {metric}: {with_f} vs {without}"
        gaps.append(with_f / without)

    # commanded-position continuity whenever latency <= foreseeing horizon
    rc = RunConfig.from_dict({"latency": 0.8, "foresee": 1.0})
    world = GridWorld(generate_scene(preset=1, seed=0))
    rep = run_episode(world, InitStrategy("geo"), rc, seed=0)
    bound = rc.penalty.v_max * (1.0 / 60.0) * 2.0 + 1e-6
    assert rep.max_command_jump < bound
    print(f"ACCEPTANCE 6 (latency tolerance): PASS - RMSE ratios "
          f"{[round(g, 3) for g in gaps]}, max command jump "
          f"{rep.max_command_jump:.4f} < {bound:.4f}")


def test_criterion_7_success_rate(bench_grid):
    rates = []
    for preset in (4, 5, 6, 7, 8, 9):
        rate, n = success_rate(bench_grid, f"scene{preset}", "neural")
        assert n == 20
        rates.append(rate)
    avg = float(np.mean(rates))
    assert avg >= 0.8, f"NEO success averaged {avg:.3f} over presets 4-9"
    print(f"ACCEPTANCE 7 (success rate): PASS - per-preset "
          f"{[round(r, 2) for r in rates]}, average {avg:.3f}")


def test_criterion_8_determinism(acceptance_dir, model_path):
    env = os.environ
    outs = []
    for tag, workers in (("w1", "1"), ("w2", "2")):
        out = acceptance_dir / f"det_{tag}"
        env["NEOTRAJ_WORKERS"] = workers
        assert run_cli(["bench", "--scenes", "6", "--runs", 2,
                        "--inits", "baseline,neo", "--model", model_path,
                        "--seed", 99, "--out-dir", out]) == 0
        outs.append(out)
    env.pop("NEOTRAJ_WORKERS")
    assert (outs[0] / "aggregate.csv").read_bytes() == (outs[1] / "aggregate.csv").read_bytes()
    assert (outs[0] / "episodes.jsonl").read_bytes() == (outs[1] / "episodes.jsonl").read_bytes()

    s1, s2 = acceptance_dir / "s1.json", acceptance_dir / "s2.json"
    assert run_cli(["scene", "--preset", 7, "--seed", 4, "--out", s1]) == 0
    assert run_cli(["scene", "--preset", 7, "--seed", 4, "--out", s2]) == 0
    assert s1.read_bytes() == s2.read_bytes()

    l1, l2 = acceptance_dir / "l1.csv", acceptance_dir / "l2.csv"
    for path in (l1, l2):
        assert run_cli(["latency", "--scenes", "1", "--runs", 1, "--latency", 0.8,
                        "--foresee", "0,1.0", "--seed", 8, "--out", path]) == 0
    assert l1.read_bytes() == l2.read_bytes()
    print("ACCEPTANCE 8 (determinism): PASS - byte-identical bench (1 vs 2 workers), "
          "scene and latency outputs")
