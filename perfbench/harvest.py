"""Harvest the frozen plan-set problem file.

Run once from the root of the repository:

    python3 perfbench/harvest.py

It flies geo episodes on fixed-seed worlds of presets 4-9, records every
replanning problem the episode loop poses (the world's obstacles verbatim,
the boundary states handed to the planner and the drone pose the neo
observation is built from), keeps PER_EPISODE evenly spaced problems of
each episode and writes perfbench/data/plan_set.json.  The output depends
only on the package and the constants below.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import common  # noqa: E402  (sets thread limits before numpy loads)

HARVEST_SEED = 4242
PRESETS = (4, 5, 6, 7, 8, 9)
EPISODES_PER_PRESET = 2
PER_EPISODE = 9  # 6 presets x 2 episodes x 9 = 108 problems


def _state(s, with_acc=True) -> dict:
    d = {"p": [float(v) for v in s.position], "v": [float(v) for v in s.velocity]}
    if with_acc:
        d["a"] = [float(v) for v in s.acceleration]
    return d


def harvest_episode(world, setup, seed: int) -> list[dict]:
    """Fly one geo episode and return every replanning problem it posed."""
    from neotraj import replan
    from neotraj.initializers import InitStrategy

    problems: list[dict] = []
    pose: dict = {}
    heading_of, plan = replan._heading_of, replan.plan

    def record_heading(vel, pos, goal):
        h = heading_of(vel, pos, goal)
        pose.update(p=[float(v) for v in pos], v=[float(v) for v in vel], heading=float(h))
        return h

    def record_plan(s_init, s_target, *args, **kwargs):
        problems.append({"init": _state(s_init), "target": _state(s_target, False),
                         "pose": dict(pose)})
        return plan(s_init, s_target, *args, **kwargs)

    replan._heading_of, replan.plan = record_heading, record_plan
    try:
        report = replan.run_episode(world, InitStrategy("geo"), setup, seed=seed)
    finally:
        replan._heading_of, replan.plan = heading_of, plan
    print(f"  {world.spec.name} seed {seed}: {len(problems)} replans, "
          f"success={report.success} {report.failure_reason}", flush=True)
    return problems


def main() -> int:
    common.import_neotraj()
    from neotraj.replan import derive_seed
    from neotraj.world import GridWorld, generate_scene

    rc, setup = common.episode_setup()
    worlds, problems = [], []
    for preset in PRESETS:
        for k in range(EPISODES_PER_PRESET):
            seed = derive_seed(HARVEST_SEED, preset * 100 + k)
            spec = generate_scene(preset=preset, seed=seed)
            posed = harvest_episode(GridWorld(spec, rc.resolution), setup, seed)
            if len(posed) < PER_EPISODE:
                raise SystemExit(f"{spec.name} seed {seed}: only {len(posed)} replans")
            step = len(posed) / PER_EPISODE
            for j in range(PER_EPISODE):
                problems.append({**posed[int(j * step)], "world": len(worlds)})
            worlds.append(spec.to_dict())
    doc = {
        "format": common.PLAN_SET_FORMAT,
        "made_by": "python3 perfbench/harvest.py",
        "worlds": worlds,
        "problems": problems,
    }
    with open(common.PLAN_SET_PATH, "w") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")
    print(f"wrote {common.PLAN_SET_PATH}: {len(problems)} problems on {len(worlds)} worlds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
