"""SHA-256 fingerprint of the planner's deterministic outputs.

Prints one line per item, `<label> <sha256>`:

- `decisions`: every decision of a perfbench plan-set pass (baseline, geo and
  neo on each frozen problem, the expert on every third: 360 decisions),
  hashed in problem order over the waypoints, durations, coefficients, cost,
  iterations, line-search evaluations and the converged flag;
- `decisions.<init>`: the same hash over one initializer's decisions only, so
  a mismatch names the initializer that moved;
- `<command>/<file>`: each file that a fixed list of CLI commands writes
  into a temporary directory, and the stdout of the commands whose stdout
  holds no wall time.

Two commits plan bitwise alike when their fingerprints are equal.  Run it
from each checkout (copy this file into the older one) and diff the output:

    python tools/fingerprint.py > fingerprint.txt

When they differ, a decision diff shows what moved.  `--dump FILE` runs the
plan-set pass only, prints its `decisions` lines and writes one JSON line per
decision: problem, init, cost, iterations, ls_evals, converged and the minimum
clearance over the objective's kappa+1 samples of each piece.  `--compare A B`
reads two dumps and prints how many decisions changed, the pooled change of
iterations and ls_evals per initializer, the relative cost change (p50, p95,
max) and every decision whose converged flag or clearance class (below 0,
below drone_radius, clear) flipped:

    python tools/fingerprint.py --dump before.jsonl    # in the older checkout
    python tools/fingerprint.py --dump after.jsonl
    python tools/fingerprint.py --compare before.jsonl after.jsonl

`--calls` counts interpreter work instead of timing it, so two commits compare
on any host: it prints the `sys.setprofile` `call` and `c_call` events of
plan-set's baseline decisions on problems 0-35 (solver and initializer
included) per objective evaluation, then the 15 functions with the most events
per evaluation: a Python function as `<file>:<name>` (the file relative to the
checkout or to site-packages), a C function by its qualname.  The counts
repeat exactly.

perfbench is imported read-only: its set-up pins one BLAS thread for this
process and every command it starts.  Takes 2-2.5 minutes on 2 cores; a dump
takes about 10 s.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import common  # noqa: E402  (sets the thread limits before numpy loads)
import numpy as np  # noqa: E402
import workloads  # noqa: E402

MODEL = str(common.MODEL_PATH)
BENCH = ["bench", "--scenes", "5", "8", "--runs", "1", "--inits", "baseline,geo,neo,expert",
         "--model", MODEL, "--seed", "777", "--out-dir", "out"]
FLY = ["fly", "--scene", "6", "--seed", "3", "--report", "report.json", "--log", "log.csv"]
# (label, NEOTRAJ_WORKERS, commands run in one directory, whether stdout is hashed);
# fly's stdout carries its mean plan wall time, so only its files are compared
COMMANDS = [
    ("bench-w1", "1", [BENCH], True),
    ("bench-w2", "2", [BENCH], True),
    # preset 1 is a fixed scene, whose later runs copy run 0's row, and preset 5 a drawn one
    ("bench-fixed", "2", [["bench", "--scenes", "1", "5", "--runs", "2", "--inits", "baseline,geo",
                           "--seed", "5", "--out-dir", "out"]], True),
    ("collect-train", "2", [
        ["collect", "--scenes", "4", "--episodes", "30", "--seed", "1234", "--out", "expert.jsonl"],
        ["train", "--data", "expert.jsonl", "--epochs", "30", "--seed", "0", "--out", "model.json"],
    ], True),
    # preset 1 is a fixed scene, flown at its first episode only, and preset 4 a drawn one
    ("collect-fixed", "2", [["collect", "--scenes", "1", "4", "--episodes", "4", "--seed", "3",
                             "--out", "fixed.jsonl"]], True),
    ("fly-geo", "1", [FLY + ["--init", "geo"]], False),
    ("fly-neo", "1", [FLY + ["--init", "neo", "--model", MODEL]], False),
    ("fly-expert", "1", [FLY + ["--init", "expert"]], False),
    # preset 1 is a fixed scene and preset 4 a drawn one, so both latency paths are hashed
    ("latency", "2", [["latency", "--scenes", "1", "4", "--runs", "2", "--latency", "0.8",
                       "--foresee", "0,1.0", "--seed", "8", "--out", "latency.csv"]], True),
    ("gradcheck-0", "1", [["gradcheck", "--trials", "100", "--seed", "0"]], True),
    ("gradcheck-2026", "1", [["gradcheck", "--trials", "100", "--seed", "2026"]], True),
]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def decisions() -> tuple[list[tuple[str, str]], list[dict]]:
    """One plan-set pass in problem order: (label, SHA-256) of all decisions, then of each
    init's, and one record per decision for --dump."""
    ws = workloads.PlanSet()
    ws.setup()  # puts the checkout's package on the path
    from neotraj.objective import sample_trajectory

    kappa = ws.es.penalty.kappa
    labels = ["decisions"] + [f"decisions.{init}" for init in workloads.INITS]
    hashes = {label: hashlib.sha256() for label in labels}
    counts = dict.fromkeys(labels, 0)
    records = []
    for pi, prob in enumerate(ws.problems):
        inits = workloads.INITS if pi % workloads.EXPERT_EVERY == 0 else workloads.INITS[:-1]
        for init in inits:
            r = ws.decide(init, prob)
            parts = [np.ascontiguousarray(a, dtype=np.float64).tobytes()
                     for a in (r.waypoints, r.durations, r.trajectory.coefficients)]
            parts.append(np.array([r.cost], dtype=np.float64).tobytes())
            parts.append(f"{init} {r.iterations} {r.ls_evals} {r.converged}\n".encode())
            for label in ("decisions", f"decisions.{init}"):
                hashes[label].update(b"".join(parts))
                counts[label] += 1
            positions = sample_trajectory(r.trajectory, kappa).values[0].reshape(-1, 2)
            clearance, _ = prob["world"].query_distance(positions)
            records.append({"problem": pi, "init": init, "cost": float(r.cost),
                            "iterations": int(r.iterations), "ls_evals": int(r.ls_evals),
                            "converged": bool(r.converged), "clearance": float(np.min(clearance))})
    digests = [(f"{label}[{counts[label]}]", hashes[label].hexdigest()) for label in labels]
    return digests, records


def _where(path: str) -> str:
    """A Python source file as --calls prints it: relative to the checkout or site-packages."""
    if path.startswith(str(ROOT) + os.sep):
        return os.path.relpath(path, ROOT)
    return path.rpartition("site-packages" + os.sep)[2]


def calls() -> tuple[Counter, int]:
    """(profile events per function, objective evaluations) of plan-set's baseline decisions
    on problems 0-35: every `call` and `c_call` event while a decision runs, keyed by a Python
    function's (file, name) or a C function's qualname."""
    ws = workloads.PlanSet()
    ws.setup()
    from neotraj import objective

    code = objective.total_objective.__code__
    codes, per_function = Counter(), Counter()

    def profile(frame, event, arg):
        if event == "call":
            codes[frame.f_code] += 1
        elif event == "c_call":
            per_function[getattr(arg, "__qualname__", repr(arg))] += 1

    for prob in ws.problems[:36]:
        sys.setprofile(profile)
        try:
            ws.decide("baseline", prob)
        finally:
            sys.setprofile(None)
    for c, n in codes.items():
        per_function[f"{_where(c.co_filename)}:{c.co_name}"] += n
    return per_function, codes[code]


def _read_dump(path) -> dict:
    with open(path) as fh:
        return {(r["problem"], r["init"]): r for r in map(json.loads, fh)}


def _clearance_class(clearance: float, radius: float) -> str:
    return "below 0" if clearance < 0 else "below drone_radius" if clearance < radius else "clear"


def compare(path_a, path_b) -> None:
    """Print what moved between two --dump files, decision by decision."""
    common.import_neotraj()
    radius = common.episode_setup()[0].replan.drone_radius
    a, b = _read_dump(path_a), _read_dump(path_b)
    keys = sorted(a.keys() & b.keys())
    changed = [k for k in keys if a[k] != b[k]]
    print(f"{len(changed)} of {len(keys)} decisions changed; "
          f"{len(a.keys() - b.keys())} only in A, {len(b.keys() - a.keys())} only in B")
    for init in workloads.INITS:
        ks = [k for k in keys if k[1] == init]
        if ks:
            moves = [f"{field} {sum(a[k][field] for k in ks)} -> {sum(b[k][field] for k in ks)} "
                     f"({sum(b[k][field] - a[k][field] for k in ks):+d})"
                     for field in ("iterations", "ls_evals")]
            print(f"{init}: {len(ks)} decisions, " + ", ".join(moves))
    if keys:
        rel = [abs(b[k]["cost"] - a[k]["cost"]) / abs(a[k]["cost"]) for k in keys]
        p50, p95 = np.percentile(rel, [50, 95])
        print(f"relative |cost change|: p50 {p50:.3g}, p95 {p95:.3g}, max {max(rel):.3g}")
    flips = 0
    for k in keys:
        ca, cb = (_clearance_class(d[k]["clearance"], radius) for d in (a, b))
        if a[k]["converged"] != b[k]["converged"] or ca != cb:
            flips += 1
            print(f"flipped: problem {k[0]} [{k[1]}]: converged {a[k]['converged']} -> "
                  f"{b[k]['converged']}, clearance {a[k]['clearance']:.3f} ({ca}) -> "
                  f"{b[k]['clearance']:.3f} ({cb})")
    print(f"{flips} decisions flipped their converged flag or clearance class")


def command_digests(tmp: Path) -> list[tuple[str, str]]:
    """(label, SHA-256) of every file and hashed stdout of the fixed commands."""
    out = []
    for label, workers, argvs, keep_stdout in COMMANDS:
        cwd = tmp / label
        cwd.mkdir()
        env = dict(os.environ, NEOTRAJ_WORKERS=workers, PYTHONPATH=str(ROOT / "src"))
        stdout = b""
        for argv in argvs:
            proc = subprocess.run([sys.executable, "-m", "neotraj", *argv], cwd=cwd, env=env,
                                  capture_output=True, check=False)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr.decode())
                raise SystemExit(f"{label}: {' '.join(argv)} exited {proc.returncode}")
            stdout += proc.stdout
        if keep_stdout:
            out.append((f"{label}/<stdout>", _sha(stdout)))
        for path in sorted(p for p in cwd.rglob("*") if p.is_file()):
            out.append((f"{label}/{path.relative_to(cwd)}", _sha(path.read_bytes())))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--dump", metavar="FILE", help="write the plan-set decisions to FILE")
    mode.add_argument("--compare", nargs=2, metavar=("A", "B"), help="diff two --dump files")
    mode.add_argument("--calls", action="store_true",
                      help="print profile events per objective evaluation")
    args = parser.parse_args(argv)
    if args.compare:
        compare(*args.compare)
        return 0
    if args.calls:
        per_function, evals = calls()
        events = sum(per_function.values())
        print(f"calls per evaluation {events / evals:.1f} ({events} events, {evals} evaluations)")
        for name, n in per_function.most_common(15):
            print(f"{n / evals:8.2f}  {name}")
        return 0
    digests, records = decisions()
    for label, digest in digests:
        print(f"{label} {digest}", flush=True)
    if args.dump:
        with open(args.dump, "w") as fh:
            fh.writelines(json.dumps(r, sort_keys=True) + "\n" for r in records)
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        for label, digest in command_digests(Path(tmp)):
            print(f"{label} {digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
