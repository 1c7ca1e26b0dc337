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

perfbench is imported read-only: its set-up pins one BLAS thread for this
process and every command it starts.  Takes 2-2.5 minutes on 2 cores.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
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


def decisions_digests() -> list[tuple[str, str]]:
    """(label, SHA-256) of one plan-set pass in problem order: all decisions, then each init's."""
    ws = workloads.PlanSet()
    ws.setup()
    labels = ["decisions"] + [f"decisions.{init}" for init in workloads.INITS]
    hashes = {label: hashlib.sha256() for label in labels}
    counts = dict.fromkeys(labels, 0)
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
    return [(f"{label}[{counts[label]}]", hashes[label].hexdigest()) for label in labels]


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


def main() -> int:
    for label, digest in decisions_digests():
        print(f"{label} {digest}", flush=True)
    with tempfile.TemporaryDirectory() as tmp:
        for label, digest in command_digests(Path(tmp)):
            print(f"{label} {digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
