"""Benchmark entry point.

    python3 perfbench/run.py --workload plan-set --seed 1 --seconds 45 --trace 0

Run from the root of a checkout; it measures the checkout's own src/neotraj.
With --trace 0 it reports the end-to-end metrics of the workload, with
--trace 1 the per-layer metrics of a traced pass and the tracing overhead.
It prints a table (metric, value, unit, n), a machine record, and as its last
line one JSON object {"correct", "attempted", "failed", "metrics"}.  The JSON
metrics are the `end_to_end` (--trace 0) or `per_layer` (--trace 1) list of
BENCHMARK.json, the same on every workload; the table has the workload's own
metrics besides.  The exit code is 1 when a correctness check failed or an
end-to-end metric could not be measured, and 2 when the set-up failed (then
no result is printed).  See perfbench/README.md for every metric.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import common  # noqa: E402  (sets thread limits before numpy loads)
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 4  # fresh interpreters timed besides this one; setup_s is the median
PASS_CAP_S = 150.0  # never start a pass that would end the run past this


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be >= 1")
    return args


def manifest_metrics(trace: int) -> list[str]:
    """Names of the metrics the JSON line must hold, from BENCHMARK.json."""
    with open(common.ROOT / "BENCHMARK.json") as fh:
        doc = json.load(fh)
    return [m["name"] for m in doc["per_layer" if trace else "end_to_end"]]


def setup_samples(workload: str) -> list[float]:
    """Set-up seconds of SETUP_PROBES fresh interpreters."""
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload],
            cwd=common.ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def machine() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name', '?')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError, AttributeError):
        vendor = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": vendor,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def timed_passes(w, seed: int, seconds: float, ledger):
    """Passes for `seconds`: the workload's minimum of whole passes, then
    passes that stop at the deadline (`w.cut_at_deadline`) or whole passes
    while the next one is projected to end before it."""
    passes, walls = [], []
    deadline = time.perf_counter() + min(seconds, PASS_CAP_S)
    while True:
        cut = deadline if w.cut_at_deadline and len(passes) >= w.min_passes else None
        t = time.perf_counter()
        passes.append(w.run_pass(len(passes), seed, ledger, deadline=cut))
        walls.append(time.perf_counter() - t)
        now = time.perf_counter()
        if len(passes) >= w.min_passes and (
                now >= deadline
                or (not w.cut_at_deadline and now + statistics.fmean(walls) > deadline)):
            return passes, walls


def main(argv=None) -> int:
    args = parse_args(argv)
    w = workloads.WORKLOADS[args.workload]()
    try:
        required = manifest_metrics(args.trace)
        w.setup()
        setup = [time.perf_counter() - T0] + setup_samples(args.workload)
    except (common.SetupError, ImportError, OSError, KeyError, ValueError,
            subprocess.SubprocessError) as exc:
        print(f"set-up failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2

    ledger = workloads.Ledger()
    try:
        passes, walls = timed_passes(w, args.seed, args.seconds, ledger)
        rows = []  # (metric, value, unit, n)
        if args.trace:
            tracer = tracing.Tracer()
            values = w.traced(tracer, args.seed, ledger, passes, walls)
            w.check_passes(passes, ledger)
            for name in dict.fromkeys(required + tracing.WORKLOAD_LAYERS[args.workload]):
                if name not in values:
                    needs = tracing.LAYER_METRICS[name][1]
                    gone = sorted(tracer.missing.intersection(needs))
                    print(f"  {name:<30} MISSING" + (f" (hook target gone: {gone})" if gone else ""))
            for name, (value, n) in values.items():
                rows.append((name, value, tracing.LAYER_METRICS[name][0], n))
        else:
            w.check_passes(passes, ledger)
            rows.append(("setup_s", statistics.median(setup), "s", len(setup)))
            try:
                rows += [(k, v, unit, n) for k, (v, unit, n) in w.metrics(passes).items()]
            except (ValueError, ZeroDivisionError, IndexError):
                print("no end-to-end metrics: too many operations failed", file=sys.stderr)
    finally:
        w.close()

    rows.append(("error_rate", ledger.failed / max(ledger.attempted, 1), "ratio", ledger.attempted))
    for name, value, unit, n in rows:
        print(f"  {name:<30} {value:>14.6g} {unit:<6} n={n}")
    for kind, count in sorted(ledger.errors.items()):
        print(f"  errors[{kind}] = {count}")
    print(f"passes {len(passes)} walls_s {[round(x, 3) for x in walls]} "
          f"setup_s {[round(x, 4) for x in setup]}")
    print("machine " + json.dumps(machine(), sort_keys=True))
    # error_rate is 0 on a healthy run, so it travels as attempted/failed
    metrics = {name: {"value": value, "unit": unit}
               for name, value, unit, _ in rows if name in required}
    unmeasured = [] if args.trace else [name for name in required if name not in metrics]
    if unmeasured:
        print(f"end-to-end metrics not measured: {unmeasured}", file=sys.stderr)
    correct = not ledger.check_failures and not unmeasured
    print(json.dumps({"correct": correct, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
