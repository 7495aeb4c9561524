#!/usr/bin/env python3
"""Benchmark of the marketcells equilibrium engine.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: plane-eq, brand-eq, audit, cells-large (see bench/README.md).
Each run starts fresh single-threaded interpreters (bench/worker.py):
one that also runs the timed rounds, and before and after it one that
only sets up, for the median set-up time of all three.  With ``--trace 0``
the last line of standard output is the JSON result with the end-to-end
metrics; with ``--trace 1`` it carries the per-layer metrics of one
extra traced round.  The result is also written to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("plane-eq", "brand-eq", "audit", "cells-large")
SETUP_SAMPLES = 1  # set-up-only workers before the timed one, and as many after
DEADLINE_S = 170.0

# One BLAS/OpenMP thread: numpy would otherwise start a pool per core.
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def _worker(args, started: float, setup_only: bool) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(CHILD_ENV)
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    timeout = DEADLINE_S - (time.monotonic() - started)
    if timeout <= 0:
        raise RuntimeError("benchmark deadline passed")
    spawned_at = time.monotonic()
    proc = subprocess.run(
        cmd + ["--spawned-at", repr(spawned_at)],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        timeout=timeout,
        text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main() -> int:
    started = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "marketcells" / "__init__.py").is_file():
        sys.stderr.write(f"no marketcells sources under {ROOT / 'src'}\n")
        return 2
    OUT.mkdir(exist_ok=True)
    try:
        setups = [_worker(args, started, True) for _ in range(SETUP_SAMPLES)]
        run = _worker(args, started, False)
        setups += [_worker(args, started, True) for _ in range(SETUP_SAMPLES)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        sys.stderr.write(f"benchmark run failed: {exc}\n")
        return 1
    setups.append(run)

    if args.trace:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in run["layers"].items()}
        metrics["proc.import_s"] = {
            "value": statistics.median(s["import_s"] for s in setups), "unit": "s"
        }
        metrics["proc.cpu_s"] = {"value": run["cpu_s"], "unit": "s"}
        metrics["trace.overhead_s"] = {"value": run["trace_overhead_s"], "unit": "s"}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(s["setup_s"] for s in setups), "unit": "s"},
            "wall_s": {"value": run["wall_s"], "unit": "s"},
            "op_p50_ms": {"value": run["op_p50_ms"], "unit": "ms"},
            "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"},
        }
    result = {
        "correct": run["correct"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }
    line = json.dumps(result)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        line + "\n"
    )
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
