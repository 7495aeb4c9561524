"""One fresh interpreter of a benchmark run.

``run.py`` starts this script several times per run.  Every start imports
``marketcells`` from the checkout's ``src``, builds the workload's inputs
and runs the warm-up; its set-up time is measured from the moment
``run.py`` spawned it.  With ``--setup-only`` it stops there.  Otherwise
it runs whole rounds of the workload's operations until the next round
would overrun ``--seconds``, then, with ``--trace 1``, one more round
under the span tracer.  Last it checks the first round's outputs and
that every later round gave the same ones.  A check that fails on an
operation the workload names as a known fault of the program counts that
operation as failed in every round, instead of making the run incorrect.
It prints one JSON object on its last line of standard output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"


def import_program() -> float:
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import marketcells

    import_s = time.perf_counter() - t0
    where = Path(marketcells.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"marketcells was imported from {where}, not from {SRC}")
    return import_s


def _fingerprint(out):
    """Comparable digest of an operation's output, for the determinism check."""
    if isinstance(out, Exception):
        return ("error", type(out).__name__)
    if isinstance(out, str):
        return hashlib.sha256(out.encode()).hexdigest()
    if isinstance(out, (list, tuple)):
        return tuple(_fingerprint(o) for o in out)
    if isinstance(out, dict):
        return tuple(sorted((k, _fingerprint(v)) for k, v in out.items()))
    prices = getattr(out, "prices", None)
    return prices.values if prices is not None else out


def _run_round(workload, stats) -> list:
    outputs = []
    op_s = []
    t_round = time.perf_counter()
    for label, op in workload.operations():
        t0 = time.perf_counter()
        try:
            out = op()
        except Exception as exc:  # an operation failure is counted, not fatal
            sys.stderr.write(f"{workload.name} {label} failed:\n{traceback.format_exc()}")
            out = exc
            stats["failed"] += 1
        op_s.append(time.perf_counter() - t0)
        stats["attempted"] += 1
        outputs.append(out)
    stats["round_s"].append(time.perf_counter() - t_round)
    stats["op_s"].append(op_s)
    return outputs


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import_s = import_program()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, OUT)
    workload.build()
    workload.warmup()
    setup_s = time.monotonic() - args.spawned_at
    result = {"setup_s": setup_s, "import_s": import_s}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    stats = {"attempted": 0, "failed": 0, "op_s": [], "round_s": []}
    # round 1's outputs are kept for the checks; every round, round 1
    # included, leaves a digest of its outputs for the determinism check
    first = None
    digests = []
    cpu0 = time.process_time()
    t_start = time.perf_counter()
    while True:
        outputs = _run_round(workload, stats)
        digests.append([_fingerprint(o) for o in outputs])
        first = outputs if first is None else first
        elapsed = time.perf_counter() - t_start
        if elapsed + statistics.fmean(stats["round_s"]) > args.seconds:
            break
    cpu_per_round = (time.process_time() - cpu0) / len(digests)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # each operation at its median over the rounds: a burst of load on the
    # host that hits a few rounds moves it little
    per_op = [statistics.median(t) for t in zip(*stats["op_s"])]
    wall_s = math.fsum(per_op)
    result.update(
        wall_s=wall_s,
        op_p50_ms=statistics.median(per_op) * 1e3,
        peak_rss_mb=peak_rss_mb,
        rounds=len(digests),
        cpu_s=cpu_per_round,
    )

    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            outputs = _run_round(workload, stats)
        finally:
            tracer.uninstall()
        result["trace_overhead_s"] = stats["round_s"][-1] - wall_s
        result["layers"] = tracer.metrics()
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json")
        digests.append([_fingerprint(o) for o in outputs])

    failures = workload.check(first)
    for k, digest in enumerate(digests[1:], start=2):
        if digest != digests[0]:
            failures.append(f"round {k} gave other outputs than round 1")
    for line in failures:
        sys.stderr.write(f"check failed: {line}\n")
    for label in workload.faulted:
        sys.stderr.write(f"known fault: {label}: {workload.known_faults[label]}\n")
    # every round repeats round 1's outputs, so a known fault fails in each
    failed = stats["failed"] + len(workload.faulted) * len(digests)
    result.update(correct=not failures, attempted=stats["attempted"], failed=failed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
