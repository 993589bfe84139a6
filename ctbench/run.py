"""ctlab benchmark: one workload per run, metrics as one JSON line.

Usage (from the root of a checkout):

    python3 ctbench/run.py --workload comm-deep --seed 1 --seconds 20 --trace 0

A run measures set-up in fresh processes, then repeats whole rounds until
``--seconds`` have passed.  A round builds the workload's geometries, takes
every geometry from sample points to serialised report JSON, then checks
every row and runs the independent checks (untimed).  With ``--trace 0``
the run reports the end-to-end metrics, with ``--trace 1`` the per-layer
metrics of the traced rounds, and writes the spans of the first traced
round to ``ctbench/out/``.  The last line of standard output is the JSON
result.  See ctbench/README.md.
"""

from __future__ import annotations

import env  # noqa: F401  (caps BLAS threads and sets sys.path; before numpy)

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import spans
import workloads

SETUP_PROBES = 3
PROBE = Path(__file__).resolve().parent / "setup_probe.py"


def probe_setup(workload: str, seed: int) -> list[float]:
    """Set-up time of the workload in fresh processes, as a user pays it."""
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run([sys.executable, str(PROBE), workload, str(seed)],
                              capture_output=True, text=True, timeout=150)
        if done.returncode != 0:
            sys.exit(f"set-up probe failed:\n{done.stderr}")
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


class Round(NamedTuple):
    verify_s: float
    attempted: int
    failed: int
    messages: list[str]
    layers: dict | None  # per-layer metrics of a traced round


def run_round(workload: str, seed: int, tracer) -> Round:
    if tracer:
        tracer.reset()
        tracer.on = True
    jobs = workloads.setup(workload, seed)
    if tracer:
        for job in jobs:
            job.records = tracer.wrap_records(
                job.records,
                "conformal.evaluate" if job.pair else "identities.evaluate")
    msgs = []
    t0 = time.perf_counter()
    for job in jobs:
        try:
            workloads.verify_job(job)
        except Exception as err:  # the job's rows stay missing: all fail
            msgs.append(f"{job.geometry.name}: {type(err).__name__}: {err}")
    verify_s = time.perf_counter() - t0
    layers = None
    if tracer:
        tracer.on = tracer.recording = False
        layers = spans.layer_metrics(tracer)
    attempted = failed = 0
    for job in jobs:
        a, f, m = workloads.check_job(job)
        attempted += a
        failed += f
        msgs += m
    del jobs
    gc.collect()
    return Round(verify_s, attempted, failed, msgs, layers)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not args.trace:
        setup_times = probe_setup(args.workload, args.seed)
    # One untimed set-up first, so every timed round starts equally warm.
    workloads.setup(args.workload, args.seed)
    gc.collect()

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        uninstall = spans.instrument(tracer)
        tracer.recording = True

    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < args.seconds:
        rounds.append(run_round(args.workload, args.seed, tracer))
        if len(rounds) == 1:
            # Peak memory of one pass.  Memory a round frees comes back
            # fragmented, so the high-water mark creeps up with each
            # further round and would depend on the round count.
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        r = rounds[-1]
        print(f"round {len(rounds)}: verify {r.verify_s:.3f} s, "
              f"{r.failed} failed of {r.attempted}", flush=True)
        for msg in r.messages:
            print("  FAIL " + msg, flush=True)
    if tracer:
        uninstall()

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    verify = [r.verify_s for r in rounds]
    if tracer:
        metrics = {n: {"value": statistics.median(r.layers[n] for r in rounds),
                       "unit": spans.unit(n)} for n in rounds[0].layers}
        env.OUT.mkdir(exist_ok=True)
        out = env.OUT / f"trace-{args.workload}-seed{args.seed}.json"
        out.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed,
            "traced_verify_s": verify,
            "span_fields": ["id", "parent", "name", "start_s", "dur_s"],
            "spans": tracer.spans,
        }))
        print(f"traced verify_s per round: {[round(v, 3) for v in verify]}; "
              f"{len(tracer.spans)} spans of round 1 in {out}")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "verify_s": {"value": statistics.median(verify), "unit": "s"},
            "peak_rss_mb": {"value": peak_kb / 1024, "unit": "MB"},
        }
        print(f"setup_s probes {[round(t, 4) for t in setup_times]}; "
              f"verify_s rounds {[round(v, 4) for v in verify]}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
