"""One measured process of the benchmark.

run.py starts this script in a fresh interpreter for every measurement, so
the engine's module-level caches start cold, as they do for a command-line
user.  The worker sets up one workload (imports nlflow from the checkout's
src/, builds the input pools and the first round), then runs whole rounds
of jobs in a closed loop (one client, one thread: a job starts when the
previous one has returned) until the jobs have taken --seconds and at
least MIN_JOBS jobs are done.  Only then are the outputs checked.  Every
job is followed by speed probes, and the reported job times are scaled to
a reference host speed (see speed.py); busy_s and raw_jobs_per_s are the
unscaled wall times.  setup_factor scales the set-up time the same way.

It prints one JSON line.  With --probe it stops after set-up.
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import nlflow  # noqa: E402

if Path(nlflow.__file__).resolve().parent.parent != SRC:
    sys.exit(f"nlflow was imported from {nlflow.__file__}, not from {SRC}")

import numpy  # noqa: E402

import speed  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Each run completes at least this many jobs, so at least ten samples lie
# beyond the 90th percentile.  The first rounds that reach it form the
# window: the same work in every run of a seed, however many rounds fit the
# time.  Peak memory and the traced per-layer numbers cover the window.
MIN_JOBS = 100


def peak_rss_mb() -> float:
    """High-water mark of this process's resident set (and of any child)."""
    kb = max(resource.getrusage(who).ru_maxrss
             for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return kb / 1024


def measure(workload, seed: int, seconds: float, tracer: Tracer | None):
    """Set up, run rounds until the job time reaches `seconds`, check."""
    if tracer is not None:
        tracer.install()
        tracer.recording = True
    pools = workload.setup(seed)
    batch = workload.round(pools, seed, 0)
    ready_at = time.monotonic()
    setup_factor = speed.setup_factor()
    if tracer is not None:
        tracer.start_window()

    window_rounds = math.ceil(MIN_JOBS / workload.round_size)
    done = []  # (job, output, error)
    times = []
    probe_times = []
    prober = speed.Prober()
    r = 0
    while True:
        for job in batch:
            start = time.perf_counter()
            try:
                if tracer is None:
                    out = job.run()
                else:
                    out = tracer.run_job(len(times), job.run)
                err = None
            except Exception as exc:  # a failed job is counted, not fatal
                out, err = None, exc
            times.append(time.perf_counter() - start)
            done.append((job, out, err))
            probe_times.append(prober.after_job(times[-1]))
        r += 1
        if r == window_rounds:
            window_rss_mb = peak_rss_mb()
            if tracer is not None:
                tracer.end_window()
        if sum(times) >= seconds and len(times) >= MIN_JOBS:
            break
        batch = workload.round(pools, seed, r)
    probe_times[-1] += prober.after_job(0.0, last=True)
    if tracer is not None:
        tracer.uninstall()

    failures = []
    for job, out, err in done:
        if err is None:
            try:
                if job.check(out):
                    continue
                err = "wrong answer"
            except Exception as exc:
                err = exc
        failures.append(f"{job.family.name}: {err!r}")

    scaled = speed.scale(times, probe_times)
    result = {
        "ready_at": ready_at,
        "setup_factor": setup_factor,
        "jobs": len(times),
        "rounds": r,
        "failed": len(failures),
        "failures": failures[:5],
        "busy_s": sum(times),
        "raw_jobs_per_s": len(times) / sum(times),
        "probe_us": 1e6 * statistics.median(p for ps in probe_times for p in ps),
        "jobs_per_s": len(scaled) / sum(scaled),
        "job_p50_ms": 1000 * statistics.median(scaled),
        "job_p90_ms": 1000 * statistics.quantiles(scaled, n=10)[8],
        "window_peak_rss_mb": window_rss_mb,
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        result["window_jobs"] = window_rounds * workload.round_size
        result["unhooked"] = tracer.missing
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", action="store_true", help="stop after set-up")
    args = p.parse_args(argv)

    workload = WORKLOADS[args.workload]
    if args.probe:
        workload.round(workload.setup(args.seed), args.seed, 0)
        result = {"ready_at": time.monotonic(), "setup_factor": speed.setup_factor()}
    else:
        tracer = Tracer() if args.trace else None
        result = measure(workload, args.seed, args.seconds, tracer)
    result["python"] = platform.python_version()
    result["numpy"] = numpy.__version__
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
