"""Benchmark of the nlflow engine.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every measurement runs in a fresh
interpreter (worker.py) with BLAS/OpenMP pinned to one thread.

--trace 0 prints the end-to-end metrics: throughput and job latency of one
worker, its peak memory over its first 100 jobs, and set-up time as the
median over that worker and more interpreters that only set up (see
setup_samples).  Job and set-up times are scaled to a reference host
speed (see speed.py).
--trace 1 runs one untraced and one traced worker and prints the per-layer
metrics of the traced one's first rounds, with the tracing overhead.

The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
The line before it records the machine, versions, source and seed.  A
worker that cannot start or finish makes the run exit 1 with no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from metrics import END_TO_END, PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOAD_NAMES = ("lattice", "sweep", "intfit", "matroid")

# Set-up is timed in at least SETUP_MIN_SAMPLES interpreters.  A set-up
# that is quick (no catalog) is noisier relative to its length, so probes
# continue up to SETUP_MAX_SAMPLES while they have taken under
# SETUP_PROBE_BUDGET_S in all.
SETUP_MIN_SAMPLES = 3
SETUP_MAX_SAMPLES = 9
SETUP_PROBE_BUDGET_S = 3.0
DEADLINE_S = 170  # the whole run, workers included

PINNED_THREADS = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}


class WorkerError(Exception):
    pass


def spawn(args, deadline: float, probe: bool = False) -> tuple[dict, float]:
    """Run one worker; return its result and its set-up time (from before
    the interpreter starts to the first timed job), unscaled."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    if probe:
        cmd.append("--probe")
    elif args.trace:
        cmd += ["--trace", "1"]
    env = dict(os.environ, PYTHONHASHSEED="0", **PINNED_THREADS)
    started = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise WorkerError("worker did not finish before the deadline") from None
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with status {proc.returncode}")
    try:
        result = json.loads(out.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise WorkerError("worker printed no result") from None
    return result, result["ready_at"] - started


def source_id() -> str:
    """The commit when the checkout is a git repository, else a digest of
    the engine's sources."""
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            if ref_file.is_file():
                return "commit " + ref_file.read_text().strip()
        else:
            return "commit " + ref
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return "src-sha256 " + h.hexdigest()[:16]


def setup_samples(args, deadline, first: tuple[dict, float]) -> list[tuple[dict, float]]:
    samples = [first]
    started = time.monotonic()
    while len(samples) < SETUP_MIN_SAMPLES or (
        len(samples) < SETUP_MAX_SAMPLES and time.monotonic() - started < SETUP_PROBE_BUDGET_S
    ):
        samples.append(spawn(args, deadline, probe=True))
    return samples


def end_to_end(args, deadline):
    setups = setup_samples(args, deadline, spawn(args, deadline))
    result = setups[0][0]
    values = {
        "jobs_per_s": result["jobs_per_s"],
        "job_p50_ms": result["job_p50_ms"],
        "job_p90_ms": result["job_p90_ms"],
        "peak_rss_mb": result["window_peak_rss_mb"],
        "setup_s": statistics.median(s * r["setup_factor"] for r, s in setups),
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, (unit, _) in END_TO_END.items()}
    info = {"setup_raw_s": statistics.median(s for _, s in setups)}
    return [result], metrics, info


def per_layer(args, deadline):
    plain = dict(vars(args), trace=0)
    untraced, _ = spawn(argparse.Namespace(**plain), deadline)
    traced, _ = spawn(args, deadline)
    values = dict(traced["layers"])
    values["trace.jobs_per_s"] = traced["jobs_per_s"]
    values["trace.untraced_jobs_per_s"] = untraced["jobs_per_s"]
    values["trace.overhead_pct"] = 100 * (1 - traced["jobs_per_s"] / untraced["jobs_per_s"])
    metrics = {name: {"value": values[name], "unit": unit} for name, (unit, _) in PER_LAYER.items()}
    return [untraced, traced], metrics, {}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    try:
        runs, metrics, extra = (per_layer if args.trace else end_to_end)(args, deadline)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["jobs"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    for r in runs:
        for failure in r["failures"]:
            print(f"failure: {failure}", file=sys.stderr)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "jobs": [r["jobs"] for r in runs],
        "rounds": [r["rounds"] for r in runs],
        "raw_jobs_per_s": [r["raw_jobs_per_s"] for r in runs],
        "probe_us": [r["probe_us"] for r in runs],
        **extra,
        "nproc": len(os.sched_getaffinity(0)),
        "python": runs[0]["python"],
        "numpy": runs[0]["numpy"],
        "source": source_id(),
    }
    if args.trace:
        info["window_jobs"] = runs[-1]["window_jobs"]
        info["unhooked"] = runs[-1]["unhooked"]
    print("# " + json.dumps(info))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
