#!/usr/bin/env python3
"""Run the benchmark in alternating pairs from two checkouts and write a
BENCH_<label>.json summary.

Usage:
    python3 scripts/bench_pairs.py --parent DIR --change DIR --label NAME
        [--workloads sweep intfit ...] [--seeds 1 2 ...] [--description TEXT]

For each workload and seed, `perfbench/run.py --trace 0` runs once in each
checkout for the run_seconds that BENCHMARK.json fixes, one after the
other: the parent first at odd seeds, the change first at even ones.
The summary is written to BENCH_<label>.json in the current directory.
Each run keeps the '# ' info line and the result line that run.py prints.
'pairs' gives, per workload, the first quartile, median and third
quartile of each end-to-end metric on each side (statistics.quantiles,
n=4), in how many pairs the change read better, by the direction
BENCHMARK.json gives the metric (ties count for neither), whether the
change's median is worse than the parent's by more than the metric's
relative bound there, whether a gain is shown: the change read better
in at least 9 of 10 pairs and its median is better than the parent's by
more than the parent's interquartile range, and whether the metric is
unresolved: the parent's interquartile range is wider than the bound
times the parent's median, so a median within the bound shows nothing,
unless every change run reads better than every parent run.  'pairs' also
gives each side's failed share, its failed jobs over its attempted jobs
summed over the seeds, and whether the change's share is the larger.  The
metrics worse than their bound are printed at the end, then the workloads
whose failed share is larger on the change, then the unresolved metrics.
The file is rewritten after every pair, so an interrupted series keeps
the pairs it finished.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def parse_run(side: str, stdout: str) -> dict:
    """The run record of one run.py invocation: its info line ("# " and a
    JSON object) and the result line after it.
    """
    lines = stdout.strip().splitlines()
    info, result = json.loads(lines[-2].removeprefix("# ")), json.loads(lines[-1])
    return {
        "side": side,
        "workload": info["workload"],
        "seed": info["seed"],
        "trace": info["trace"],
        "info": info,
        "result": result,
    }


def quartiles(values: list[float]) -> list[float]:
    qs = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return [round(q, 4) for q in qs]


def summarise(runs: list[dict], end_to_end: list[dict]) -> dict:
    """Per workload: the seeds run on both sides, the failed jobs of each
    run, each side's failed share (failed over attempted jobs, summed over
    the seeds) and whether the change's is larger, and for each metric of
    end_to_end (BENCHMARK.json's entries, with "better" either "higher" or
    "lower" and a relative "bound") both sides' quartiles, the change's
    wins over the pairs, whether the change's median is worse than the
    parent's by more than the bound, whether it shows a gain: wins in at
    least 9 of 10 pairs and a median better than the parent's by more than
    the parent's interquartile range, and whether it is unresolved: that
    range is wider than the bound times the parent's median, and not every
    change run beats every parent run.
    """
    by_key = {(r["workload"], r["seed"], r["side"]): r["result"] for r in runs}
    pairs = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        seeds = sorted(
            {s for w, s, _ in by_key if w == workload and all((w, s, side) in by_key for side in SIDES)}
        )
        if not seeds:
            continue
        results = {side: [by_key[workload, s, side] for s in seeds] for side in SIDES}
        share = {
            side: sum(r["failed"] for r in results[side]) / max(1, sum(r["attempted"] for r in results[side]))
            for side in SIDES
        }
        summary = {
            "seeds": seeds,
            "failed": {side: [r["failed"] for r in results[side]] for side in SIDES},
            "failed_share": {**share, "larger_on_change": share["change"] > share["parent"]},
        }
        for entry in end_to_end:
            metric = entry["name"]
            values = {side: [r["metrics"][metric]["value"] for r in results[side]] for side in SIDES}
            sign = 1 if entry["better"] == "higher" else -1
            wins = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
            parent, change = (statistics.median(values[side]) for side in SIDES)
            q1, _, q3 = parent_q = quartiles(values["parent"])
            best_parent = max(sign * p for p in values["parent"])
            every_run_better = all(sign * c > best_parent for c in values["change"])
            summary[metric] = {
                "parent_q1_median_q3": parent_q,
                "change_q1_median_q3": quartiles(values["change"]),
                "change_wins": f"{wins}/{len(seeds)}",
                "worse_than_bound": sign * (parent - change) > entry["bound"] * parent,
                "gain_shown": 10 * wins >= 9 * len(seeds) and sign * (change - parent) > q3 - q1,
                "unresolved": q3 - q1 > entry["bound"] * parent and not every_run_better,
            }
        pairs[workload] = summary
    return pairs


def flagged(pairs: dict, key: str) -> list[str]:
    """The "workload metric" pairs whose summary sets key, such as
    "worse_than_bound", "larger_on_change" (of failed_share) or
    "unresolved".
    """
    return [
        f"{workload} {metric}"
        for workload, summary in pairs.items()
        for metric, stats in summary.items()
        if isinstance(stats, dict) and stats.get(key)
    ]


def run_once(checkout: Path, workload: str, seed: int, seconds: int, side: str) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    return parse_run(side, out.stdout)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--label", required=True)
    parser.add_argument("--workloads", nargs="+", default=["lattice", "sweep", "intfit", "matroid"])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--description", default="", help="what the change does")
    args = parser.parse_args()

    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    end_to_end = bench["end_to_end"]
    seconds = bench["run_seconds"]
    out = Path(f"BENCH_{args.label}.json")
    checkouts = {"parent": args.parent, "change": args.change}
    record = {
        "label": args.label,
        "change": args.description,
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds} --trace 0",
        "notes": __doc__.split("\n\n", 2)[2].replace("\n", " ").strip(),
        "runs": [],
        "pairs": {},
    }
    for workload in args.workloads:
        for seed in args.seeds:
            order = SIDES if seed % 2 else SIDES[::-1]
            for side in order:
                record["runs"].append(run_once(checkouts[side], workload, seed, seconds, side))
            record["pairs"] = summarise(record["runs"], end_to_end)
            out.write_text(json.dumps(record, indent=1) + "\n")
            summary = record["pairs"][workload]["jobs_per_s"]
            print(f"{workload} seed {seed}: jobs_per_s change wins {summary['change_wins']}", flush=True)
    for label, key in (("worse than bound", "worse_than_bound"), ("failed share larger", "larger_on_change"),
                       ("unresolved", "unresolved")):
        names = flagged(record["pairs"], key)
        print(f"{label}: " + (", ".join(names) if names else "none"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
