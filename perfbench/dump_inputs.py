"""Write a workload's inputs as nlflow input files, with the CLI commands
that replay each job and the reason each family is in the workload.

    python3 perfbench/dump_inputs.py --workload lattice --seed 1 --rounds 1 --out DIR

DIR receives one file per job (.dg digraphs, .tu TU matrices), replay.sh
with the `nlflow` command lines of every job, and families.txt.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from nlflow.matroids import TUMatrix  # noqa: E402

from workloads import WORKLOADS  # noqa: E402


def dump(workload, seed: int, rounds: int, out: Path) -> list[Path]:
    out.mkdir(parents=True, exist_ok=True)
    pools = workload.setup(seed)
    files = []
    replay = ["#!/bin/sh", f"# {workload.name} seed {seed}: {workload.why}", "set -e"]
    for r in range(rounds):
        for i, job in enumerate(workload.round(pools, seed, r)):
            suffix = "tu" if isinstance(job.graph, TUMatrix) else "dg"
            path = out / f"r{r:03d}-{i:03d}-{job.family.name}.{suffix}"
            path.write_text(job.text())
            files.append(path)
            replay += job.replay(path.name)
    (out / "replay.sh").write_text("\n".join(replay) + "\n")
    (out / "families.txt").write_text(
        "".join(f"{f.name} ({f.per_round} per round): {f.why}\n" for f in workload.families)
    )
    return files


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--rounds", type=int, default=1)
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)
    files = dump(WORKLOADS[args.workload], args.seed, args.rounds, args.out)
    print(f"wrote {len(files)} inputs and replay.sh to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
