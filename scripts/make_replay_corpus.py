#!/usr/bin/env python3
"""Regenerate the golden replay corpus of tests/test_golden_replay.py.

Usage:
    python3 scripts/make_replay_corpus.py [--seed 1] [--rounds N] [--out tests/golden]

For each of the sweep, intfit, matroid and lattice workloads of the
benchmark (perfbench/workloads.py, imported read-only, no bytecode
written), the jobs of the given seed and rounds are written as nlflow
input files, as perfbench/dump_inputs.py names them, and each job's
replay commands (count, count-int, matroid count, the poly, copoly,
colorings and matroid tc commands beside them, and lattice's poly,
copoly and dicuts) are run in-process through nlflow.cli.main.  The
rounds default to one per workload, and two for lattice, whose one round
gives only 25 commands.  One JSON file per workload, <out>/<workload>.json,
keeps the inputs (file name -> text) and one record per command: its
argv, exit code, stdout and stderr.

Run it only when an output is meant to change, and say why in the
change's notes: the test compares every record byte for byte.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shlex
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = {"sweep": 1, "intfit": 1, "matroid": 1, "lattice": 2}  # name -> default rounds


def corpus(workload, seed: int, rounds: int) -> dict:
    """The inputs and replay records of a workload's jobs."""
    from nlflow import cli
    from nlflow.matroids import TUMatrix

    pools = workload.setup(seed)
    inputs, commands = {}, []
    for r in range(rounds):
        for i, job in enumerate(workload.round(pools, seed, r)):
            suffix = "tu" if isinstance(job.graph, TUMatrix) else "dg"
            name = f"r{r:03d}-{i:03d}-{job.family.name}.{suffix}"
            inputs[name] = job.text()
            commands += [shlex.split(c)[1:] for c in job.replay(name)]
    records = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in inputs.items():
            Path(tmp, name).write_text(text)
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            for argv in commands:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    status = cli.main(argv)
                records.append({"argv": argv, "exit": status, "stdout": out.getvalue(), "stderr": err.getvalue()})
        finally:
            os.chdir(cwd)
    return {"workload": workload.name, "seed": seed, "rounds": rounds, "inputs": inputs, "records": records}


def write(data: dict, path: Path) -> None:
    """The corpus as JSON, one input and one record per line."""
    head = {k: data[k] for k in ("workload", "seed", "rounds")}
    lines = ["{", *(f"{json.dumps(k)}: {json.dumps(v)}," for k, v in head.items()), '"inputs": {']
    lines.append(",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in data["inputs"].items()))
    lines += ["},", '"records": [']
    lines.append(",\n".join(json.dumps(rec, sort_keys=True) for rec in data["records"]))
    lines += ["]", "}"]
    path.write_text("\n".join(lines) + "\n")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--rounds", type=int, help="rounds of every workload (default: WORKLOADS)")
    p.add_argument("--out", type=Path, default=ROOT / "tests" / "golden")
    args = p.parse_args(argv)
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from workloads import WORKLOADS as ALL

    args.out.mkdir(parents=True, exist_ok=True)
    for name, rounds in WORKLOADS.items():
        data = corpus(ALL[name], args.seed, args.rounds or rounds)
        write(data, args.out / f"{name}.json")
        print(f"{name}: {len(data['inputs'])} inputs, {len(data['records'])} records")
    return 0


if __name__ == "__main__":
    sys.exit(main())
