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

A sixth file, <out>/cli-edge.json, pins where arc and integer lists enter
the CLI, with fixed commands over the same lattice and matroid inputs:
dijoin on each lattice input with an empty, a valid, an out-of-range, a
negative, a blank-item and a malformed --arcs; matroid poly-fit, plain and
--json, on each matroid input; and malformed --k-range and --sizes lists.

A seventh, <out>/refusals.json, pins fixed commands on fixed inputs that
the budget, the lattice cap or the 62-column mask limit refuse before the
work starts: count-int on a 24-cycle with 2 chords (k = 3) and on a 41-cycle
with one chord (k = 2), whose support histograms are too wide; count and
matroid count over z2 on a 63-arc path and a 1 x 63 matrix; dicuts and poly
on 21 disjoint arcs; colorings -k 3 on a 30-vertex path; count over z3 with
--budget 10; and complete-acyclic -n 142.  copoly on the 21 disjoint arcs
is answered, as a control.

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
    from nlflow.matroids import TUMatrix

    pools = workload.setup(seed)
    inputs, commands = {}, []
    for r in range(rounds):
        for i, job in enumerate(workload.round(pools, seed, r)):
            suffix = "tu" if isinstance(job.graph, TUMatrix) else "dg"
            name = f"r{r:03d}-{i:03d}-{job.family.name}.{suffix}"
            inputs[name] = job.text()
            commands += [shlex.split(c)[1:] for c in job.replay(name)]
    return {"workload": workload.name, "seed": seed, "rounds": rounds, "inputs": inputs, "records": run(inputs, commands)}


def run(inputs: dict, commands: list) -> list:
    """One record per command, run in-process in a directory of the inputs."""
    from nlflow import cli

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
                    try:
                        status = cli.main(argv)
                    except SystemExit as exc:  # a usage error
                        status = exc.code
                records.append({"argv": argv, "exit": status, "stdout": out.getvalue(), "stderr": err.getvalue()})
        finally:
            os.chdir(cwd)
    return records


def edge_corpus(lattice: dict, matroid: dict) -> dict:
    """The CLI-edge records over the inputs of the lattice and matroid corpora."""
    inputs = {**lattice["inputs"], **matroid["inputs"]}
    commands = []
    for name, text in lattice["inputs"].items():
        m = int(text.split()[1])
        valid = ",".join(map(str, range(0, m, 2)))
        for arcs in ("", valid, f"{m},0,{m}", "3,-1", "1, ,0,", "0,x"):
            commands.append(["dijoin", name, "--arcs", arcs])
    for name in matroid["inputs"]:
        commands += [["matroid", "poly-fit", "--matrix", name], ["--json", "matroid", "poly-fit", "--matrix", name]]
    first = next(iter(matroid["inputs"]))
    for k_range in ("2,,3", "2,x", "", ",", "2,3"):
        commands.append(["matroid", "poly-fit", "--matrix", first, "--k-range", k_range])
    for sizes in ("1,x", ",", "", "2,,1"):
        commands.append(["tournament", "--sizes", sizes])
    rounds = {"lattice": lattice["rounds"], "matroid": matroid["rounds"]}
    return {"workload": "cli-edge", "seed": lattice["seed"], "rounds": rounds, "inputs": inputs, "records": run(inputs, commands)}


def refusal_corpus() -> dict:
    """The refusal records: fixed commands on fixed inputs."""
    from nlflow.digraphs import Digraph, write_digraph

    def cycle(n, *chords):
        return write_digraph(Digraph(n, [(i, (i + 1) % n) for i in range(n)] + list(chords)))

    def path(n):
        return write_digraph(Digraph(n, [(i, i + 1) for i in range(n - 1)]))

    inputs = {
        "cycle24-chords2.dg": cycle(24, (0, 12), (6, 18)),
        "cycle41-chord.dg": cycle(41, (0, 20)),
        "path64.dg": path(64),
        "path30.dg": path(30),
        "arcs21.dg": write_digraph(Digraph(42, [(2 * i, 2 * i + 1) for i in range(21)])),
        "row63.tu": "1 63\n" + " ".join(["1"] * 63) + "\n",
    }
    commands = [
        ["count-int", "cycle24-chords2.dg", "-k", "3"],
        ["count-int", "cycle41-chord.dg", "-k", "2"],
        ["count", "path64.dg", "--group", "z2"],
        ["matroid", "count", "--matrix", "row63.tu", "--group", "z2"],
        ["dicuts", "arcs21.dg"],
        ["poly", "arcs21.dg"],
        ["colorings", "path30.dg", "-k", "3"],
        ["--budget", "10", "count", "cycle24-chords2.dg", "--group", "z3"],
        ["complete-acyclic", "-n", "142"],
        ["copoly", "arcs21.dg"],
    ]
    return {"workload": "refusals", "inputs": inputs, "records": run(inputs, commands)}


def write(data: dict, path: Path) -> None:
    """The corpus as JSON, one input and one record per line."""
    head = {k: v for k, v in data.items() if k not in ("inputs", "records")}
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
    made = {}
    for name, rounds in WORKLOADS.items():
        made[name] = corpus(ALL[name], args.seed, args.rounds or rounds)
    made["cli-edge"] = edge_corpus(made["lattice"], made["matroid"])
    made["refusals"] = refusal_corpus()
    for name, data in made.items():
        write(data, args.out / f"{name}.json")
        print(f"{name}: {len(data['inputs'])} inputs, {len(data['records'])} records")
    return 0


if __name__ == "__main__":
    sys.exit(main())
