"""Smoke tests for scripts/: each runs as __main__ on a small catalog,
exits 0 and prints its summary line.  bench_pairs.py is checked on canned
run.py output, without running the benchmark.
"""

import json
import re
import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(monkeypatch, capsys, name, *args):
    monkeypatch.setattr(sys, "argv", [name, *args])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    assert exit_info.value.code == 0
    return capsys.readouterr().out.splitlines()


def test_print_table(monkeypatch, capsys):
    lines = run_script(monkeypatch, capsys, "print_table.py", "--max-n", "4", "--cross-check")
    assert lines == [
        "n= 1  1   [lattice: agrees]",
        "n= 2  0   [lattice: agrees]",
        "n= 3  x-1   [lattice: agrees]",
        "n= 4  x^3-2x+1   [lattice: agrees]",
    ]


def test_run_verification(monkeypatch, capsys):
    lines = run_script(
        monkeypatch, capsys, "run_verification.py", "--max-n", "2", "--max-k", "3", "--max-m", "3"
    )
    assert re.fullmatch(r"checked 90 counts in \d+\.\d s, 0 mismatches", lines[-1])


def test_fit_flow_polynomials(monkeypatch, capsys):
    lines = run_script(monkeypatch, capsys, "fit_flow_polynomials.py", "--max-n", "2", "--max-m", "3")
    assert re.fullmatch(
        r"fitted 23 digraphs in \d+\.\d s; 0 interpolants have non-integer coefficients",
        lines[-1],
    )


def canned_run(workload, seed, jobs_per_s, p50_ms, failed=0):
    """The stdout of one run.py invocation: its info line, then the result."""
    info = {"workload": workload, "seed": seed, "seconds": 15, "trace": 0}
    metrics = {"jobs_per_s": {"value": jobs_per_s, "unit": "1/s"}, "job_p50_ms": {"value": p50_ms, "unit": "ms"}}
    result = {"correct": failed == 0, "attempted": 100, "failed": failed, "metrics": metrics}
    return f"# {json.dumps(info)}\n{json.dumps(result)}\n"


def test_bench_pairs_summarises_canned_runs():
    bench = runpy.run_path(str(SCRIPTS / "bench_pairs.py"))
    parse, summarise = bench["parse_run"], bench["summarise"]
    parent = [(100, 2.0), (110, 2.0), (120, 2.0), (130, 2.0)]
    change = [(120, 1.0), (110, 2.0), (150, 3.0), (140, 1.5)]
    runs = []
    for seed, (p, c) in enumerate(zip(parent, change), start=1):
        runs.append(parse("parent", canned_run("sweep", seed, *p, failed=int(seed == 2))))
        runs.append(parse("change", canned_run("sweep", seed, *c)))
    runs.append(parse("parent", canned_run("sweep", 5, 999, 9.0)))  # no change run: unpaired
    assert runs[0]["info"]["seed"] == 1 and runs[0]["result"]["failed"] == 0
    pairs = summarise(runs, {"jobs_per_s": "higher", "job_p50_ms": "lower"})
    assert pairs == {
        "sweep": {
            "seeds": [1, 2, 3, 4],
            "failed": {"parent": [0, 1, 0, 0], "change": [0, 0, 0, 0]},
            # Ties count for neither side.
            "jobs_per_s": {
                "parent_q1_median_q3": [102.5, 115.0, 127.5],
                "change_q1_median_q3": [112.5, 130.0, 147.5],
                "change_wins": "3/4",
            },
            "job_p50_ms": {
                "parent_q1_median_q3": [2.0, 2.0, 2.0],
                "change_q1_median_q3": [1.125, 1.75, 2.75],
                "change_wins": "2/4",
            },
        }
    }
