"""Smoke tests for scripts/: each runs as __main__ on a small catalog
(code_lines.py on two small modules and on src/nlflow), exits 0 and
prints its summary line.  bench_pairs.py is checked on canned
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


def test_fit_flow_polynomials(monkeypatch, capsys):
    lines = run_script(monkeypatch, capsys, "fit_flow_polynomials.py", "--max-n", "2", "--max-m", "3")
    assert re.fullmatch(
        r"fitted 23 digraphs in \d+\.\d s; 0 interpolants have non-integer coefficients",
        lines[-1],
    )


def test_code_lines_skip_docstrings_comments_and_blanks(monkeypatch, capsys, tmp_path):
    (tmp_path / "a.py").write_text(
        '"""Module\n\ndocstring."""\n\n# comment\nimport os  # kept\n\n\n'
        'def f(x):\n    """Function docstring."""\n    s = """a string,\n    not a docstring"""\n    return x\n'
    )
    (tmp_path / "b.py").write_text("class C:\n    '''Doc.'''\n\n    x = 1\n")
    lines = run_script(monkeypatch, capsys, "code_lines.py", "--src", str(tmp_path))
    assert lines == ["     5  a.py", "     2  b.py", "     7  total"]
    lines = run_script(monkeypatch, capsys, "code_lines.py")
    counts = [int(line.split()[0]) for line in lines]
    assert lines[-1].endswith("  total") and counts[-1] == sum(counts[:-1])


def canned_run(workload, seed, jobs_per_s, p50_ms, failed=0):
    """The stdout of one run.py invocation: its info line, then the result."""
    info = {"workload": workload, "seed": seed, "seconds": 15, "trace": 0}
    metrics = {"jobs_per_s": {"value": jobs_per_s, "unit": "1/s"}, "job_p50_ms": {"value": p50_ms, "unit": "ms"}}
    result = {"correct": failed == 0, "attempted": 100, "failed": failed, "metrics": metrics}
    return f"# {json.dumps(info)}\n{json.dumps(result)}\n"


def test_bench_pairs_summarises_canned_runs():
    bench = runpy.run_path(str(SCRIPTS / "bench_pairs.py"))
    parse, summarise, flagged = bench["parse_run"], bench["summarise"], bench["flagged"]
    parent = [(100, 2.0), (110, 2.0), (120, 2.0), (130, 2.0)]
    change = [(120, 1.0), (110, 2.0), (150, 3.0), (140, 1.5)]
    runs = []
    for seed, (p, c) in enumerate(zip(parent, change), start=1):
        runs.append(parse("parent", canned_run("sweep", seed, *p, failed=int(seed == 2))))
        runs.append(parse("change", canned_run("sweep", seed, *c)))
    runs.append(parse("parent", canned_run("sweep", 5, 999, 9.0)))  # no change run: unpaired
    assert runs[0]["info"]["seed"] == 1 and runs[0]["result"]["failed"] == 0
    end_to_end = [
        {"name": "jobs_per_s", "better": "higher", "bound": 0.25},
        {"name": "job_p50_ms", "better": "lower", "bound": 0.25},
    ]
    pairs = summarise(runs, end_to_end)
    assert pairs == {
        "sweep": {
            "seeds": [1, 2, 3, 4],
            "failed": {"parent": [0, 1, 0, 0], "change": [0, 0, 0, 0]},
            "failed_share": {"parent": 1 / 400, "change": 0.0, "larger_on_change": False},
            # Ties count for neither side.
            "jobs_per_s": {
                "parent_q1_median_q3": [102.5, 115.0, 127.5],
                "change_q1_median_q3": [112.5, 130.0, 147.5],
                "change_wins": "3/4",
                "worse_than_bound": False,
                "gain_shown": False,
                "unresolved": False,
            },
            "job_p50_ms": {
                "parent_q1_median_q3": [2.0, 2.0, 2.0],
                "change_q1_median_q3": [1.125, 1.75, 2.75],
                "change_wins": "2/4",
                "worse_than_bound": False,
                "gain_shown": False,
                "unresolved": False,
            },
        }
    }
    assert flagged(pairs, "worse_than_bound") == flagged(pairs, "unresolved") == []
    assert flagged(pairs, "larger_on_change") == []
    # The failed share sums failed and attempted jobs over the seeds: 2 of
    # 400 on the parent against 1 of 150 (fewer failures, larger share)
    # and 2 of 500 (as many failures, smaller share) on the change.
    for change, larger in (([(0, 50), (1, 100)], True), ([(1, 250), (1, 250)], False)):
        runs = []
        for seed, pair in enumerate(zip([(1, 200), (1, 200)], change), start=1):
            for side, (failed, attempted) in zip(("parent", "change"), pair):
                runs.append(parse(side, canned_run("intfit", seed, 100, 2.0, failed)))
                runs[-1]["result"]["attempted"] = attempted
        pairs = summarise(runs, end_to_end)
        assert pairs["intfit"]["failed_share"]["larger_on_change"] is larger
        assert flagged(pairs, "larger_on_change") == (["intfit failed_share"] if larger else [])
    # Medians 2.0 against 2.5 (25% worse, at the bound) and 2.55 (past it).
    for slow, worse in ((2.5, False), (2.55, True)):
        runs = [
            parse(side, canned_run("intfit", seed, 100, p50))
            for seed in (1, 2, 3)
            for side, p50 in (("parent", 2.0), ("change", slow))
        ]
        pairs = summarise(runs, end_to_end)
        assert pairs["intfit"]["job_p50_ms"]["worse_than_bound"] is worse
        assert pairs["intfit"]["jobs_per_s"]["worse_than_bound"] is False
        assert flagged(pairs, "worse_than_bound") == (["intfit job_p50_ms"] if worse else [])
    # Throughput 100 against 75 (at the bound) and 74 (past it).
    for slow, worse in ((75, False), (74, True)):
        runs = [parse(side, canned_run("sweep", 1, jobs, 2.0)) for side, jobs in (("parent", 100), ("change", slow))]
        worse_names = flagged(summarise(runs, end_to_end), "worse_than_bound")
        assert worse_names == (["sweep jobs_per_s"] if worse else [])
    # A gain is shown when the change wins at least 9 of 10 pairs and its
    # median beats the parent's by more than the parent's interquartile
    # range.  Parent: quartiles 90, 100, 110, so the range is 20.
    parent = [90, 90, 90, 100, 100, 100, 100, 110, 110, 110]
    cases = [
        ([p + 20 for p in parent], "10/10", False),  # median gap 20: at the range
        ([p + 21 for p in parent], "10/10", True),  # gap 21: past it
        ([89] + [p + 30 for p in parent[1:]], "9/10", True),  # gap 30, 9 wins
        ([89, 89] + [p + 30 for p in parent[2:]], "8/10", False),  # gap 30, 8 wins
    ]
    for change, wins, shown in cases:
        runs = [
            parse(side, canned_run("lattice", seed, jobs, 2.0))
            for seed, pair in enumerate(zip(parent, change), start=1)
            for side, jobs in zip(("parent", "change"), pair)
        ]
        stats = summarise(runs, end_to_end)["lattice"]
        assert stats["jobs_per_s"]["parent_q1_median_q3"] == [90, 100, 110]
        assert (stats["jobs_per_s"]["change_wins"], stats["jobs_per_s"]["gain_shown"]) == (wins, shown)
        assert stats["job_p50_ms"]["gain_shown"] is False
    # The same rule for a metric where lower is better: p50 2.0 against 1.0.
    runs = [parse(side, canned_run("lattice", 1, 100, p50)) for side, p50 in (("parent", 2.0), ("change", 1.0))]
    assert summarise(runs, end_to_end)["lattice"]["job_p50_ms"]["gain_shown"] is True
    # Unresolved: the parent's interquartile range is wider than the bound
    # times its median (25 at a median of 100), unless every change run
    # reads better than every parent run.
    cases = [
        ([87.5, 100, 112.5], [100, 100, 100], False),  # range 25: at the bound
        ([87, 100, 113], [100, 100, 100], True),  # range 26: past it
        ([87, 100, 113], [114, 120, 130], False),  # every change run better
        ([87, 100, 113], [113, 120, 130], True),  # one tie with the best parent run
    ]
    for parent, change, unresolved in cases:
        runs = [
            parse(side, canned_run("matroid", seed, jobs, 2.0))
            for seed, pair in enumerate(zip(parent, change), start=1)
            for side, jobs in zip(("parent", "change"), pair)
        ]
        pairs = summarise(runs, end_to_end)
        assert pairs["matroid"]["jobs_per_s"]["unresolved"] is unresolved
        assert flagged(pairs, "unresolved") == (["matroid jobs_per_s"] if unresolved else [])
    # Lower is better: p50 quartiles 1.6 and 2.4 against a bound of 0.5.
    for change, unresolved in (([2.0, 2.0, 2.0], True), ([1.5, 1.5, 1.5], False)):
        runs = [
            parse(side, canned_run("matroid", seed, 100, p50))
            for seed, pair in enumerate(zip([1.6, 2.0, 2.4], change), start=1)
            for side, p50 in zip(("parent", "change"), pair)
        ]
        assert summarise(runs, end_to_end)["matroid"]["job_p50_ms"]["unresolved"] is unresolved
