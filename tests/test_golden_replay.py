"""Golden replay: the CLI's stdout, stderr and exit code on every replay
command of the seed-1 inputs of the sweep, intfit and matroid benchmark
workloads (one round each) and of lattice (two rounds), byte for byte.
cli-edge holds fixed commands over the lattice and matroid inputs where
lists enter the CLI: dijoin's --arcs (empty, valid, out of range,
negative, with blank items, malformed), matroid poly-fit, and malformed
--k-range and --sizes lists.

tests/golden/<name>.json holds the inputs and one record per command;
scripts/make_replay_corpus.py regenerates them.  The oracles check the
numbers; this checks what the commands print, formatting, term order and
error lines included.
"""

import json
from pathlib import Path

import pytest

from nlflow import cli

GOLDEN = Path(__file__).parent / "golden"


def replay(name, tmp_path, monkeypatch, capsys):
    """(corpus, the records that differ, as (expected, got) pairs)."""
    data = json.loads((GOLDEN / f"{name}.json").read_text())
    for file, text in data["inputs"].items():
        (tmp_path / file).write_text(text)
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    wrong = []
    for want in data["records"]:
        try:
            status = cli.main(want["argv"])
        except SystemExit as exc:  # a usage error
            status = exc.code
        out, err = capsys.readouterr()
        got = {"argv": want["argv"], "exit": status, "stdout": out, "stderr": err}
        if got != want:
            wrong.append((want, got))
    return data, wrong


@pytest.mark.parametrize(
    "name, commands",
    [
        ("sweep", {"poly", "count", "copoly", "colorings"}),
        ("intfit", {"count-int"}),
        ("matroid", {"matroid count", "matroid tc"}),
        ("lattice", {"poly", "copoly", "dicuts"}),
        ("cli-edge", {"dijoin", "matroid poly-fit", "tournament"}),
    ],
)
def test_replay_is_byte_identical(tmp_path, monkeypatch, capsys, name, commands):
    data, wrong = replay(name, tmp_path, monkeypatch, capsys)
    rounds = {"lattice": 2, "cli-edge": {"lattice": 2, "matroid": 1}}.get(name, 1)
    assert (data["workload"], data["seed"], data["rounds"]) == (name, 1, rounds)
    argvs = [r["argv"][r["argv"][0] == "--json" :] for r in data["records"]]
    kinds = {" ".join(argv[:2] if argv[0] == "matroid" else argv[:1]) for argv in argvs}
    assert kinds == commands
    assert len(data["records"]) >= 40
    assert not wrong, f"{len(wrong)} of {len(data['records'])} differ; first: {wrong[0]}"


def test_corpus_pins_polynomials_counts_and_errors():
    # The records hold what a one-character drift would change: rendered
    # polynomials, nonzero counts of every kind, and error lines.
    records = []
    for name in ("sweep", "intfit", "matroid", "lattice"):
        records += json.loads((GOLDEN / f"{name}.json").read_text())["records"]
    assert any("x^" in r["stdout"] for r in records if r["argv"][0] == "poly")
    for kind in (("count",), ("count-int",), ("matroid", "count")):
        outs = [r["stdout"] for r in records if tuple(r["argv"][: len(kind)]) == kind]
        assert outs and any(o not in ("0\n", "1\n") for o in outs), kind
    assert any(r["exit"] == 1 and r["stderr"].startswith("error: ") for r in records)


def test_cli_edge_pins_every_kind_of_list():
    # Each --arcs case gives its own outcome somewhere in the corpus, and
    # poly-fit is pinned in both renderings.
    records = json.loads((GOLDEN / "cli-edge.json").read_text())["records"]
    dijoin = [r for r in records if r["argv"][0] == "dijoin"]
    assert {r["stdout"] for r in dijoin if r["exit"] == 0} == {"true\n", "false\n"}
    errors = [r["stderr"] for r in dijoin if r["exit"] == 1]
    assert any(e.startswith("error: domain: arc set [-1, ") for e in errors)
    assert any(e.startswith("error: domain: arc set [0, ") for e in errors)
    assert any(e.startswith("error: usage: argument --arcs: invalid int value") for e in errors)
    assert any(r["argv"][3] == "" for r in dijoin) and any(",," in r["argv"][3] or ", ," in r["argv"][3] for r in dijoin)
    fits = [r for r in records if "poly-fit" in r["argv"] and r["exit"] == 0]
    assert any(r["stdout"].startswith('{"coeffs"') for r in fits) and any("x^" in r["stdout"] for r in fits)
    for option in ("--k-range", "--sizes"):
        assert any(r["stderr"].startswith(f"error: usage: argument {option}:") for r in records), option
