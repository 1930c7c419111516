"""Golden replay: the CLI's stdout, stderr and exit code on every replay
command of the seed-1 inputs of the sweep, intfit and matroid benchmark
workloads (one round each) and of lattice (two rounds), byte for byte.

tests/golden/<workload>.json holds the inputs and one record per command;
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
        status = cli.main(want["argv"])
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
    ],
)
def test_replay_is_byte_identical(tmp_path, monkeypatch, capsys, name, commands):
    data, wrong = replay(name, tmp_path, monkeypatch, capsys)
    assert (data["workload"], data["seed"], data["rounds"]) == (name, 1, 2 if name == "lattice" else 1)
    kinds = {" ".join(r["argv"][:2] if r["argv"][0] == "matroid" else r["argv"][:1]) for r in data["records"]}
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
