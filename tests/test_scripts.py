"""Smoke tests for scripts/: each runs as __main__ on a small catalog,
exits 0 and prints its summary line.
"""

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
