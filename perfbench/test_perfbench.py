"""Self-tests of the benchmark.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import nlflow.nl  # noqa: E402
from nlflow.cli import main as cli_main  # noqa: E402
from nlflow.digraphs import read_digraph  # noqa: E402
from nlflow.matroids import is_totally_unimodular  # noqa: E402

import metrics  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import worker  # noqa: E402
from dump_inputs import dump  # noqa: E402
from workloads import LATTICE, PHI, PSI, WORKLOADS, r10  # noqa: E402


def texts(workload, seed, rounds=2):
    pools = workload.setup(seed)
    return [
        (job.family.name, job.text(), job.info)
        for r in range(rounds)
        for job in workload.round(pools, seed, r)
    ]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generation_is_deterministic_per_seed(name):
    w = WORKLOADS[name]
    first = texts(w, 7)
    assert first == texts(w, 7)
    assert first != texts(w, 8)
    assert len(first) == 2 * w.round_size


def test_round_mix_is_fixed():
    for w in WORKLOADS.values():
        pools = w.setup(3)
        for r in range(2):
            names = sorted(job.family.name for job in w.round(pools, 3, r))
            assert names == sorted(f.name for f in w.families for _ in range(f.per_round))


def test_r10_representation_is_totally_unimodular():
    m = r10(random.Random(0))
    assert (m.p, m.q) == (5, 10)
    assert is_totally_unimodular(m)


def test_metric_names_match_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == metrics.PER_LAYER


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_one_round_passes_its_checks(name):
    w = WORKLOADS[name]
    for job in w.round(w.setup(5), 5, 0):
        assert job.check(job.run()), (job.family.name, job.text())


def test_scaling_follows_the_probes():
    times = [0.3, 0.01, 0.02, 0.9, 0.05] * 8
    ref = speed.REFERENCE_PROBE_S
    steady = [[ref]] * len(times)
    assert speed.scale(times, steady) == pytest.approx(times)
    # A host twice as slow from the third segment on: its probes take twice
    # as long, and its job times are halved back.
    even = [0.5] * 16
    drifting = [[ref if i < 8 else 2 * ref] for i in range(16)]
    slow = [t if i < 8 else 2 * t for i, t in enumerate(even)]
    assert speed.scale(slow, drifting) == pytest.approx(even)


def test_probes_fill_their_share_of_job_time():
    prober = speed.Prober()
    assert prober.after_job(0.0) == []
    assert sum(prober.after_job(0.5)) >= speed.PROBE_SHARE * 0.5
    assert len(prober.after_job(0.0, last=True)) == 1


def test_injected_wrong_result_is_counted(monkeypatch):
    real = nlflow.nl.nl_flow_polynomial
    monkeypatch.setattr(nlflow.nl, "nl_flow_polynomial", lambda d, *a: real(d, *a) + nlflow.IntPolynomial.one())
    monkeypatch.setattr(worker, "MIN_JOBS", 1)
    result = worker.measure(LATTICE, seed=1, seconds=0, tracer=None)
    phi_jobs = sum(f.per_round for f in LATTICE.families if f.op is PHI)
    assert result["jobs"] == LATTICE.round_size
    assert result["failed"] == phi_jobs


def test_raising_job_is_counted(monkeypatch):
    def broken(d, *args):
        raise RuntimeError("injected")

    monkeypatch.setattr(nlflow.nl, "nl_coflow_polynomial", broken)
    monkeypatch.setattr(worker, "MIN_JOBS", 1)
    result = worker.measure(LATTICE, seed=1, seconds=0, tracer=None)
    assert result["failed"] == sum(f.per_round for f in LATTICE.families if f.op is PSI)


def test_traced_counts_repeat_and_self_times_add_up():
    def traced():
        cmd = [sys.executable, str(ROOT / "perfbench" / "worker.py"), "--workload", "lattice",
               "--seed", "2", "--seconds", "0", "--trace", "1"]
        out = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=170)
        return json.loads(out.stdout.splitlines()[-1])

    a, b = traced(), traced()
    counts = [k for k, (unit, _) in metrics.PER_LAYER.items() if unit == "count"]
    assert {k: a["layers"][k] for k in counts} == {k: b["layers"][k] for k in counts}
    assert a["layers"]["posets.mobius_calls"] == a["layers"]["cuts.lattice_elements"] > 0
    assert a["unhooked"] == []
    self_total = sum(a["layers"][k] for k in a["layers"] if k.endswith("_s") and k != "linalg.farkas_s")
    assert self_total == pytest.approx(a["busy_s"], rel=0.05)


def test_inputs_replay_through_the_cli(tmp_path, capsys):
    files = dump(LATTICE, 4, 1, tmp_path)
    assert len(files) == LATTICE.round_size
    phi_file = next(f for f in files if "-grid-phi." in f.name)
    expected = nlflow.nl.nl_flow_polynomial(read_digraph(phi_file.read_text())).to_text()
    assert cli_main(["poly", str(phi_file)]) == 0
    assert capsys.readouterr().out == expected + "\n"
    assert f"nlflow poly {phi_file.name}" in (tmp_path / "replay.sh").read_text()


def test_fails_without_the_engine(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", "lattice", "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    out = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert out.returncode != 0
    assert out.stdout == ""
