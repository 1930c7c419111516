"""CLI surface: every subcommand, error mapping, determinism, and the JSON
run report.
"""

import json
import time
from functools import partial

import pytest

from nlflow import cli, linalg, oracles
from nlflow.cli import main
from nlflow.digraphs import Digraph, write_digraph
from nlflow.matroids import TUMatrix, write_matrix
from nlflow.nl import nl_coflow_polynomial

K3_FILE = "3 3\n0 1\n0 2\n1 2\n"
CYCLE_FILE = "3 3\n0 1\n1 2\n2 0\n"
ARC_FILE = "2 1\n0 1\n"
CYCLE_MATRIX = "2 3\n1 0 -1\n-1 1 0\n"


@pytest.fixture
def k3_path(tmp_path):
    p = tmp_path / "k3.dg"
    p.write_text(K3_FILE)
    return str(p)


@pytest.fixture
def cycle_path(tmp_path):
    p = tmp_path / "c3.dg"
    p.write_text(CYCLE_FILE)
    return str(p)


@pytest.fixture
def matrix_path(tmp_path):
    p = tmp_path / "c3.tu"
    p.write_text(CYCLE_MATRIX)
    return str(p)


def directed_cycle(n, closed=True):
    """The directed n-cycle, or without its closing arc the n-vertex path."""
    return Digraph(n, tuple((i, (i + 1) % n) for i in range(n if closed else n - 1)))


def run(capsys, argv):
    status = main(argv)
    captured = capsys.readouterr()
    return status, captured.out, captured.err


class TestPolynomialCommands:
    def test_poly_k3(self, capsys, k3_path):
        status, out, _ = run(capsys, ["poly", k3_path])
        assert status == 0 and out == "x-1\n"

    def test_poly_json(self, capsys, k3_path):
        status, out, _ = run(capsys, ["--json", "poly", k3_path])
        assert status == 0
        assert json.loads(out) == {"coeffs": {"0": "-1", "1": "1"}}

    def test_copoly_cycle(self, capsys, cycle_path):
        status, out, _ = run(capsys, ["copoly", cycle_path])
        assert status == 0 and out == "x^2-1\n"

    def test_complete_acyclic(self, capsys):
        status, out, _ = run(capsys, ["complete-acyclic", "-n", "4"])
        assert status == 0 and out == "x^3-2x+1\n"

    @pytest.mark.parametrize("closed, text", [(True, "x^1499-1\n"), (False, "x^1499\n")])
    def test_copoly_beyond_the_recursion_limit(self, capsys, tmp_path, closed, text):
        p = tmp_path / "long.dg"
        p.write_text(write_digraph(directed_cycle(1500, closed)))
        assert run(capsys, ["copoly", str(p)]) == (0, text, "")

    def test_complete_acyclic_n40(self, capsys):
        # 2^39 compositions, summed by prefixes.
        status, out, _ = run(capsys, ["complete-acyclic", "-n", "40"])
        assert status == 0 and out.startswith("x^741-2x^703+") and out.endswith("-26x+1\n")

    def test_tournament(self, capsys):
        status, out, _ = run(capsys, ["tournament", "--sizes", "1,4,1"])
        assert status == 0 and out == "x^10-2x^6+x^3\n"


class TestCountingCommands:
    def test_count_group(self, capsys, k3_path):
        status, out, _ = run(capsys, ["count", k3_path, "--group", "z2"])
        assert status == 0 and out == "1\n"

    def test_count_klein(self, capsys, cycle_path):
        status, out, _ = run(capsys, ["count", cycle_path, "--group", "z2xz2"])
        assert status == 0 and out == "4\n"

    def test_count_int(self, capsys, cycle_path):
        status, out, _ = run(capsys, ["count-int", cycle_path, "-k", "3"])
        assert status == 0 and out == "5\n"

    def test_colorings(self, capsys, cycle_path):
        status, out, _ = run(capsys, ["colorings", cycle_path, "-k", "2"])
        assert status == 0 and out == "6\n"

    @pytest.mark.parametrize(
        "command, option, count", [("count", ["--group", "z2"], "2\n"), ("count-int", ["-k", "2"], "3\n")]
    )
    def test_isolated_vertices_split_in_linear_time(self, capsys, tmp_path, command, option, count):
        # A 3-cycle and 9997 isolated vertices, each a weak component.
        p = tmp_path / "sparse.dg"
        p.write_text(write_digraph(Digraph(10_000, directed_cycle(3).arcs)))
        times = []
        for _ in range(3):
            oracles._arc_components.cache_clear()
            start = time.perf_counter()
            assert run(capsys, [command, str(p), *option]) == (0, count, "")
            times.append(time.perf_counter() - start)
        assert min(times) < 0.1, times


class TestStructureCommands:
    def test_dicuts(self, capsys, k3_path):
        status, out, _ = run(capsys, ["dicuts", k3_path])
        assert status == 0
        assert out == "0 1\n1 2\n"

    def test_dijoin(self, capsys, k3_path):
        status, out, _ = run(capsys, ["dijoin", k3_path, "--arcs", "1"])
        assert status == 0 and out == "true\n"
        status, out, _ = run(capsys, ["dijoin", k3_path, "--arcs", ""])
        assert status == 0 and out == "false\n"


class TestMatroidCommands:
    def test_tc(self, capsys, matrix_path):
        status, out, _ = run(capsys, ["matroid", "tc", "--matrix", matrix_path])
        assert status == 0 and out == "true\n"

    def test_count_group(self, capsys, matrix_path):
        status, out, _ = run(
            capsys, ["matroid", "count", "--matrix", matrix_path, "--group", "z3"]
        )
        assert status == 0 and out == "3\n"

    def test_count_int(self, capsys, matrix_path):
        status, out, _ = run(
            capsys, ["matroid", "count", "--matrix", matrix_path, "-k", "3"]
        )
        assert status == 0 and out == "5\n"

    def test_poly_fit(self, capsys, matrix_path):
        status, out, _ = run(
            capsys,
            ["matroid", "poly-fit", "--matrix", matrix_path, "--k-range", "2,3,4"],
        )
        assert status == 0 and out == "2x-1\n"

    def test_free_matroid(self, capsys, tmp_path):
        # One all-zero row: the free matroid on 3 elements, 8 NL-Z2-flows.
        p = tmp_path / "free3.tu"
        p.write_text("1 3\n0 0 0\n")
        status, out, _ = run(capsys, ["matroid", "count", "--matrix", str(p), "--group", "z2"])
        assert status == 0 and out == "8\n"
        status, out, _ = run(capsys, ["matroid", "poly-fit", "--matrix", str(p)])
        assert status == 0 and out == "8x^3-12x^2+6x-1\n"

    def test_failed_witness_is_its_own_error_kind(self, capsys, tmp_path):
        # Not TU, nullity 1: the counts at k = 2, 3, 4 are 0, 2, 2, not on
        # one line, so the held-out k = 4 fails; the input is well formed.
        p = tmp_path / "non_tu.tu"
        p.write_text("3 4\n0 1 1 1\n1 0 -1 0\n1 1 -1 -1\n")
        assert run(capsys, ["matroid", "poly-fit", "--matrix", str(p)]) == (
            1,
            "",
            "error: witness: polynomiality violated: held-out point k=4: interpolant gives 4, expected 2\n",
        )

    def test_columns_without_rows_refused(self, capsys, tmp_path):
        # A 0 x 3 header cannot be stored; it used to count as 0 x 0.
        p = tmp_path / "empty3.tu"
        p.write_text("0 3\n")
        for cmd in (["count", "--group", "z2"], ["poly-fit"], ["tc"]):
            status, out, err = run(capsys, ["matroid", cmd[0], "--matrix", str(p), *cmd[1:]])
            assert status == 1 and out == ""
            assert err.startswith("error: domain:")


class TestVerify:
    def test_small_sweep_passes(self, capsys):
        status, out, _ = run(
            capsys, ["verify", "--max-n", "2", "--max-k", "2", "--max-m", "4"]
        )
        assert status == 0
        assert "0 mismatches" in out


class TestErrors:
    def test_missing_file(self, capsys):
        status, _, err = run(capsys, ["poly", "/nonexistent/file.dg"])
        assert status == 1
        assert err.startswith("error: io:")

    def test_malformed_file(self, capsys, tmp_path):
        p = tmp_path / "bad.dg"
        p.write_text("nonsense\n")
        status, _, err = run(capsys, ["poly", str(p)])
        assert status == 1
        assert err.startswith("error: domain:")

    def test_budget_exceeded(self, capsys, cycle_path):
        status, _, err = run(
            capsys, ["--budget", "2", "count", cycle_path, "--group", "z4"]
        )
        assert status == 1
        assert err.startswith("error: budget:")

    @pytest.mark.parametrize("arcs", [40, 64])
    def test_budget_bounds_support_histogram(self, capsys, tmp_path, arcs):
        # A directed path has nullity 0, so its box is the zero flow alone,
        # but the support histogram would have k * 2^m cells.
        p = tmp_path / f"path{arcs}.dg"
        p.write_text(f"{arcs + 1} {arcs}\n" + "".join(f"{i} {i + 1}\n" for i in range(arcs)))
        status, out, err = run(capsys, ["count-int", str(p), "-k", "2"])
        assert status == 1 and out == ""
        assert err.startswith("error: budget:")

    def test_budget_bounds_trivial_group(self, capsys, tmp_path):
        p = tmp_path / "loops64.dg"
        p.write_text("1 64\n" + "0 0\n" * 64)
        status, _, err = run(capsys, ["count", str(p), "--group", "z1"])
        assert status == 1
        assert err.startswith("error: budget:")

    @pytest.mark.parametrize(
        "arcs, budget, command",
        [
            (40, "100000000000000", ["count-int", "-k", "2"]),
            (64, str(10**21), ["count-int", "-k", "2"]),
            (64, str(10**21), ["count", "--group", "z1"]),
        ],
    )
    def test_huge_budget_is_still_a_budget_error(self, capsys, tmp_path, arcs, budget, command):
        # The budget admits the support histogram, but 16 TiB of it cannot
        # be allocated, and masks of 64 arcs do not fit in int64.
        p = tmp_path / f"path{arcs}.dg"
        p.write_text(f"{arcs + 1} {arcs}\n" + "".join(f"{i} {i + 1}\n" for i in range(arcs)))
        status, out, err = run(capsys, ["--budget", budget, command[0], str(p), *command[1:]])
        assert status == 1 and out == ""
        assert err.startswith("error: budget:")

    @pytest.mark.parametrize(
        "command, message",
        [
            (
                ["count", "--group", f"z{10**20}"],
                f"cotree sums of {10**20} values times 1*1 exceed int64",
            ),
            (
                ["count-int", "-k", str(10**19)],
                f"support histogram of {10**19}*2^3 cells exceeds int64 indices",
            ),
        ],
    )
    def test_walks_beyond_int64_are_budget_errors(self, capsys, cycle_path, command, message):
        # The budget admits the walk, but its values or its histogram's
        # cells would leave int64: refused before anything is allocated.
        argv = ["--budget", str(10**40), command[0], cycle_path, *command[1:]]
        assert run(capsys, argv) == (1, "", f"error: budget: {message}\n")

    @pytest.mark.parametrize(
        "text, command, message",
        [
            (
                CYCLE_FILE,
                ["count-int", "-k", str(10**18)],
                f"support histogram of {10**18}*2^3 cells exceeds 2^63 bytes",
            ),
            (
                write_digraph(directed_cycle(61, closed=False)),
                ["count", "--group", "z1"],
                "support histogram of 1*2^60 cells exceeds 2^63 bytes",
            ),
            (
                "2 3\n0 1\n1 0\n0 1\n",
                ["count", "--group", f"z{4 * 10**9}"],
                f"a box of {4 * 10**9}^2 points exceeds int64 indices",
            ),
        ],
    )
    def test_arrays_of_2_63_bytes_or_points_are_budget_errors(self, capsys, tmp_path, text, command, message):
        # The budget admits the walk and the histogram's cells, but the
        # histogram cannot be one numpy array, or the box's point indices
        # would leave int64: refused before anything is allocated.
        p = tmp_path / "wide.dg"
        p.write_text(text)
        argv = ["--budget", str(10**40), command[0], str(p), *command[1:]]
        assert run(capsys, argv) == (1, "", f"error: budget: {message}\n")

    @pytest.mark.parametrize("k", [2, 3])
    def test_colorings_of_more_than_64_vertices_are_budget_errors(self, capsys, tmp_path, k):
        # The budget admits min(k, 3)^65, but the subset table's sink
        # bitmasks hold at most 64 vertices.
        p = tmp_path / "path65.dg"
        p.write_text(write_digraph(directed_cycle(65, closed=False)))
        assert run(capsys, ["--budget", str(10**32), "colorings", str(p), "-k", str(k)]) == (
            1, "", "error: budget: vertex bitmasks of 65 vertices exceed 64 bits\n"
        )

    @pytest.mark.parametrize(
        "command",
        [
            ["count-int", "{dg}", "-k", "2"],
            ["count", "{dg}", "--group", "z2"],
            ["matroid", "count", "--matrix", "{tu}", "-k", "2"],
            ["matroid", "count", "--matrix", "{tu}", "--group", "z2"],
            ["matroid", "poly-fit", "--matrix", "{tu}"],
            ["matroid", "poly-fit", "--matrix", "{tu}", "--k-range", "2,3,4"],
        ],
    )
    def test_wide_supports_refused_before_elimination(self, capsys, tmp_path, monkeypatch, command):
        # Masks of 300 columns do not fit in int64; the refusal needs only
        # the width, so no row reduction runs first.
        cycle = directed_cycle(300)
        files = {"dg": tmp_path / "c300.dg", "tu": tmp_path / "c300.tu"}
        files["dg"].write_text(write_digraph(cycle))
        files["tu"].write_text(write_matrix(TUMatrix.from_digraph(cycle)))
        calls = []
        for module in (oracles, linalg):
            monkeypatch.setattr(module, "int_rref", lambda mat: calls.append(mat))
        argv = [arg.format(**files) for arg in command]
        assert run(capsys, argv) == (
            1, "", "error: budget: support masks of 300 columns exceed 62 bits\n"
        )
        assert calls == []

    def test_total_cyclicity_of_a_wide_matrix(self, capsys, tmp_path):
        # tc builds no support histogram, so the width is no limit to it.
        p = tmp_path / "c70.tu"
        p.write_text(write_matrix(TUMatrix.from_digraph(directed_cycle(70))))
        assert run(capsys, ["matroid", "tc", "--matrix", str(p)]) == (0, "true\n", "")

    @pytest.mark.parametrize("budget, status", [("26", 1), ("27", 0)])
    def test_coloring_budget_is_min_k_3_to_the_n(self, capsys, cycle_path, budget, status):
        # 3^3 = 27 at k = 4, where the k^n charge was 64.
        got, out, err = run(capsys, ["--budget", budget, "colorings", cycle_path, "-k", "4"])
        assert got == status
        assert (out, err[:14]) == (("", "error: budget:") if status else ("60\n", ""))

    def test_dicut_cap(self, capsys, tmp_path):
        # 21 disjoint three-vertex paths: 3^21 - 1 dicuts.
        p = tmp_path / "paths.dg"
        p.write_text("63 42\n" + "".join(f"{3 * c} {3 * c + 1}\n{3 * c + 1} {3 * c + 2}\n" for c in range(21)))
        for command in ("dicuts", "poly"):
            status, out, err = run(capsys, [command, str(p)])
            assert status == 1 and out == ""
            assert err.startswith("error: lattice-size:")

    def test_lattice_cap(self, capsys, cycle_path, monkeypatch):
        monkeypatch.setattr(cli, "nl_coflow_polynomial", partial(nl_coflow_polynomial, cap=1))
        status, out, err = run(capsys, ["copoly", cycle_path])
        assert status == 1 and out == ""
        assert err.startswith("error: lattice-size:")

    def test_bad_group_spec(self, capsys, cycle_path):
        status, _, err = run(capsys, ["count", cycle_path, "--group", "q7"])
        assert status == 1
        assert err.startswith("error: domain:")

    def test_unknown_subcommand_exits_nonzero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 1
        assert capsys.readouterr().err.startswith("error: usage: argument command: invalid choice")

    def test_usage_errors_exit_1_and_help_exits_0(self, capsys, k3_path):
        # Exit 2 is kept for a verify mismatch.
        for argv in (["poly"], ["count", k3_path], ["matroid", "count", "--matrix", k3_path]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 1, argv
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("error: usage: "), argv
            assert err.splitlines()[1].startswith("usage: nlflow "), argv
        with pytest.raises(SystemExit) as exc:
            main(["poly", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: nlflow poly")


class TestReport:
    def test_schema_and_timing(self, capsys, k3_path):
        status, out, err = run(capsys, ["--report", "poly", k3_path])
        assert status == 0 and out == "x-1\n"
        report = json.loads(err)
        assert report["schema"] == 1
        assert report["command"] == "poly"
        assert report["outputs"]["text"] == "x-1"
        assert report["timing_ms"] >= 0

    def test_verify_digest_names_the_catalog(self, capsys):
        reports = []
        for max_m in ("3", "4"):
            argv = ["--report", "verify", "--max-n", "2", "--max-k", "2", "--max-m", max_m]
            status, _, err = run(capsys, argv)
            assert status == 0
            reports.append(json.loads(err))
        assert reports[0]["input_digest"] != reports[1]["input_digest"]

    def test_result_stream_deterministic(self, capsys, k3_path):
        runs = [run(capsys, ["--report", "poly", k3_path]) for _ in range(2)]
        assert runs[0][1] == runs[1][1]
        # Reports differ only in timing.
        r0 = json.loads(runs[0][2])
        r1 = json.loads(runs[1][2])
        r0.pop("timing_ms")
        r1.pop("timing_ms")
        assert r0 == r1
