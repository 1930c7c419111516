"""The digraph catalog against the one-candidate-at-a-time reference
generator and against Burnside orbit counts, and the checks that refuse a
catalog or a sweep before any enumeration.
"""

from collections import Counter
from itertools import permutations
from math import factorial

import pytest
import reference_catalog

from nlflow import catalog
from nlflow.catalog import digraph_catalog, verify_coloring_identity, verify_flow_counts
from nlflow.cli import main
from nlflow.errors import BudgetExceededError


def orbit_count(n: int, m: int) -> int:
    """Isomorphism classes of m-arc multisets on n vertices by Burnside's
    lemma: (1/n!) * sum over relabelings p of the multisets p fixes.  A
    fixed multiset takes each cycle of p on the n^2 arc types a whole
    number of times, so p fixes the coefficient of x^m in
    prod over cycles of 1 / (1 - x^length).
    """
    total = 0
    for p in permutations(range(n)):
        seen = set()
        fixed = [1] + [0] * m
        for start in range(n * n):
            length, a = 0, start
            while a not in seen:
                seen.add(a)
                length += 1
                a = p[a // n] * n + p[a % n]
            if length:
                for s in range(length, m + 1):
                    fixed[s] += fixed[s - length]
        total += fixed[m]
    assert total % factorial(n) == 0
    return total // factorial(n)


@pytest.mark.parametrize("max_n, max_m", [(4, 6), (5, 3), (2, 40)])
def test_equals_reference_in_order(max_n, max_m):
    # At (2, 40) a key packing the 40 arc codes base 4 would need 80 bits.
    assert digraph_catalog(max_n, max_m) == reference_catalog.digraph_catalog(max_n, max_m)


@pytest.mark.parametrize("max_n, max_m", [(4, 6), (5, 3), (2, 40)])
def test_class_counts_are_burnside_orbit_counts(max_n, max_m):
    counts = Counter((d.n, d.m) for d in digraph_catalog(max_n, max_m))
    for n in range(1, max_n + 1):
        for m in range(max_m + 1):
            assert counts[n, m] == orbit_count(n, m), (n, m)


def test_full_catalog_size_and_budget_boundary():
    full = digraph_catalog(4, 6, budget=7 + 420 + 30030 + 1790712)
    assert len(full) == 4388


class TestRefusals:
    @pytest.fixture(autouse=True)
    def no_enumeration(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the catalog enumerated before its checks")

        monkeypatch.setattr(catalog, "combinations_with_replacement", refuse)

    def test_budget_refused_below_every_candidate_test(self):
        # 1*C(7,6) + 2*C(10,6) + 6*C(15,6) + 24*C(22,6) candidate tests.
        with pytest.raises(BudgetExceededError):
            digraph_catalog(4, 6, budget=7 + 420 + 30030 + 1790712 - 1)

    def test_default_budget_admits_five_vertices_six_arcs(self):
        # About 9.0e7 candidate tests: the budget admits them, so the
        # enumeration starts; one more arc is refused before it does.
        with pytest.raises(AssertionError, match="enumerated"):
            digraph_catalog(5, 6)
        with pytest.raises(BudgetExceededError):
            digraph_catalog(5, 7)

    @pytest.mark.parametrize("sweep", [verify_flow_counts, verify_coloring_identity])
    @pytest.mark.parametrize(
        "max_n, max_k, max_m", [(0, 3, 6), (-1, 3, 6), (3, 3, -1), (3, 0, 6)]
    )
    def test_empty_sweeps_refused(self, sweep, max_n, max_k, max_m):
        with pytest.raises(ValueError):
            sweep(max_n, max_k, max_m)

    def test_cli_budget(self, capsys):
        status = main(["--budget", "10", "verify", "--max-n", "6", "--max-m", "6"])
        out, err = capsys.readouterr()
        assert status == 1 and out == ""
        assert err.startswith("error: budget:")

    @pytest.mark.parametrize(
        "flags", [["--max-n", "0"], ["--max-n", "-1"], ["--max-m", "-1"], ["--max-k", "0"]]
    )
    def test_cli_empty_sweeps(self, capsys, flags):
        status = main(["verify", *flags])
        out, err = capsys.readouterr()
        assert status == 1 and out == ""
        assert err.startswith("error: domain:")


class TestFlowSweepCounts:
    @pytest.mark.parametrize("max_k, groups", [(3, 3), (4, 5), (5, 6)])
    def test_one_count_per_group_and_digraph(self, monkeypatch, max_k, groups):
        # The Z4 count of the k loop also serves the group-independence
        # check against Z2 x Z2: each group is counted once per digraph.
        calls = Counter()
        count = catalog.count_nl_group_flows

        def spy(d, g, budget):
            calls[d, g] += 1
            return count(d, g, budget)

        monkeypatch.setattr(catalog, "count_nl_group_flows", spy)
        report = verify_flow_counts(2, max_k, 3)
        graphs = digraph_catalog(2, 3)
        assert {d for d, _ in calls} == set(graphs)
        assert set(calls.values()) == {1} and len(calls) == groups * len(graphs)
        assert report.ok and report.checked == len(graphs) * (max_k + (max_k >= 4))
