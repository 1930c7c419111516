"""Closed forms for complete (acyclic) digraphs, term-level shortcuts, and
witness constructions.
"""

import subprocess
import sys
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, strategies as st
from reference_tournaments import compositions, constant_term, leading_terms, linear_term

from nlflow import (
    BudgetExceededError,
    IntPolynomial,
    complete_acyclic_digraph,
    complete_acyclic_nl_poly,
    complete_digraph_nl_poly,
    complete_digraph_witness,
    nl_flow_polynomial,
    strong_tournament,
)
from nlflow import tournaments
from nlflow.digraphs import is_totally_cyclic, strongly_connected_components

def composition_sum(sizes) -> IntPolynomial:
    """The condensation formula summed term by term: over every
    composition of the d components into blocks of consecutive ones, sign
    (-1)^(blocks + 1) times x^C(n_j - 1, 2) per block of n_j vertices.
    2^(d-1) compositions; the reference for the prefix recursion.
    """
    d = len(sizes)
    prefix = [0]
    for k in sizes:
        prefix.append(prefix[-1] + k)
    coeffs = {}
    for p in range(1, d + 1):
        for parts in compositions(d, p):
            e = at = 0
            for dj in parts:
                e += comb(prefix[at + dj] - prefix[at] - 1, 2)
                at += dj
            coeffs[e] = coeffs.get(e, 0) + (-1) ** (p + 1)
    return IntPolynomial(coeffs)


def size_tuples(total):
    """Every tuple of positive sizes summing to total."""
    if total == 0:
        yield ()
    for first in range(1, total + 1):
        for rest in size_tuples(total - first):
            yield (first, *rest)


TABLE = {
    1: "1",
    2: "0",
    3: "x-1",
    4: "x^3-2x+1",
    5: "x^6-2x^3+x",
    6: "x^10-2x^6+x^3-x^2+2x-1",
    7: "x^15-2x^10+x^6-2x^4+2x^3+3x^2-4x+1",
    8: "x^21-2x^15+x^10-2x^7+x^6+6x^4-4x^3-3x^2+2x",
}


class TestCompositions:
    def test_n3_p2(self):
        assert list(compositions(3, 2)) == [(1, 2), (2, 1)]

    def test_single_part(self):
        assert list(compositions(4, 1)) == [(4,)]

    def test_count(self):
        assert len(list(compositions(5, 3))) == comb(4, 2) == 6

    def test_domain(self):
        with pytest.raises(ValueError):
            compositions(3, 4)
        with pytest.raises(ValueError):
            compositions(3, 0)

    @given(st.integers(1, 8), st.integers(1, 8))
    def test_all_valid_and_distinct(self, n, p):
        if p > n:
            return
        parts = list(compositions(n, p))
        assert len(parts) == len(set(parts)) == comb(n - 1, p - 1)
        assert all(sum(c) == n and all(x >= 1 for x in c) for c in parts)


class TestClosedForm:
    def test_table_rows(self):
        for n, text in TABLE.items():
            assert complete_acyclic_nl_poly(n).to_text() == text

    def test_domain(self):
        with pytest.raises(ValueError):
            complete_acyclic_nl_poly(0)

    def test_matches_lattice_formula_small(self):
        for n in range(1, 7):
            assert complete_acyclic_nl_poly(n) == nl_flow_polynomial(
                complete_acyclic_digraph(n)
            )


class TestCondensationFormula:
    def test_all_singletons_reduces(self):
        for n in range(1, 8):
            assert complete_digraph_nl_poly((1,) * n) == complete_acyclic_nl_poly(n)

    def test_fig2_sizes(self):
        assert complete_digraph_nl_poly((1, 4, 1)) == IntPolynomial(
            {10: 1, 6: -2, 3: 1}
        )

    def test_single_strong_component(self):
        for n in (1, 3, 5):
            assert complete_digraph_nl_poly((n,)) == IntPolynomial(
                {comb(n - 1, 2): 1}
            )

    def test_equals_composition_sum(self):
        # All 1023 size tuples with total <= 10; up to 512 compositions each.
        for total in range(1, 11):
            for sizes in size_tuples(total):
                assert complete_digraph_nl_poly(sizes) == composition_sum(sizes), sizes

    def test_domain(self):
        with pytest.raises(ValueError):
            complete_digraph_nl_poly(())
        with pytest.raises(ValueError):
            complete_digraph_nl_poly((0, 2))


class TestClosedFormBudget:
    @pytest.mark.parametrize(
        "blocks, vertices, charge",
        [(1, 1, 1), (1, 10**6, 1), (2, 200000, 6), (3, 6, 24), (100, 100, 5050 * 4852), (64, 64, 2080 * 1954)],
    )
    def test_charge_is_steps_times_terms(self, blocks, vertices, charge):
        # min(C(n-1, 2) + 1, 2^(d-1)) terms in each of d(d+1)/2 steps.
        tournaments.check_closed_form_budget(blocks, vertices, charge)
        with pytest.raises(BudgetExceededError):
            tournaments.check_closed_form_budget(blocks, vertices, charge - 1)

    def test_both_closed_forms_refuse_over_the_budget(self):
        with pytest.raises(BudgetExceededError):
            complete_acyclic_nl_poly(4, budget=39)
        assert complete_acyclic_nl_poly(4, budget=40) == IntPolynomial({3: 1, 1: -2, 0: 1})
        with pytest.raises(BudgetExceededError):
            complete_digraph_nl_poly((1, 4, 1), budget=23)

    def test_imports_no_numpy(self):
        # The closed forms stay pure Python: the module loads, without the
        # package's __init__, while numpy cannot be imported.
        src = Path(tournaments.__file__).parent
        code = (
            "import sys, types; sys.modules['numpy'] = None; "
            f"pkg = types.ModuleType('nlflow'); pkg.__path__ = [{str(src)!r}]; "
            "sys.modules['nlflow'] = pkg; import nlflow.tournaments as t; "
            "print(t.complete_acyclic_nl_poly(4).to_text())"
        )
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert out.stdout == "x^3-2x+1\n"


class TestTermPropositions:
    def test_constant_examples(self):
        assert constant_term(6) == -1
        assert constant_term(1) == 1
        assert constant_term(2) == 0

    def test_linear_examples(self):
        assert linear_term(7) == -4
        assert linear_term(6) == 2
        with pytest.raises(ValueError):
            linear_term(3)

    def test_leading_examples(self):
        assert leading_terms(7) == [(15, 1), (10, -2)]
        with pytest.raises(ValueError):
            leading_terms(3)

    def test_recursion(self):
        for n in range(3, 41):
            assert constant_term(n) == -(constant_term(n - 1) + constant_term(n - 2))

    def test_agree_with_polynomial(self):
        # Up to n = 40, whose 2^39 compositions the prefix recursion skips.
        for n in range(4, 41):
            poly = complete_acyclic_nl_poly(n)
            assert poly.coefficient(0) == constant_term(n)
            assert poly.coefficient(1) == linear_term(n)
            (e1, c1), (e2, c2) = leading_terms(n)
            assert poly.degree == e1 and poly.coefficient(e1) == c1
            assert poly.coefficient(e2) == c2


class TestWitnesses:
    def test_strong_tournament_is_strong(self):
        for k in (1, 3, 4, 5, 6, 7):
            t = strong_tournament(k)
            assert t.m == comb(k, 2)
            assert len(strongly_connected_components(t)) == 1
            assert k == 1 or is_totally_cyclic(t)

    def test_size_two_rejected(self):
        with pytest.raises(ValueError):
            strong_tournament(2)
        with pytest.raises(ValueError):
            complete_digraph_witness((1, 2, 1))

    def test_witness_condensation_sizes(self):
        for sizes in ((1, 4, 1), (3, 3), (1, 1, 1, 1), (5,)):
            d = complete_digraph_witness(sizes)
            assert d.n == sum(sizes)
            assert d.m == comb(d.n, 2)
            got = tuple(len(c) for c in strongly_connected_components(d))
            assert got == sizes

    def test_witness_agrees_with_formula(self):
        d = complete_digraph_witness((1, 4, 1))
        assert nl_flow_polynomial(d) == complete_digraph_nl_poly((1, 4, 1))
