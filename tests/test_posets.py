"""Moebius function on finite posets: defining recursion, Boolean-lattice
values, and inversion from above.
"""

from itertools import combinations

from hypothesis import given, strategies as st
from reference_lattice import build_cut_lattice

from nlflow.posets import FinitePoset


def mobius_inversion_check(p: FinitePoset, f, g) -> bool:
    """Inversion from above: evaluates both

        f(x) = sum_{y >= x} g(y)          for all x
        g(x) = sum_{y >= x} mu(x, y) f(y)  for all x

    and reports whether the two statements agree (both hold or both fail).
    """
    direct = all(
        f(x) == sum(g(y) for y in p.elements if p.leq(x, y)) for x in p.elements
    )
    inverted = all(
        g(x) == sum(p.mobius(x, y) * f(y) for y in p.elements if p.leq(x, y))
        for x in p.elements
    )
    return direct == inverted


def boolean_lattice(r: int) -> FinitePoset:
    elems = [frozenset(c) for size in range(r + 1) for c in combinations(range(r), size)]
    return FinitePoset(elems, lambda a, b: a <= b)


class TestMobius:
    def test_diagonal_is_one(self):
        p = boolean_lattice(3)
        assert all(p.mobius(x, x) == 1 for x in p.elements)

    def test_two_chain(self):
        p = FinitePoset([0, 1], lambda a, b: a <= b)
        assert p.mobius(0, 1) == -1
        assert p.mobius(1, 0) == 0

    def test_boolean_rank2_top(self):
        p = boolean_lattice(2)
        assert p.mobius(frozenset(), frozenset({0, 1})) == 1

    def test_boolean_alternation(self):
        # mu(bottom, J) = (-1)^|J| on every Boolean lattice.
        for r in range(5):
            p = boolean_lattice(r)
            bottom = frozenset()
            for j in p.elements:
                assert p.mobius(bottom, j) == (-1) ** len(j)

    def test_incomparable_is_zero(self):
        p = boolean_lattice(2)
        assert p.mobius(frozenset({0}), frozenset({1})) == 0

    def test_recurrence_sums_to_zero(self):
        p = boolean_lattice(4)
        for x in p.elements:
            for y in p.elements:
                if p.leq(x, y) and x != y:
                    total = sum(
                        p.mobius(x, z)
                        for z in p.elements
                        if p.leq(x, z) and p.leq(z, y)
                    )
                    assert total == 0


class TestInversionCheck:
    def test_single_element(self):
        p = FinitePoset(["a"], lambda a, b: True)
        assert mobius_inversion_check(p, lambda x: 7, lambda x: 7)

    def test_boolean_zeta_transform(self):
        p = boolean_lattice(2)
        top = frozenset({0, 1})
        g = {x: (1 if x == top else 0) for x in p.elements}
        f = {x: sum(g[y] for y in p.elements if p.leq(x, y)) for x in p.elements}
        assert mobius_inversion_check(p, f.__getitem__, g.__getitem__)

    def test_dicut_lattice_flow_counts(self, k3_acyclic):
        # f(B) = #flows supported inside B = k^(|B|-rk(B)); g = the
        # Moebius-inverted NL counts. Inversion must hold at k = 2.
        from nlflow.digraphs import rank
        from nlflow.oracles import count_nl_group_flows
        from nlflow.groups import cyclic
        from nlflow.digraphs import contract, is_totally_cyclic

        lattice = build_cut_lattice(k3_acyclic)
        p = lattice.poset
        k = 2

        def f(b):
            return k ** (len(b) - rank(k3_acyclic, b))

        # g(B) = #flows with support exactly generating B-level NL counts:
        # recover it by inversion and cross-check the top value against the
        # brute-force NL count.
        g = {
            b: sum(p.mobius(b, c) * f(c) for c in p.elements if p.leq(b, c))
            for b in p.elements
        }
        assert mobius_inversion_check(p, f, g.__getitem__)
        assert g[lattice.top] == count_nl_group_flows(k3_acyclic, cyclic(k))


@given(st.integers(0, 6))
def test_boolean_top_mu(r):
    p = boolean_lattice(min(r, 5))
    bottom = frozenset()
    top = frozenset(range(min(r, 5)))
    assert p.mobius(bottom, top) == (-1) ** len(top)
