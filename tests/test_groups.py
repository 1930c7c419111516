"""Finite abelian groups: arithmetic (on the test side, in
reference_counters), spec parsing, and isomorphism-class enumeration by
order (reference_equivalence).
"""

import pytest
from hypothesis import given, strategies as st
from reference_counters import group_add, group_elements, group_neg, group_zero
from reference_equivalence import abelian_groups_of_order

import nlflow
from nlflow import AbelianGroup, cyclic, parse_group_spec

groups = st.lists(st.integers(2, 6), max_size=3).map(tuple).map(AbelianGroup)


class TestAbelianGroup:
    def test_orders(self):
        assert cyclic(1).order == 1
        assert cyclic(5).order == 5
        assert AbelianGroup((2, 2)).order == 4

    def test_trivial_group(self):
        g = cyclic(1)
        assert list(group_elements(g)) == [()]
        assert group_zero(g) == ()

    def test_factor_below_two_rejected(self):
        with pytest.raises(ValueError):
            AbelianGroup((1,))

    @given(groups, st.data())
    def test_group_axioms(self, g, data):
        elems = list(group_elements(g))
        assert len(elems) == g.order
        a = data.draw(st.sampled_from(elems))
        b = data.draw(st.sampled_from(elems))
        c = data.draw(st.sampled_from(elems))
        zero = group_zero(g)
        assert group_add(g, a, zero) == a
        assert group_add(g, a, group_neg(g, a)) == zero
        assert group_add(g, a, b) == group_add(g, b, a)
        assert group_add(g, group_add(g, a, b), c) == group_add(g, a, group_add(g, b, c))

    def test_engine_keeps_only_factors_order_and_spec(self):
        g = AbelianGroup((2, 3))
        assert not any(hasattr(g, name) for name in ("elements", "zero", "add", "neg"))
        assert not hasattr(nlflow, "abelian_groups_of_order")


class TestSpecParsing:
    def test_round_trip(self):
        for spec in ("z4", "z2xz2", "z3xz9"):
            assert parse_group_spec(spec).spec() == spec

    def test_trivial(self):
        assert parse_group_spec("z1") == AbelianGroup(())
        assert AbelianGroup(()).spec() == "z1"

    def test_bad_specs(self):
        for bad in ("", "4", "zx", "z0", "q3"):
            with pytest.raises(ValueError):
                parse_group_spec(bad)


class TestGroupsOfOrder:
    def test_order_four(self):
        gs = {g.factors for g in abelian_groups_of_order(4)}
        assert gs == {(4,), (2, 2)}

    def test_order_one(self):
        assert abelian_groups_of_order(1) == [AbelianGroup(())]

    def test_prime_orders_unique(self):
        for p in (2, 3, 5, 7):
            assert len(abelian_groups_of_order(p)) == 1

    def test_order_eight(self):
        gs = {g.factors for g in abelian_groups_of_order(8)}
        assert gs == {(8,), (4, 2), (2, 2, 2)}

    def test_order_twelve(self):
        gs = {tuple(sorted(g.factors)) for g in abelian_groups_of_order(12)}
        assert gs == {(3, 4), (2, 2, 3)}

    @given(st.integers(1, 30))
    def test_all_have_right_order(self, k):
        for g in abelian_groups_of_order(k):
            assert g.order == k
