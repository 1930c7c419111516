"""Brute-force oracles: group flows, integer flows (one-pass half-box
enumerator vs the full-box reference), acyclic colorings, equivalence, and
polynomiality fits.
"""

from functools import partial

import pytest
from hypothesis import given, settings, strategies as st
from reference_counters import (
    count_nl_group_flows_naive,
    count_nl_integer_kflows_naive,
    full_box_histogram,
    is_group_flow,
)

from nlflow import (
    BudgetExceededError,
    Digraph,
    IntPolynomial,
    check_equivalence_theorem,
    count_acyclic_colorings,
    count_nl_group_flows,
    count_nl_integer_kflows,
    cyclic,
    fit_integer_flow_polynomial,
    is_totally_cyclic,
)
from nlflow.cuts import is_dijoin
from nlflow.digraphs import incidence_matrix, rank
from nlflow.groups import AbelianGroup
from nlflow.matroids import TUMatrix, fit_integer_flow_polynomial_matroid
from nlflow import oracles
from nlflow.oracles import _support_cyclic, kernel_height_histogram, kernel_nullity


class TestIsGroupFlow:
    def test_cycle_constants(self, cycle3):
        g = cyclic(5)
        for v in range(5):
            assert is_group_flow(cycle3, g, {0: (v,), 1: (v,), 2: (v,)})

    def test_single_arc_nonzero(self, single_arc):
        assert not is_group_flow(single_arc, cyclic(2), {0: (1,)})
        assert is_group_flow(single_arc, cyclic(2), {0: (0,)})

    def test_k3_all_ones_mod2(self, k3_acyclic):
        assert is_group_flow(k3_acyclic, cyclic(2), {0: (1,), 1: (1,), 2: (1,)})

    def test_loop_never_violates(self):
        d = Digraph(1, ((0, 0),))
        assert is_group_flow(d, cyclic(3), {0: (2,)})


class TestCountGroupFlows:
    def test_cycle3_z2(self, cycle3):
        assert count_nl_group_flows(cycle3, cyclic(2)) == 2

    def test_k3_z2(self, k3_acyclic):
        assert count_nl_group_flows(k3_acyclic, cyclic(2)) == 1

    def test_single_arc_any_group(self, single_arc):
        for g in (cyclic(2), cyclic(3), AbelianGroup((2, 2))):
            assert count_nl_group_flows(single_arc, g) == 0

    def test_trivial_group(self, k3_acyclic, cycle3):
        assert count_nl_group_flows(cycle3, cyclic(1)) == 1
        assert count_nl_group_flows(k3_acyclic, cyclic(1)) == 0

    def test_budget_guard(self, cycle3):
        with pytest.raises(BudgetExceededError):
            count_nl_group_flows(cycle3, cyclic(3), budget=10)

    def test_supports_are_exactly_dijoins(self, catalog_small):
        # Prop: an assignment counts iff it is a flow whose support is a
        # dijoin; re-filter the enumeration through is_dijoin.
        from itertools import product

        g = cyclic(2)
        for d in catalog_small:
            if d.m > 4:
                continue
            brute = 0
            for vals in product(range(2), repeat=d.m):
                f = {j: (v,) for j, v in enumerate(vals)}
                if is_group_flow(d, g, f):
                    supp = frozenset(j for j, v in enumerate(vals) if v)
                    if is_dijoin(d, supp):
                        brute += 1
            assert brute == count_nl_group_flows(d, g)


class TestGroupCountsAgainstNaive:
    # The shared chunked counter against a tuple-by-tuple walk of G^m.
    GROUPS = [cyclic(1), cyclic(2), cyclic(3), cyclic(4), AbelianGroup((2, 2))]

    @staticmethod
    def naive(d, g):
        return count_nl_group_flows_naive(TUMatrix.from_digraph(d), g, partial(_support_cyclic, d))

    @pytest.mark.parametrize("g", GROUPS, ids=lambda g: g.spec())
    def test_catalog(self, catalog_small, g):
        for d in catalog_small:
            assert count_nl_group_flows(d, g) == self.naive(d, g), (d, g.spec())

    def test_catalog_z2xz3(self, catalog_small):
        g = AbelianGroup((2, 3))
        for d in catalog_small:
            if d.m <= 4:
                assert count_nl_group_flows(d, g) == self.naive(d, g), d

    def test_arcless(self):
        # One empty assignment, of support mask 0: an arcless digraph is
        # totally cyclic, so it has exactly one NL-G-flow.
        for d in (Digraph(1, ()), Digraph(3, ())):
            for g in self.GROUPS + [AbelianGroup((2, 3))]:
                assert count_nl_group_flows(d, g) == self.naive(d, g) == 1, (d, g.spec())

    @pytest.mark.parametrize("chunk", [1, 20])
    def test_chunks(self, monkeypatch, catalog_small, chunk):
        monkeypatch.setattr(oracles, "_CHUNK", chunk)
        for d in catalog_small[::50]:
            for g in (cyclic(3), AbelianGroup((2, 2))):
                assert count_nl_group_flows(d, g) == self.naive(d, g), (d, g.spec())


class TestCountIntegerFlows:
    def test_cycle3(self, cycle3):
        for k in (1, 2, 3, 4):
            assert count_nl_integer_kflows(cycle3, k) == max(2 * k - 1, 0)
        assert count_nl_integer_kflows(cycle3, 3) == 5

    def test_k3_k2(self, k3_acyclic):
        assert count_nl_integer_kflows(k3_acyclic, 2) == 2

    def test_single_arc(self, single_arc):
        for k in (1, 2, 5):
            assert count_nl_integer_kflows(single_arc, k) == 0

    def test_k_below_one_rejected(self, cycle3):
        with pytest.raises(ValueError):
            count_nl_integer_kflows(cycle3, 0)

    def test_cotree_equals_naive(self, catalog_small):
        # The fast cotree enumeration and the full-box reference must
        # agree everywhere.
        for d in catalog_small:
            for k in (1, 2, 3):
                assert count_nl_integer_kflows(d, k) == count_nl_integer_kflows_naive(
                    d, k
                ), (d, k)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4), st.integers(0, 5), st.data())
    def test_cotree_equals_naive_random(self, n, m, data):
        arcs = tuple(
            (data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1)))
            for _ in range(m)
        )
        d = Digraph(n, arcs)
        k = data.draw(st.integers(1, 3))
        assert count_nl_integer_kflows(d, k) == count_nl_integer_kflows_naive(d, k)


class TestKernelHeightHistogram:
    # The doubled half box plus the zero flow must reproduce the full box
    # exactly, by support mask and height.
    EDGE_CASES = (
        Digraph(1, ()),  # m = 0
        Digraph(3, ()),
        Digraph(3, ((0, 1), (1, 2))),  # nullity 0: only the zero flow
        Digraph(2, ((0, 1),)),
        Digraph(1, ((0, 0),)),  # loops
        Digraph(1, ((0, 0), (0, 0), (0, 0))),
        Digraph(2, ((0, 0), (0, 1), (1, 0), (1, 1))),
    )

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_edge_cases_equal_full_box(self, k):
        for d in self.EDGE_CASES:
            inc = incidence_matrix(d)
            assert (
                kernel_height_histogram(inc, d.m, k) == full_box_histogram(inc, d.m, k)
            ).all(), (d, k)

    def test_catalog_equals_full_box(self, catalog_small):
        for d in catalog_small[::3]:
            inc = incidence_matrix(d)
            for k in (1, 2, 3):
                assert (
                    kernel_height_histogram(inc, d.m, k) == full_box_histogram(inc, d.m, k)
                ).all(), (d, k)

    @pytest.mark.parametrize("chunk", [1, 4, 20])
    def test_batches_equal_full_box(self, monkeypatch, catalog_small, chunk):
        # Small chunks split the box into leading-coordinate batches and,
        # below 2k-1 points, force a one-coordinate trailing block.
        monkeypatch.setattr(oracles, "_CHUNK", chunk)
        for d in catalog_small[::5] + self.EDGE_CASES:
            inc = incidence_matrix(d)
            for k in (1, 2, 3):
                assert (
                    kernel_height_histogram(inc, d.m, k) == full_box_histogram(inc, d.m, k)
                ).all(), (d, k)

    def test_non_unimodular_matrix_is_exact(self):
        # The cotree expression of this matrix has denominator 2, so only
        # the even free values give integer kernel points.
        rows = ((1, 1, 0), (1, -1, 1))
        for k in (1, 2, 3, 4):
            assert (kernel_height_histogram(rows, 3, k) == full_box_histogram(rows, 3, k)).all()

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 3), st.integers(0, 5), st.data())
    def test_random_matrices_equal_full_box(self, p, q, data):
        rows = tuple(
            tuple(data.draw(st.integers(-1, 1)) for _ in range(q)) for _ in range(p)
        )
        k = data.draw(st.integers(1, 3))
        assert (kernel_height_histogram(rows, q, k) == full_box_histogram(rows, q, k)).all()

    def test_budget_bounds_the_histogram(self):
        # Nullity 0: the box is one point, but the histogram has k * 2^m cells.
        path = Digraph(41, tuple((i, i + 1) for i in range(40)))
        with pytest.raises(BudgetExceededError):
            count_nl_integer_kflows(path, 2)
        with pytest.raises(BudgetExceededError):
            count_nl_group_flows(path, cyclic(1))
        assert count_nl_integer_kflows(Digraph(5, path.arcs[:4]), 2) == 0

    def test_masks_wider_than_62_bits_are_refused(self):
        # int64 support masks: no budget admits a histogram over 63 columns.
        oracles.check_histogram_budget(1, 62, 1 << 62)
        with pytest.raises(BudgetExceededError):
            oracles.check_histogram_budget(1, 63, 10**30)


class TestAcyclicColorings:
    def test_cycle3_k2(self, cycle3):
        assert count_acyclic_colorings(cycle3, 2) == 6

    def test_k3_k2(self, k3_acyclic):
        assert count_acyclic_colorings(k3_acyclic, 2) == 8

    def test_k1_iff_acyclic(self, catalog_small):
        for d in catalog_small:
            if any(t == h for t, h in d.arcs):
                continue
            from nlflow import is_acyclic

            assert count_acyclic_colorings(d, 1) == (1 if is_acyclic(d) else 0)

    def test_loop_rejected(self):
        with pytest.raises(ValueError):
            count_acyclic_colorings(Digraph(1, ((0, 0),)), 2)


class TestEquivalence:
    def test_k3_k2(self, k3_acyclic):
        assert check_equivalence_theorem(k3_acyclic, 2)

    def test_single_arc_k3(self, single_arc):
        assert check_equivalence_theorem(single_arc, 3)

    def test_positive_phi_implies_integer_flow(self, catalog_small):
        from nlflow import nl_flow_polynomial

        for d in catalog_small:
            phi = nl_flow_polynomial(d)
            for k in (2, 3):
                assert (phi(k) > 0) == (count_nl_integer_kflows(d, k) > 0), (d, k)


class TestPolynomialityFit:
    def test_cycle3(self, cycle3):
        assert fit_integer_flow_polynomial(cycle3, [2, 3, 4]) == IntPolynomial(
            {1: 2, 0: -1}
        )

    def test_k3(self, k3_acyclic):
        assert fit_integer_flow_polynomial(k3_acyclic, [2, 3, 4]) == IntPolynomial(
            {1: 2, 0: -2}
        )

    def test_arcless(self):
        d = Digraph(2, ())
        assert fit_integer_flow_polynomial(d, [2, 3]) == IntPolynomial.one()

    def test_insufficient_points(self, cycle3):
        with pytest.raises(ValueError, match="degree bound 1 plus a held-out witness"):
            fit_integer_flow_polynomial(cycle3, [2, 3][:1])

    def test_degree_bound_is_the_nullity(self, catalog_small):
        for d in catalog_small:
            assert kernel_nullity(incidence_matrix(d), d.m) == d.m - rank(d, d.all_arcs), d

    def test_one_pass_fit_equals_counts(self, catalog_small):
        for d in catalog_small:
            bound = d.m - rank(d, d.all_arcs)
            if bound > 4:
                continue
            ks = list(range(2, bound + 4))
            poly = fit_integer_flow_polynomial(d, ks)
            for k in ks:
                assert poly(k) == count_nl_integer_kflows(d, k), (d, k)

    def test_matroid_fit_equals_digraph_fit(self, catalog_small):
        for d in catalog_small[::9]:
            bound = d.m - rank(d, d.all_arcs)
            if bound > 4:
                continue
            ks = list(range(2, bound + 4))
            assert fit_integer_flow_polynomial_matroid(
                TUMatrix.from_digraph(d), ks
            ) == fit_integer_flow_polynomial(d, ks), d

    def test_rational_coefficients_possible(self):
        # Four parallel arcs: the count is integer-valued but the cubic
        # interpolant has non-integer coefficients.
        d = Digraph(2, ((0, 1), (0, 1), (0, 1), (0, 1)))
        poly = fit_integer_flow_polynomial(d, [2, 3, 4, 5, 6, 7])
        assert not isinstance(poly, IntPolynomial)
        for k in range(2, 8):
            assert poly(k) == count_nl_integer_kflows(d, k)


def test_totally_cyclic_digraphs_have_positive_counts(catalog_small):
    for d in catalog_small:
        if is_totally_cyclic(d) and d.m <= 4:
            assert count_nl_group_flows(d, cyclic(2)) >= 1
            assert count_nl_integer_kflows(d, 2) >= 1
