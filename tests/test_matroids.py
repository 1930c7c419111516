"""Regular-matroid (TU matrix) side: TU certificates, kernel counting,
total cyclicity with Farkas certificates, contraction, and agreement with
the graph oracles.
"""

from fractions import Fraction
from functools import partial
from itertools import combinations, product

import pytest
from reference_counters import (
    count_group_kernel,
    count_nl_group_flows_naive,
    count_nl_integer_kflows_matroid_naive,
)

from nlflow import (
    BudgetExceededError,
    Digraph,
    TUMatrix,
    contract_matroid,
    count_nl_group_flows,
    count_nl_group_flows_matroid,
    count_nl_integer_kflows,
    count_nl_integer_kflows_matroid,
    cyclic,
    farkas_certificate,
    is_totally_cyclic,
    is_totally_cyclic_matroid,
    is_totally_unimodular,
    read_matrix,
    write_matrix,
)
from nlflow.digraphs import contract, incidence_matrix
from nlflow.groups import AbelianGroup
from nlflow.linalg import rref
from nlflow.matroids import _support_contraction_cyclic, fit_integer_flow_polynomial_matroid

# [I5 | A] represents R10, which is neither graphic nor cographic.
R10 = TUMatrix(
    tuple(
        tuple(int(i == j) for j in range(5)) + row
        for i, row in enumerate(
            (
                (-1, 1, 0, 0, 1),
                (1, -1, 1, 0, 0),
                (0, 1, -1, 1, 0),
                (0, 0, 1, -1, 1),
                (1, 0, 0, 1, -1),
            )
        )
    )
)


def inc(d: Digraph) -> TUMatrix:
    return TUMatrix.from_digraph(d)


def cographic(d: Digraph) -> TUMatrix:
    """[-E^T | I] from the rref [I | E] of the incidence matrix, in arc
    order: its kernel is the tension space of d."""
    rows, pivots = rref(incidence_matrix(d))
    free = [c for c in range(d.m) if c not in pivots]
    out = []
    for fc in free:
        row = [0] * d.m
        for r, pc in enumerate(pivots):
            row[pc] = -int(rows[r][fc])
        row[fc] = 1
        out.append(tuple(row))
    return TUMatrix(tuple(out))


class TestTUMatrix:
    def test_entry_validation(self):
        with pytest.raises(ValueError):
            TUMatrix(((2, 0),))
        with pytest.raises(ValueError):
            TUMatrix(((1, 0), (1,)))

    def test_round_trip(self):
        m = TUMatrix(((1, -1, 0), (0, 1, -1)))
        text = write_matrix(m)
        assert text == "2 3\n1 -1 0\n0 1 -1\n"
        assert read_matrix(text) == m

    def test_bad_files(self):
        for bad in ("", "1 2\n", "1 2\n1 0 0\n"):
            with pytest.raises(ValueError):
                read_matrix(bad)


class TestTotallyUnimodular:
    def test_incidence_matrices_are_tu(self, catalog_small):
        for d in catalog_small[:80]:
            assert is_totally_unimodular(inc(d))

    def test_non_tu(self):
        assert not is_totally_unimodular(TUMatrix(((1, 1), (1, -1))))

    def test_single_row(self):
        assert is_totally_unimodular(TUMatrix(((1, 1),)))

    def test_size_guard(self):
        big = TUMatrix(tuple(tuple(0 for _ in range(9)) for _ in range(9)))
        with pytest.raises(BudgetExceededError):
            is_totally_unimodular(big)


class TestGroupKernel:
    def test_examples(self):
        assert count_group_kernel(TUMatrix(((1, 1),)), cyclic(3)) == 3
        assert count_group_kernel(TUMatrix(((1, -1),)), cyclic(2)) == 2

    def test_reduced_cycle_incidence(self):
        m = TUMatrix(((1, 0, -1), (-1, 1, 0)))
        assert count_group_kernel(m, cyclic(2)) == 2

    def test_rank_deficient_rejected(self):
        with pytest.raises(ValueError):
            count_group_kernel(TUMatrix(((1, 1), (1, 1))), cyclic(2))


class TestTotalCyclicity:
    def test_cycle_true(self):
        m = TUMatrix(((1, 0, -1), (-1, 1, 0)))
        assert is_totally_cyclic_matroid(m)

    def test_single_arc_false(self, single_arc):
        assert not is_totally_cyclic_matroid(inc(single_arc))

    def test_no_columns_true(self):
        assert is_totally_cyclic_matroid(TUMatrix(()))

    def test_agrees_with_graph(self, catalog_small):
        for d in catalog_small:
            assert is_totally_cyclic_matroid(inc(d)) == is_totally_cyclic(d), d


class TestFarkasCertificate:
    def test_exactly_one_side(self, catalog_small):
        for d in catalog_small[:200]:
            m = inc(d)
            kind, vec = farkas_certificate(m)
            if kind == "positive":
                # Strictly positive kernel vector.
                assert all(x >= 1 for x in vec)
                for row in m.rows:
                    assert sum(Fraction(a) * x for a, x in zip(row, vec)) == 0
            else:
                # Nonnegative nonzero row-space vector; its inner product
                # with any strictly positive kernel vector would be both
                # zero (orthogonality) and positive, so no such vector
                # can exist: the two certificates exclude each other.
                assert kind == "obstruction"
                assert all(x >= 0 for x in vec) and any(x > 0 for x in vec)
                from nlflow.linalg import matrix_rank

                rows = [list(r) for r in m.rows]
                assert matrix_rank(rows) == matrix_rank(rows + [list(vec)])


class TestContraction:
    def test_contract_all_columns(self, single_arc):
        c = contract_matroid(inc(single_arc), {0})
        assert c.is_totally_cyclic()

    def test_contract_nothing(self, catalog_small):
        for d in catalog_small[:50]:
            m = inc(d)
            assert contract_matroid(m, frozenset()).is_totally_cyclic() == (
                is_totally_cyclic_matroid(m)
            )

    def test_matches_graph_contraction(self, catalog_small):
        for d in catalog_small:
            if d.m > 4:
                continue
            m = inc(d)
            for r in range(d.m + 1):
                for sub in combinations(range(d.m), r):
                    s = frozenset(sub)
                    assert contract_matroid(m, s).is_totally_cyclic() == (
                        is_totally_cyclic(contract(d, s))
                    ), (d, s)

    def test_bad_columns(self, single_arc):
        with pytest.raises(ValueError):
            contract_matroid(inc(single_arc), {5})


class TestMatroidCounts:
    def test_k3_z2(self, k3_acyclic):
        assert count_nl_group_flows_matroid(inc(k3_acyclic), cyclic(2)) == 1

    def test_cycle_integer(self, cycle3):
        assert count_nl_integer_kflows_matroid(inc(cycle3), 3) == 5

    def test_graph_agreement_small(self, catalog_small):
        for d in catalog_small[:300]:
            m = inc(d)
            assert count_nl_group_flows_matroid(m, cyclic(2)) == count_nl_group_flows(
                d, cyclic(2)
            )
            assert count_nl_integer_kflows_matroid(m, 2) == count_nl_integer_kflows(
                d, 2
            )

    def test_existence_parity(self, catalog_small):
        for d in catalog_small[:150]:
            m = inc(d)
            for k in (2, 3):
                assert (count_nl_group_flows_matroid(m, cyclic(k)) > 0) == (
                    count_nl_integer_kflows_matroid(m, k) > 0
                )


class TestGroupCountsAgainstNaive:
    # The shared chunked counter against a tuple-by-tuple walk of G^q.
    GROUPS = [cyclic(1), cyclic(2), cyclic(3), cyclic(4), AbelianGroup((2, 2))]

    @staticmethod
    def check(m, g):
        naive = count_nl_group_flows_naive(m, g, partial(_support_contraction_cyclic, m))
        assert count_nl_group_flows_matroid(m, g) == naive, (m, g.spec())

    def test_graphic_and_cographic(self, catalog_small):
        for d in catalog_small[::12]:
            for m in (inc(d), cographic(d)):
                if m.p == 0:
                    continue
                for g in self.GROUPS:
                    self.check(m, g)

    def test_r10(self):
        for g in (cyclic(2), cyclic(3)):
            self.check(R10, g)

    def test_no_columns(self):
        # One empty assignment, of support mask 0, accepted by the Farkas
        # predicate: exactly one NL-G-flow.
        for m in (TUMatrix(()), TUMatrix(((), ()))):
            for g in self.GROUPS + [AbelianGroup((2, 3))]:
                self.check(m, g)
                assert count_nl_group_flows_matroid(m, g) == 1


class TestIntegerCountsAgainstFullBox:
    # The cotree half-box counter against the test-side (2k-1)^q reference.
    def test_graphic_and_cographic(self, catalog_small):
        for d in catalog_small[::4]:
            for m in (inc(d), cographic(d)):
                if m.p == 0:
                    continue
                for k in (1, 2, 3):
                    assert count_nl_integer_kflows_matroid(
                        m, k
                    ) == count_nl_integer_kflows_matroid_naive(m, k), (m, k)

    def test_r10(self):
        assert is_totally_unimodular(R10, max_dim=5)
        for k in (1, 2, 3):
            assert count_nl_integer_kflows_matroid(
                R10, k
            ) == count_nl_integer_kflows_matroid_naive(R10, k), k

    def test_budget_bounds_the_cotree_box(self):
        # R10 has nullity 5: the k = 3 box is 5^5 = 3125 points, not 5^10.
        assert count_nl_integer_kflows_matroid(R10, 3, budget=10**4) == (
            count_nl_integer_kflows_matroid(R10, 3)
        )
        with pytest.raises(BudgetExceededError, match="nullity"):
            count_nl_integer_kflows_matroid(R10, 3, budget=10**3)


class TestLiftingLemma:
    def test_zk_kernel_elements_lift(self):
        # Every Z_k-kernel element of a small TU matrix lifts to an
        # integer kernel vector congruent mod k with entries bounded by
        # k - 1 in absolute value.
        mats = [
            TUMatrix(((1, 0, -1), (-1, 1, 0))),
            TUMatrix(((1, 1, 0), (0, -1, 1))),
            TUMatrix(((1, -1, 0, 0), (0, 1, -1, 0), (0, 0, 1, -1))),
        ]
        for m in mats:
            for k in (2, 3):
                for x in product(range(k), repeat=m.q):
                    if any(
                        sum(a * v for a, v in zip(row, x)) % k for row in m.rows
                    ):
                        continue
                    lifted = any(
                        all(
                            sum(a * v for a, v in zip(row, y)) == 0
                            for row in m.rows
                        )
                        for y in product(
                            *(
                                [v - k, v] if v else [0]
                                for v in x
                            )
                        )
                        if all(abs(v) <= k - 1 for v in y)
                    )
                    assert lifted, (m, k, x)


class TestMatroidFit:
    def test_cycle(self, cycle3):
        from nlflow import IntPolynomial

        poly = fit_integer_flow_polynomial_matroid(inc(cycle3), [2, 3, 4])
        assert poly == IntPolynomial({1: 2, 0: -1})

    def test_insufficient_points(self, cycle3):
        with pytest.raises(ValueError, match="degree bound 1 plus a held-out witness"):
            fit_integer_flow_polynomial_matroid(inc(cycle3), [2])
