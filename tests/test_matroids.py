"""Regular-matroid (TU matrix) side: TU certificates, kernel counting,
total cyclicity with Farkas certificates, the contraction predicate, and
agreement with the graph oracles.
"""

import time
from fractions import Fraction
from functools import lru_cache, partial
from itertools import combinations, product
from math import lcm
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from reference_counters import (
    count_group_kernel,
    count_nl_group_flows_naive,
    dense_group_flow_count,
    count_nl_integer_kflows_matroid_naive,
)
from reference_farkas import reference_farkas_nonneg_solve
from reference_linalg import kernel_basis, reference_cotree_expression, rref_dense

from nlflow import (
    BudgetExceededError,
    Digraph,
    TUMatrix,
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
from nlflow import linalg, matroids, oracles
from nlflow.digraphs import contract, incidence_matrix
from nlflow.groups import AbelianGroup
from nlflow.linalg import farkas_nonneg_solve, int_rref
from nlflow.matroids import (
    _cocircuit_table,
    _support_contraction_cyclic,
    fit_integer_flow_polynomial_matroid,
    positive_span_certificate,
)

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
    rows, pivots = rref_dense(incidence_matrix(d))
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

    def test_round_trip_without_columns(self):
        for p in range(4):
            m = TUMatrix(((),) * p)
            assert read_matrix(write_matrix(m)) == m
        assert write_matrix(TUMatrix(((), ()))) == "2 0\n\n\n"

    def test_bad_files(self):
        for bad in ("", "1 2\n", "1 2\n1 0 0\n", "2 0\n1\n", "0 -1\n"):
            with pytest.raises(ValueError):
                read_matrix(bad)

    def test_no_rows_but_columns_refused(self):
        # TUMatrix stores rows only, so 0 x 3 would become 0 x 0.
        with pytest.raises(ValueError, match="0 rows"):
            read_matrix("0 3\n")


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
                from reference_linalg import matrix_rank

                rows = [list(r) for r in m.rows]
                assert matrix_rank(rows) == matrix_rank(rows + [list(vec)])


class TestFarkasAgainstReference:
    """Every LP behind a certificate or a contraction predicate returns the
    same (status, vector) from the integer tableau as from the reference
    revised simplex.
    """

    @pytest.fixture
    def checked(self, monkeypatch):
        solved = []

        def both(a, b):
            got = farkas_nonneg_solve(a, b)
            assert got == reference_farkas_nonneg_solve(a, b), (a, b)
            solved.append(got[0])
            return got

        monkeypatch.setattr(matroids, "farkas_nonneg_solve", both)
        return solved

    def test_catalog_certificates(self, checked, catalog_full):
        with_columns = 0
        for d in catalog_full:
            for m in (inc(d), cographic(d)):
                farkas_certificate(m)
                with_columns += m.q > 0  # no columns: positive, no LP
        assert len(checked) == with_columns
        assert {"feasible", "infeasible"} <= set(checked)

    def test_r10_contractions(self, checked):
        for mask in range(1 << R10.q):
            _support_contraction_cyclic.__wrapped__(R10, mask)
        assert len(checked) == (1 << R10.q) - 1  # contracting everything leaves no LP


def integral(vectors):
    """Each vector times the lcm of its entries' denominators: integer
    input for the Farkas LP, a positive multiple of the vector.
    """
    scales = (lcm(*(Fraction(x).denominator for x in v)) for v in vectors)
    return [[int(x * scale) for x in v] for v, scale in zip(vectors, scales)]


def scaled_reference_basis(m: TUMatrix):
    """The reference kernel basis of m next to the derived one, checked to
    differ only by a positive factor per vector (the derived vector's
    entry at its free column; the reference has 1 there).
    """
    derived = matroids._kernel_basis(m)
    free = oracles._cotree_expression(m.rows, m.q)[1]
    reference = kernel_basis([list(r) for r in m.rows], m.q)
    assert len(derived) == len(reference) == len(free)
    for v, ref, fc in zip(derived, reference, free):
        assert all(type(x) is int for x in v)
        assert v[fc] > 0 and v == [v[fc] * x for x in ref], (m, v, ref)
    return derived, reference


class TestKernelBasisFromCotree:
    """The Farkas certificate and the contraction predicate read the
    integer kernel basis off the cotree expression the counters walk.  It
    equals the reference basis of tests/reference_linalg.py on TU
    matrices, and is a positive multiple of it vector by vector otherwise,
    which leaves every certificate unchanged.
    """

    def test_equals_reference_on_tu_matrices(self, catalog_full):
        for m in [R10, *(f(d) for d in catalog_full for f in (inc, cographic))]:
            derived, reference = scaled_reference_basis(m)
            assert derived == reference, m

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 6), st.data())
    def test_certificates_equal_reference_on_random_matrices(self, p, q, data):
        # {0, +-1} matrices, TU or not; where denom > 1 the derived vectors
        # are the reference ones times denom.
        m = TUMatrix(
            tuple(tuple(data.draw(st.integers(-1, 1)) for _ in range(q)) for _ in range(p))
        )
        derived, reference = scaled_reference_basis(m)
        reference = integral(reference)
        assert farkas_certificate(m) == positive_span_certificate(reference, q)
        for mask in range(1 << q):
            keep = [c for c in range(q) if not mask >> c & 1]
            want = positive_span_certificate([[v[c] for c in keep] for v in reference], len(keep))
            got = positive_span_certificate([[v[c] for c in keep] for v in derived], len(keep))
            assert got == want, (m, mask)
            assert _support_contraction_cyclic(m, mask) == (want[0] == "positive")

    def test_half_integral_basis(self):
        # rref gives x0 = -x2/2 and x1 = x2/2: the derived vector is the
        # reference one doubled.
        m = TUMatrix(((1, 1, 0), (1, -1, 1)))
        assert oracles._cotree_expression(m.rows, m.q)[3] == 2
        derived, reference = scaled_reference_basis(m)
        assert derived == [[-1, 1, 2]] and reference == [[Fraction(-1, 2), Fraction(1, 2), 1]]
        assert farkas_certificate(m) == positive_span_certificate(integral(reference), 3)

    def test_one_rref_per_matrix(self, monkeypatch):
        # Counts, fit, certificate and every contraction predicate of a
        # fresh matrix share one row reduction, kept in the one slot.
        assert oracles._kernel.cache_info().maxsize == 1
        m = cographic(Digraph(3, ((0, 1), (1, 2), (2, 0), (0, 2), (1, 0))))
        calls = []

        def spy(mat):
            calls.append(mat)
            return int_rref(mat)

        monkeypatch.setattr(oracles, "int_rref", spy)
        monkeypatch.setattr(linalg, "int_rref", spy)
        for name in ("_kernel", "_digraph_kernel"):
            getattr(oracles, name).cache_clear()
        count_nl_group_flows_matroid(m, cyclic(3))
        count_nl_integer_kflows_matroid(m, 3)
        fit_integer_flow_polynomial_matroid(m, range(1, 7))
        farkas_certificate(m)
        is_totally_cyclic_matroid(m)
        for mask in range(1 << m.q):
            _support_contraction_cyclic(m, mask)
            _support_contraction_cyclic.__wrapped__(m, mask)
        assert len(calls) == 1


class TestCotreeExpressionAgainstReference:
    """One fraction-free elimination gives the cotree expression and its
    certificate; they equal the Fraction rref and separate Bareiss
    determinant of tests/reference_linalg.py, TU or not.
    """

    def test_catalog_and_r10(self, catalog_full):
        for m in [R10, *(f(d) for d in catalog_full for f in (inc, cographic))]:
            got = oracles._cotree_expression(m.rows, m.q)
            assert got == reference_cotree_expression(m.rows, m.q), m

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 7), st.data())
    def test_random_matrices(self, p, q, data):
        rows = tuple(tuple(data.draw(st.integers(-1, 1)) for _ in range(q)) for _ in range(p))
        got = oracles._cotree_expression(rows, q)
        assert got == reference_cotree_expression(rows, q)

    def test_no_fractions(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a Fraction was created")

        monkeypatch.setattr(linalg, "Fraction", refuse)
        for rows, q in [(R10.rows, R10.q), (((1, 1, 0), (1, -1, 1)), 3), (((1, 1), (1, -1), (1, 0)), 2)]:
            got = oracles._cotree_expression(rows, q)
            assert got == reference_cotree_expression(rows, q)


class TestContraction:
    def test_contract_all_columns(self, single_arc):
        assert _support_contraction_cyclic(inc(single_arc), 0b1)

    def test_contract_nothing(self, catalog_small):
        for d in catalog_small[:50]:
            m = inc(d)
            assert _support_contraction_cyclic(m, 0) == is_totally_cyclic_matroid(m)

    def test_matches_graph_contraction(self, catalog_small):
        for d in catalog_small:
            if d.m > 4:
                continue
            m = inc(d)
            for r in range(d.m + 1):
                for sub in combinations(range(d.m), r):
                    mask = sum(1 << c for c in sub)
                    assert _support_contraction_cyclic(m, mask) == (
                        is_totally_cyclic(contract(d, frozenset(sub)))
                    ), (d, sub)


def every_mask(m: TUMatrix) -> list[bool]:
    return [_support_contraction_cyclic(m, mask) for mask in range(1 << m.q)]


def directed_cycle_matrix(n: int) -> TUMatrix:
    return inc(Digraph(n, tuple((i, (i + 1) % n) for i in range(n))))


class TestCocircuitTable:
    # The matroid support filter accepts a support exactly when it meets
    # every positive cocircuit.  The oracle is the Farkas LP of the
    # contraction, _support_contraction_cyclic.
    def test_catalog_every_mask(self, catalog_full):
        # The up-set walk over the Farkas test decides every mask as the
        # test itself would (TestMonotoneSupportSkip in test_oracles), with
        # about a fifth of the LPs.
        for d in catalog_full:
            for m in (inc(d), cographic(d)):
                if m.p == 0:
                    continue
                table = _cocircuit_table(m)
                assert table.shape == (1 << m.q,) and table.dtype == bool
                walked = matroids.cyclic_supports(
                    np.ones(1 << m.q, dtype=np.int64), partial(_support_contraction_cyclic, m)
                )
                assert np.flatnonzero(table).tolist() == walked, m

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_r10_relabelled(self, seed):
        # Rows and columns shuffled, and each negated or not: R10 with its
        # elements renamed and some reoriented, still TU.
        rng = Random(seed)
        rows = [tuple(sign * x for x in row) for row, sign in zip(R10.rows, rng.choices((1, -1), k=5))]
        rng.shuffle(rows)
        signs = [rng.choice((1, -1)) for _ in range(R10.q)]
        order = list(range(R10.q))
        rng.shuffle(order)
        m = TUMatrix(tuple(tuple(signs[j] * row[j] for j in order) for row in rows))
        assert is_totally_unimodular(m, max_dim=5)
        assert _cocircuit_table(m).tolist() == every_mask(m)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 7), st.data())
    def test_random_matrices(self, p, q, data):
        # Most of these are not TU, so some cocircuits have entries outside
        # {0, +-1} and only the completion step finds them.
        m = TUMatrix(
            tuple(tuple(data.draw(st.integers(-1, 1)) for _ in range(q)) for _ in range(p))
        )
        assert _cocircuit_table(m).tolist() == every_mask(m)

    def test_completion_finds_a_cocircuit_outside_the_seed(self):
        # The row space of (0, 1, -1), (1, 1, 1) has the positive cocircuit
        # (1, 2, 0) on columns {0, 1}, which no {0, +-1} combination of the
        # reduced rows (1, 0, 2), (0, 1, -1) gives.  Without it, mask 4
        # ({2}, missing that cocircuit) would be accepted.  With column 2
        # reversed (and a row negated) that cocircuit stays, but the vector
        # the completion step solves for comes out as (-1, -2, 0).
        for rows, want in (
            (((0, 1, -1), (1, 1, 1)), [False, True, False, True, False, True, True, True]),
            (((0, 1, 1), (-1, -1, 1)), [False, False, True, True, False, True, True, True]),
        ):
            m = TUMatrix(rows)
            assert not is_totally_unimodular(m)
            assert every_mask(m) == want
            assert _cocircuit_table(m).tolist() == want

    def test_no_rows_or_no_columns(self):
        for m in (TUMatrix(()), TUMatrix(((), ())), TUMatrix(((0, 0),)), TUMatrix(((0, 1),))):
            assert _cocircuit_table(m).tolist() == every_mask(m), m

    def test_read_only_and_shared_by_the_counts(self, monkeypatch, cycle3):
        built = []
        build = _cocircuit_table.__wrapped__

        def spy(m):
            built.append(m)
            return build(m)

        # One slot, as in the module: the counts of one matrix run back to back.
        assert _cocircuit_table.cache_info().maxsize == 1
        monkeypatch.setattr(matroids, "_cocircuit_table", lru_cache(maxsize=1)(spy))
        monkeypatch.setattr(matroids, "_support_contraction_cyclic", self.refuse)
        for m in (inc(cycle3), R10):
            for g in (cyclic(2), cyclic(3), AbelianGroup((2, 2))):
                count_nl_group_flows_matroid(m, g)
            count_nl_integer_kflows_matroid(m, 3)
            fit_integer_flow_polynomial_matroid(m, range(1, 4 + oracles.kernel_nullity(m.rows, m.q)))
        assert built == [inc(cycle3), R10]
        with pytest.raises(ValueError):
            matroids._cocircuit_table(R10)[0] = True

    @staticmethod
    def refuse(*args):
        raise AssertionError("the cocircuit table was built")

    def test_wide_matrices_keep_the_walk(self, monkeypatch):
        # A 20-arc directed cycle has rank 19: its seed would be 3^19 rows.
        # Its counts reach two supports, which the Farkas walk decides.
        monkeypatch.setattr(matroids, "_cocircuit_table", self.refuse)
        m = directed_cycle_matrix(20)
        times = []
        for _ in range(3):
            _support_contraction_cyclic.cache_clear()
            start = time.perf_counter()
            assert count_nl_group_flows_matroid(m, cyclic(3)) == 3
            assert count_nl_integer_kflows_matroid(m, 2) == 3
            times.append(time.perf_counter() - start)
        assert min(times) <= 0.05, times

    def test_table_or_walk_at_the_boundary(self, monkeypatch):
        # A directed n-cycle has rank n - 1.  At n = 10 the table's work is
        # 3^9 * 10 + C(10, 8) + 10 * 2^10 = 207115 <= _CHUNK, so it is built;
        # at n = 11, 3^10 * 11 + C(11, 9) + 11 * 2^11 = 672122 is over.
        built = []
        build = _cocircuit_table.__wrapped__
        monkeypatch.setattr(matroids, "_cocircuit_table", lambda m: built.append(m.q) or build(m))
        for n, table in ((10, True), (11, False)):
            built.clear()
            assert count_nl_group_flows_matroid(directed_cycle_matrix(n), cyclic(2)) == 2
            assert built == ([n] if table else []), n

    def test_refused_before_the_table_is_built(self, monkeypatch):
        # R10 at Z3 walks 3^5 points over 2^10 histogram cells; below either
        # the count is refused before the filter runs.
        monkeypatch.setattr(matroids, "_cocircuit_table", self.refuse)
        monkeypatch.setattr(matroids, "_support_contraction_cyclic", self.refuse)
        for count in (
            partial(count_nl_group_flows_matroid, R10, cyclic(3), budget=3**5 - 1),
            partial(count_nl_group_flows_matroid, R10, cyclic(2), budget=(1 << 10) - 1),
            partial(count_nl_integer_kflows_matroid, R10, 2, budget=(2 << 10) - 1),
            partial(fit_integer_flow_polynomial_matroid, R10, range(1, 8), budget=(7 << 10) - 1),
        ):
            with pytest.raises(BudgetExceededError):
                count()
        with pytest.raises(AssertionError, match="cocircuit table"):
            count_nl_group_flows_matroid(R10, cyclic(2), budget=1 << 10)


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
    # The cotree walker against a tuple-by-tuple walk of G^q.
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

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_r10_rows_shuffled_and_signed(self, seed):
        # Another row order and row signs give another row reduction of the
        # same matroid; the dense |G|^q reference walks G^10 at |G| = 4.
        rng = Random(seed)
        rows = list(R10.rows)
        rng.shuffle(rows)
        m = TUMatrix(tuple(tuple(sign * x for x in row) for row, sign in zip(rows, rng.choices((1, -1), k=5))))
        assert is_totally_unimodular(m, max_dim=5)
        assert oracles._cotree_expression(m.rows, m.q)[4]
        for g in (cyclic(2), cyclic(3), cyclic(4), AbelianGroup((2, 2))):
            dense = dense_group_flow_count(
                m.rows, m.q, g, partial(_support_contraction_cyclic, m)
            )
            assert count_nl_group_flows_matroid(m, g) == dense, (seed, g.spec())

    def test_budget_bounds_the_cotree_walk(self):
        # R10 has nullity 5: Z5 walks 5^5 = 3125 points, not 5^10, over
        # 2^10 histogram cells.
        count = count_nl_group_flows_matroid(R10, cyclic(5), budget=3125)
        assert count == count_nl_group_flows_matroid(R10, cyclic(5))
        with pytest.raises(BudgetExceededError, match="nullity"):
            count_nl_group_flows_matroid(R10, cyclic(5), budget=3124)

    def test_no_columns(self):
        # One empty assignment, of support mask 0, accepted by the Farkas
        # predicate: exactly one NL-G-flow.
        for m in (TUMatrix(()), TUMatrix(((), ()))):
            for g in self.GROUPS + [AbelianGroup((2, 3))]:
                self.check(m, g)
                assert count_nl_group_flows_matroid(m, g) == 1


class TestNonUnimodularFallback:
    # A {0, +-1} matrix without the determinant certificate is walked over
    # G^q with every row checked mod each factor.
    GROUPS = [cyclic(2), cyclic(3), cyclic(4), AbelianGroup((2, 2)), AbelianGroup((2, 3))]

    @staticmethod
    def naive(m, g):
        return count_nl_group_flows_naive(m, g, partial(_support_contraction_cyclic, m))

    def test_certificate(self, catalog_small):
        for d in catalog_small[::7]:
            for m in (inc(d), cographic(d)):
                assert oracles._cotree_expression(m.rows, m.q)[4], m
        assert oracles._cotree_expression(R10.rows, R10.q)[4]
        assert not oracles._cotree_expression(((1, 1), (1, -1)), 2)[4]

    def test_two_by_two(self):
        # Over Z2 the rows are equal, so (1, 1) is a flow; over the
        # rationals the kernel is 0, and a cotree walk would find no flow.
        m = TUMatrix(((1, 1), (1, -1)))
        assert count_nl_group_flows_matroid(m, cyclic(2)) == 1 == self.naive(m, cyclic(2))
        for g in self.GROUPS:
            assert count_nl_group_flows_matroid(m, g) == self.naive(m, g), g.spec()

    def test_dependent_rows(self):
        # The third row is half the sum of the others over the rationals.
        m = TUMatrix(((1, 1), (1, -1), (1, 0)))
        for g in self.GROUPS:
            assert count_nl_group_flows_matroid(m, g) == self.naive(m, g), g.spec()

    def test_half_integral_row_reduction(self):
        m = TUMatrix(((1, 1, 0), (1, -1, 1)))
        for g in self.GROUPS:
            assert count_nl_group_flows_matroid(m, g) == self.naive(m, g), g.spec()

    def test_budget_bounds_the_full_walk(self):
        m = TUMatrix(((1, 1), (1, -1)))
        assert count_nl_group_flows_matroid(m, cyclic(3), budget=9) == 0
        with pytest.raises(BudgetExceededError, match=r"\|G\|\^m"):
            count_nl_group_flows_matroid(m, cyclic(3), budget=8)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 4), st.data())
    def test_random_matrices_equal_naive(self, p, q, data):
        m = TUMatrix(
            tuple(tuple(data.draw(st.integers(-1, 1)) for _ in range(q)) for _ in range(p))
        )
        g = data.draw(st.sampled_from(self.GROUPS))
        assert count_nl_group_flows_matroid(m, g) == self.naive(m, g)


class TestPreparedKernelJobs:
    # A matroid job counts one matrix over four groups and two k, then
    # certifies it; the prepared kernel and the cocircuit table are each
    # built once for it, and no count reads another input's record.
    GROUPS = [cyclic(2), cyclic(3), cyclic(4), AbelianGroup((2, 2))]
    NON_TU = [TUMatrix(((1, 1), (1, -1))), TUMatrix(((1, 1), (1, -1), (1, 0))), TUMatrix(((1, 1, 0), (1, -1, 1)))]

    def test_a_job_shares_one_elimination_and_one_table(self, monkeypatch):
        rrefs, tables = [], []
        elim = oracles.int_rref
        build = _cocircuit_table.__wrapped__
        monkeypatch.setattr(oracles, "int_rref", lambda mat: rrefs.append(mat) or elim(mat))
        monkeypatch.setattr(matroids, "_cocircuit_table", lru_cache(maxsize=1)(lambda m: tables.append(m) or build(m)))
        m = cographic(Digraph(4, ((0, 1), (1, 2), (2, 0), (0, 3), (3, 1), (1, 0))))
        for name in ("_kernel", "_digraph_kernel"):
            getattr(oracles, name).cache_clear()
        counts = [count_nl_group_flows_matroid(m, g) for g in self.GROUPS]
        ints = [count_nl_integer_kflows_matroid(m, k) for k in (2, 3)]
        farkas_certificate(m)
        assert len(rrefs) == 1 and tables == [m]
        predicate = partial(_support_contraction_cyclic, m)
        assert counts == [dense_group_flow_count(m.rows, m.q, g, predicate) for g in self.GROUPS]
        assert ints == [count_nl_integer_kflows_matroid_naive(m, k) for k in (2, 3)]

    def test_r10_and_non_unimodular_matrices_interleaved(self):
        # Between two counts of R10 a matrix without the determinant
        # certificate takes every one-slot cache, with its G^q walk.
        for g in self.GROUPS[:2]:
            want = dense_group_flow_count(R10.rows, R10.q, g, partial(_support_contraction_cyclic, R10))
            for m in self.NON_TU:
                assert count_nl_group_flows_matroid(R10, g) == want, g.spec()
                naive = count_nl_group_flows_naive(m, g, partial(_support_contraction_cyclic, m))
                assert count_nl_group_flows_matroid(m, g) == naive, (m, g.spec())
        want = count_nl_integer_kflows_matroid_naive(R10, 2)
        for m in self.NON_TU:
            assert count_nl_integer_kflows_matroid(R10, 2) == want
            assert count_nl_integer_kflows_matroid(m, 2) == count_nl_integer_kflows_matroid_naive(m, 2), m

    def test_contraction_memo_is_bounded(self):
        # The Farkas predicate's memo keeps at most 4096 masks.
        assert _support_contraction_cyclic.cache_info().maxsize == 4096
        m = directed_cycle_matrix(13)
        _support_contraction_cyclic.cache_clear()
        for mask in range(4100):
            _support_contraction_cyclic(m, mask)
        info = _support_contraction_cyclic.cache_info()
        assert (info.misses, info.currsize) == (4100, 4096)


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

    def test_r10_walks_every_point(self, monkeypatch):
        # R10's five basic rows bound its states above its box at k = 3..5
        # and at every group of order at most 4, so no merge fires and the
        # walk is the plain one, checked against the full box above.
        merges = []
        merge = oracles._merge

        def spy(*args):
            merges.append(args)
            return merge(*args)

        monkeypatch.setattr(oracles, "_merge", spy)
        for k in (3, 4, 5):
            count_nl_integer_kflows_matroid(R10, k)
        for g in (cyclic(2), cyclic(3), cyclic(4), AbelianGroup((2, 2))):
            count_nl_group_flows_matroid(R10, g)
        assert merges == []

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
