"""Exact linear algebra: the fraction-free int_rref and its rref view
against the dense Fraction reference, the determinant, the reference
kernel bases of tests/reference_linalg.py, and the Farkas feasibility
solver.
"""

from fractions import Fraction
from itertools import permutations
from math import prod

import pytest
from hypothesis import given, settings, strategies as st
from reference_farkas import reference_farkas_nonneg_solve
from reference_linalg import det, kernel_basis, matrix_rank, rref_dense

from nlflow import linalg
from nlflow.linalg import (
    farkas_nonneg_solve,
    int_det,
    int_rref,
    rref,
    solve_upper,
)


class TestRref:
    def test_identity(self):
        rows, pivots = rref([[1, 0], [0, 1]])
        assert rows == [[1, 0], [0, 1]] and pivots == [0, 1]

    def test_dependent_rows(self):
        rows, pivots = rref([[1, 2], [2, 4]])
        assert pivots == [0]
        assert rows == [[Fraction(1), Fraction(2)]]

    def test_rank(self):
        assert matrix_rank([[1, 1, 0], [-1, 0, 1], [0, -1, -1]]) == 2
        assert matrix_rank([]) == 0

    @settings(max_examples=300)
    @given(
        st.integers(1, 6),
        st.integers(1, 8),
        st.data(),
    )
    def test_sparse_updates_equal_dense(self, p, q, data):
        # Mostly zeros, so the pivot rows are sparse; entries up to 3 and
        # fractions, so most matrices are not totally unimodular.
        entry = st.one_of(
            st.just(0),
            st.integers(-3, 3),
            st.fractions(min_value=-3, max_value=3, max_denominator=4),
        )
        mat = [[data.draw(entry) for _ in range(q)] for _ in range(p)]
        assert rref(mat) == rref_dense(mat)

    @settings(max_examples=200)
    @given(st.integers(1, 5), st.integers(1, 6), st.data())
    def test_int_rref_is_d_times_the_reduced_form(self, p, q, data):
        # d is, up to sign, the determinant of the pivot columns on the
        # rows a forward Bareiss pass pivots on.
        mat = [[data.draw(st.integers(-3, 3)) for _ in range(q)] for _ in range(p)]
        rows, pivots, d = int_rref(mat)
        reduced, ref_pivots = rref_dense(mat)
        assert pivots == ref_pivots
        assert rows == [[x * d for x in row] for row in reduced]
        assert all(type(x) is int for row in rows for x in row)
        assert abs(d) == abs(det([[row[c] for c in pivots] for row in mat]))

    def test_wide_path_matrix_equals_dense(self):
        # Rows e_i - e_(i+1): each pivot row has two nonzeros.
        mat = [[(j == i) - (j == i + 1) for j in range(41)] for i in range(40)]
        assert rref(mat) == rref_dense(mat)


class TestKernel:
    def test_cycle_incidence_kernel(self):
        # Reduced incidence of the directed 3-cycle.
        basis = kernel_basis([[1, 0, -1], [-1, 1, 0]], 3)
        assert len(basis) == 1
        v = basis[0]
        assert v[0] == v[1] == v[2] != 0

    def test_zero_matrix(self):
        basis = kernel_basis([[0, 0]], 2)
        assert len(basis) == 2

    @given(
        st.lists(
            st.lists(st.integers(-2, 2), min_size=3, max_size=3),
            min_size=1,
            max_size=3,
        )
    )
    def test_kernel_vectors_annihilate(self, mat):
        for v in kernel_basis(mat, 3):
            for row in mat:
                assert sum(Fraction(a) * x for a, x in zip(row, v)) == 0


class TestIntDet:
    def test_small(self):
        assert int_det([]) == 1
        assert int_det([[5]]) == 5
        assert int_det([[1, 1], [1, -1]]) == -2
        assert int_det([[0, 1], [1, 0]]) == -1
        assert int_det([[1, 2], [2, 4]]) == 0

    def test_more_rows_than_columns(self):
        # Each column pivots on the first remaining row nonzero in it.
        assert int_det([[1, 1], [1, -1], [1, 0]]) == -2
        assert abs(int_det([[0, 0], [1, 0], [0, 1]])) == 1
        assert int_det([[1, 1], [2, 2], [1, 1]]) == 0
        assert int_det([(), ()]) == 1

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 4), st.data())
    def test_equals_leibniz(self, n, data):
        a = [[data.draw(st.integers(-2, 2)) for _ in range(n)] for _ in range(n)]
        leibniz = 0
        for perm in permutations(range(n)):
            inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
            leibniz += (-1) ** inversions * prod(a[i][perm[i]] for i in range(n))
        assert int_det(a) == leibniz


class TestSolveUpper:
    def test_simple(self):
        assert solve_upper([[2, 0], [0, 4]], [2, 8]) == [1, 2]

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            solve_upper([[1, 1], [1, 1]], [1, 2])


class TestFarkas:
    def test_feasible(self):
        status, z = farkas_nonneg_solve([[1, 1]], [2])
        assert status == "feasible"
        assert all(x >= 0 for x in z)
        assert z[0] + z[1] == 2

    def test_infeasible_certificate(self):
        # x >= 0 with -x = 1 is infeasible; the certificate y satisfies
        # y A <= 0 and y . b > 0.
        status, y = farkas_nonneg_solve([[-1]], [1])
        assert status == "infeasible"
        assert y[0] * -1 <= 0 and y[0] * 1 > 0

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(1, 3),
        st.integers(1, 4),
        st.data(),
    )
    def test_alternative_is_exact(self, p, q, data):
        a = [
            [data.draw(st.integers(-3, 3)) for _ in range(q)] for _ in range(p)
        ]
        b = [data.draw(st.integers(-3, 3)) for _ in range(p)]
        status, sol = farkas_nonneg_solve(a, b)
        if status == "feasible":
            assert all(x >= 0 for x in sol)
            for i in range(p):
                assert sum(Fraction(a[i][j]) * sol[j] for j in range(q)) == b[i]
        else:
            # y A <= 0 componentwise and y . b > 0: both sides of the
            # alternative cannot hold at once.
            for j in range(q):
                assert sum(sol[i] * a[i][j] for i in range(p)) <= 0
            assert sum(sol[i] * b[i] for i in range(p)) > 0


entries = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)


class TestFarkasAgainstReference:
    """The integer tableau pivots as the reference revised simplex does, so
    both return the same (status, vector), Fractions included.
    """

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 5), st.data())
    def test_fractional_entries_and_negative_b(self, p, q, data):
        a = [[data.draw(entries) for _ in range(q)] for _ in range(p)]
        b = [data.draw(entries) for _ in range(p)]
        got = farkas_nonneg_solve(a, b)
        assert got == reference_farkas_nonneg_solve(a, b)
        assert all(type(x) is Fraction for x in got[1])

    def test_degenerate_ties(self):
        # Ratio ties between rows whose basic variables are not in row
        # order: evicting the first or the last tied row instead of the
        # smallest basic index ends in another basis and certificate.
        cases = [
            ([[0, 2, -1], [2, 1, -1], [2, 2, -1]], [0, 1, 0], [1, 1, Fraction(-3, 2)]),
            ([[1, 0, 1], [0, 1, 0], [2, 1, 0], [1, 1, 1]], [0, 1, 0, 0], [-1, 1, -2, 1]),
        ]
        for a, b, y in cases:
            assert farkas_nonneg_solve(a, b) == ("infeasible", y)
            assert reference_farkas_nonneg_solve(a, b) == ("infeasible", y)

    def test_no_rows(self):
        assert farkas_nonneg_solve([], []) == ("feasible", [])
        assert farkas_nonneg_solve([], []) == reference_farkas_nonneg_solve([], [])

    def test_no_columns(self):
        for b in ([1, -2], [0, 0], [0, Fraction(-1, 3)]):
            a = [[], []]
            got = farkas_nonneg_solve(a, b)
            assert got == reference_farkas_nonneg_solve(a, b)
        assert farkas_nonneg_solve([[], []], [1, -2]) == ("infeasible", [1, -1])
        assert farkas_nonneg_solve([[], []], [0, 0]) == ("feasible", [])

    def test_fractional_solution_is_rescaled(self):
        status, z = farkas_nonneg_solve([[Fraction(2, 3), 3]], [Fraction(1, 2)])
        assert status == "feasible"
        assert z == [Fraction(3, 4), 0]

    def test_no_refactorization(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the tableau refactorized its basis")

        monkeypatch.setattr(linalg, "rref", refuse)
        monkeypatch.setattr(linalg, "solve_upper", refuse)
        a = [[1, -1, 0, 1], [0, 1, -1, 1], [-1, 0, 1, 1]]
        assert farkas_nonneg_solve(a, [1, 1, 1])[0] == "feasible"
        assert farkas_nonneg_solve(a, [1, 1, -3])[0] == "infeasible"
