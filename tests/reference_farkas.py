"""Test oracle for the Farkas LP: the phase-1 revised simplex that
nlflow.linalg.farkas_nonneg_solve used before its fraction-free tableau.

It runs on fractions.Fraction and refactorizes the basis with a Gaussian
solve on every iteration, by the dense rref of tests/reference_linalg.py,
so it shares no elimination code with the tableau.  Its pivot rule
(Bland's, ties evicting the smallest basic index) is the tableau's, so
the two reach the same final basis and return identical (status, vector)
pairs.
"""

from __future__ import annotations

from fractions import Fraction

from reference_linalg import rref_dense


def _frac_rows(mat):
    return [[Fraction(x) for x in row] for row in mat]


def solve_upper(b_mat, rhs):
    """Solve the square system b_mat x = rhs by Gaussian elimination."""
    n = len(rhs)
    rows, pivots = rref_dense([list(row) + [rhs[i]] for i, row in enumerate(b_mat)])
    if pivots != list(range(n)):
        raise ValueError("singular basis matrix")
    return [rows[i][n] for i in range(n)]


def reference_farkas_nonneg_solve(a_mat, b_vec):
    """Decide {z >= 0 : A z = b} exactly.

    Returns ("feasible", z) with A z = b, z >= 0, or ("infeasible", y)
    with y A <= 0 componentwise and y . b > 0 (the Farkas certificate).

    Phase-1 revised simplex with Bland's rule; dimensions here are tiny,
    so each iteration refactorizes the basis from scratch.
    """
    a = _frac_rows(a_mat)
    b = [Fraction(x) for x in b_vec]
    p = len(b)
    q = len(a[0]) if a else 0
    signs = [1] * p
    for i in range(p):
        if b[i] < 0:
            signs[i] = -1
            b[i] = -b[i]
            a[i] = [-x for x in a[i]]

    # Columns 0..q-1 are the original variables (cost 0), q..q+p-1 the
    # artificials (cost 1).
    def column(j):
        if j < q:
            return [a[i][j] for i in range(p)]
        return [Fraction(1) if i == j - q else Fraction(0) for i in range(p)]

    def cost(j):
        return Fraction(0) if j < q else Fraction(1)

    basis = list(range(q, q + p))
    while True:
        b_cols = [column(j) for j in basis]
        b_mat = [[b_cols[j][i] for j in range(p)] for i in range(p)]
        x_b = solve_upper(b_mat, b) if p else []
        bt = [[b_mat[j][i] for j in range(p)] for i in range(p)]
        y = solve_upper(bt, [cost(j) for j in basis]) if p else []

        entering = None
        for j in range(q + p):
            if j in basis:
                continue
            reduced = cost(j) - sum(y[i] * column(j)[i] for i in range(p))
            if reduced < 0:
                entering = j
                break
        if entering is None:
            break
        d = solve_upper(b_mat, column(entering))
        ratios = [
            (x_b[i] / d[i], basis[i], i) for i in range(p) if d[i] > 0
        ]
        if not ratios:
            raise RuntimeError("phase-1 objective unbounded; cannot happen")
        best = min(r for r, _, _ in ratios)
        # Bland: among the tied rows, evict the smallest basic variable.
        leave = min((i for r, _, i in ratios if r == best), key=lambda i: basis[i])
        basis[leave] = entering

    objective = sum(x_b[i] for i in range(p) if basis[i] >= q)
    if objective == 0:
        z = [Fraction(0)] * q
        for i, j in enumerate(basis):
            if j < q:
                z[j] = x_b[i]
        return "feasible", z
    y_out = [signs[i] * y[i] for i in range(p)]
    return "infeasible", y_out
