"""Exact linear algebra: row reduction and a square solve on
fractions.Fraction, a Bareiss determinant, and a phase-1 simplex deciding
Farkas alternatives on one integer tableau, pivoted fraction-free.
Kernels are not computed here: nlflow.oracles builds a matrix's cotree
expression from rref, and nlflow.matroids reads its kernel basis off that.

No floating point anywhere.  Matrices are lists of row lists.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


def _frac_rows(mat):
    return [[Fraction(x) for x in row] for row in mat]


def rref(mat):
    """Reduced row echelon form; returns (rows, pivot_columns).

    Each pivot updates only the columns where the pivot row is nonzero, so
    the work follows the fill-in rather than rows * columns per pivot.
    """
    rows = _frac_rows(mat)
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        prow = rows[r]
        pv = prow[c]
        # Rows from r on are zero left of column c.
        nonzero = [j for j in range(c, ncols) if prow[j] != 0]
        for j in nonzero:
            prow[j] /= pv
        for row in rows:
            f = row[c]
            if f != 0 and row is not prow:
                for j in nonzero:
                    row[j] -= f * prow[j]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def int_det(rows) -> int:
    """Fraction-free Bareiss determinant of a small integer matrix, or of
    the rows it pivots on when there are more rows than columns.
    """
    a = [list(r) for r in rows]
    n = len(a[0]) if a else 0
    sign = 1
    prev = 1
    for c in range(n):
        if a[c][c] == 0:
            swap = next((i for i in range(c + 1, len(a)) if a[i][c] != 0), None)
            if swap is None:
                return 0
            a[c], a[swap] = a[swap], a[c]
            sign = -sign
        for i in range(c + 1, len(a)):
            for j in range(c + 1, n):
                a[i][j] = (a[i][j] * a[c][c] - a[i][c] * a[c][j]) // prev
        prev = a[c][c]
    return sign * prev


def solve_upper(b_mat, rhs):
    """Solve the square system b_mat x = rhs by Gaussian elimination."""
    n = len(rhs)
    aug = [[Fraction(x) for x in row] + [Fraction(rhs[i])] for i, row in enumerate(b_mat)]
    rows, pivots = rref(aug)
    if len(pivots) != n or pivots != list(range(n)):
        raise ValueError("singular basis matrix")
    return [rows[i][n] for i in range(n)]


def farkas_nonneg_solve(a_mat, b_vec):
    """Decide {z >= 0 : A z = b} exactly.

    Returns ("feasible", z) with A z = b, z >= 0, or ("infeasible", y)
    with y A <= 0 componentwise and y . b > 0 (the Farkas certificate).
    Entries may be ints or Fractions; z and y are Fractions.

    Phase-1 simplex on one integer tableau [A | I | b] (rows with b_i < 0
    negated, one artificial per row) under an objective row of reduced
    costs.  Pivots are fraction-free (Bareiss): the tableau is kept as
    integers T over the common denominator d, the previous pivot, and
    updated by T[i][j] = (T[i][j] * pv - T[i][e] * T[r][j]) // d, which
    divides exactly.  Bland's rule picks the pivots: the smallest column
    with a negative reduced cost enters; the minimum ratio T[i][-1] /
    T[i][e] over T[i][e] > 0 leaves, ties evicting the smallest basic
    index.  Fractional input is scaled to integers column by column (and
    b as a whole) first; a positive column scale changes neither the
    pivots nor y, and z is scaled back at the end.
    """
    p = len(b_vec)
    q = len(a_mat[0]) if a_mat else 0
    col_scale = [lcm(*(row[j].denominator for row in a_mat)) for j in range(q)]
    b_scale = lcm(*(x.denominator for x in b_vec))
    signs = [1 if x >= 0 else -1 for x in b_vec]
    rows = []
    for i, (row, x, s) in enumerate(zip(a_mat, b_vec, signs)):
        t = [s * v.numerator * (scale // v.denominator) for v, scale in zip(row, col_scale)]
        t += [0] * p
        t[q + i] = 1
        t.append(s * x.numerator * (b_scale // x.denominator))
        rows.append(t)
    # Artificials cost 1, the original variables 0; the objective row holds
    # d times the reduced costs, and -d times the phase-1 objective last.
    obj = [-sum(col) for col in zip(*rows)] if rows else [0] * (q + 1)
    obj[q : q + p] = [0] * p

    basis = list(range(q, q + p))
    d = 1
    while True:
        e = next((j for j in range(q + p) if obj[j] < 0), None)
        if e is None:
            break
        # Minimum ratio row[-1] / row[e] over row[e] > 0; Bland: ties
        # evict the smallest basic index.
        leave = None
        for i, row in enumerate(rows):
            if row[e] > 0:
                if leave is None:
                    leave = i
                    continue
                lhs, rhs = row[-1] * rows[leave][e], rows[leave][-1] * row[e]
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            raise RuntimeError("phase-1 objective unbounded; cannot happen")
        prow = rows[leave]
        pv = prow[e]
        for row in (*rows, obj):
            if row is not prow:
                f = row[e]
                row[:] = [(x * pv - f * y) // d for x, y in zip(row, prow)]
        d = pv
        basis[leave] = e

    if obj[-1] != 0:
        # y = c_B B^-1, read off the artificials' reduced costs 1 - y_i.
        return "infeasible", [Fraction(s * (d - obj[q + i]), d) for i, s in enumerate(signs)]
    z = [Fraction(0)] * q
    for row, j in zip(rows, basis):
        if j < q:
            z[j] = Fraction(row[-1] * col_scale[j], d * b_scale)
    return "feasible", z
