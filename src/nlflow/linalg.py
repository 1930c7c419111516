"""Exact linear algebra on integers: one fraction-free pivot step
(Bareiss 1968) behind an integer Gauss-Jordan, rref as its view over
fractions.Fraction, and a phase-1 simplex deciding Farkas alternatives
on one integer tableau.  nlflow.oracles builds a matrix's cotree
expression from one int_rref.

No floating point anywhere.  Matrices are lists of row lists.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


def _pivot(rows, prow, e, d) -> None:
    """Pivot every row of rows but prow on prow[e], in place.  Entries are
    d times their values, and T[i][j] becomes (T[i][j] * pv - T[i][e] *
    prow[j]) // d, exact, over pv = prow[e].  When pv = d, only the
    nonzero columns of prow change, in rows with T[i][e] != 0.
    """
    pv = prow[e]
    nonzero = [(j, y) for j, y in enumerate(prow) if y]
    for row in (r for r in rows if r is not prow):
        f = row[e]
        if pv != d:
            row[:] = [(x * pv - f * y) // d for x, y in zip(row, prow)]
        elif f:
            for j, y in nonzero:
                row[j] -= f * y // d


def int_rref(mat):
    """Fraction-free Gauss-Jordan: (rows, pivot columns, d), rows being d
    times the reduced row echelon form.  d, the last pivot (1 with none),
    is up to sign the determinant of the pivot columns on the rows pivoted
    on, each the first remaining row nonzero in its column.
    """
    rows = [list(row) for row in mat]
    pivots = []
    d = 1
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        i = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if i is not None:
            rows[r], rows[i] = rows[i], rows[r]
            _pivot(rows, rows[r], c, d)
            d = rows[r][c]
            pivots.append(c)
    return rows[: len(pivots)], pivots, d


def rref(mat):
    """Reduced row echelon form over Fractions: (rows, pivot columns), read
    off int_rref of the rows scaled to integers, which keeps that form.
    """
    scales = (lcm(*(x.denominator for x in row)) for row in mat)
    rows, pivots, d = int_rref([[int(x * s) for x in row] for row, s in zip(mat, scales)])
    return [[Fraction(x, d) for x in row] for row in rows], pivots


def farkas_nonneg_solve(a_mat, b_vec):
    """Decide {z >= 0 : A z = b} exactly.

    Returns ("feasible", z) with A z = b, z >= 0, or ("infeasible", y)
    with y A <= 0 componentwise and y . b > 0 (the Farkas certificate).
    A and b are ints; z and y are Fractions.

    Phase-1 simplex on one integer tableau [A | I | b] (rows with b_i < 0
    negated, one artificial per row) under an objective row of reduced
    costs.  Pivots are fraction-free (_pivot): the tableau and the
    objective row are kept as integers T over the common denominator d, the
    previous pivot.  Bland's rule picks the pivots: the smallest column
    with a negative reduced cost enters; the minimum ratio T[i][-1] /
    T[i][e] over T[i][e] > 0 leaves, ties evicting the smallest basic
    index.
    """
    p = len(b_vec)
    q = len(a_mat[0]) if a_mat else 0
    signs = [1 if x >= 0 else -1 for x in b_vec]
    rows = []
    for i, (row, x, s) in enumerate(zip(a_mat, b_vec, signs)):
        t = [s * v for v in row] + [0] * p
        t[q + i] = 1
        t.append(s * x)
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
        _pivot((*rows, obj), rows[leave], e, d)
        d = rows[leave][e]
        basis[leave] = e

    if obj[-1] != 0:
        # y = c_B B^-1, read off the artificials' reduced costs 1 - y_i.
        return "infeasible", [Fraction(s * (d - obj[q + i]), d) for i, s in enumerate(signs)]
    z = [Fraction(0)] * q
    for row, j in zip(rows, basis):
        if j < q:
            z[j] = Fraction(row[-1], d)
    return "feasible", z
