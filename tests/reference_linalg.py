"""Reference row reduction, kernel basis, rank and cotree expression over
fractions.Fraction, independent of nlflow.linalg.

rref_dense rebuilds every row over every column at each pivot, dividing
in Fractions: the version nlflow.linalg.rref, a view of the fraction-free
Gauss-Jordan int_rref, is compared with.  matrix_rank and kernel_basis
are read straight off it.  nlflow.matroids reads its integer kernel basis
off the cached cotree expression the counters walk, scaled by its common
denominator; kernel_basis is what the tests compare it with.
reference_cotree_expression is that expression as it was built before
the fraction-free elimination: a Fraction rref, the lcm of the free
entries' denominators, and a separate forward Bareiss determinant (det)
of the pivot columns as the unimodularity certificate.  Test-side only.
"""

from fractions import Fraction
from math import lcm


def rref_dense(mat):
    """Reduced row echelon form with dense row updates; (rows, pivots)."""
    rows = [[Fraction(x) for x in row] for row in mat]
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
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def matrix_rank(mat) -> int:
    return len(rref_dense(mat)[1])


def kernel_basis(mat, ncols=None):
    """Basis of {x : mat x = 0} as Fraction vectors, one per free column."""
    if ncols is None:
        ncols = len(mat[0]) if mat else 0
    rows, pivots = rref_dense(mat)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -rows[r][fc]
        basis.append(vec)
    return basis


def det(rows) -> int:
    """Forward Bareiss determinant of a small integer matrix, or of the
    rows it pivots on when there are more rows than columns: each column
    pivots on the first remaining row nonzero in it.
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


def reference_cotree_expression(rows, ncols):
    """(pivots, free, expr, denom, unimodular) of an integer matrix, as
    nlflow.oracles._cotree_expression returns them: denom * x_basic =
    -expr @ x_free on the kernel, and whether the pivot columns on the rows
    det pivots on have determinant +-1.
    """
    reduced, pivots = rref_dense(rows)
    free = [c for c in range(ncols) if c not in pivots]
    denom = lcm(*(reduced[r][c].denominator for r in range(len(pivots)) for c in free))
    expr = [[int(reduced[r][c] * denom) for c in free] for r in range(len(pivots))]
    unimodular = abs(det([[row[c] for c in pivots] for row in rows])) == 1
    return pivots, free, expr, denom, unimodular
