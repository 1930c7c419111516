"""Reference kernel basis and rank over fractions.Fraction, read straight
off nlflow.linalg.rref.  nlflow.matroids reads its integer kernel basis
off the cached cotree expression the counters walk, scaled by its common
denominator; these are the versions the tests compare it with.
rref_dense rebuilds every row over every column at each pivot, the
version nlflow.linalg.rref's sparse row updates are compared with.
Test-side only.
"""

from fractions import Fraction

from nlflow.linalg import rref


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
    return len(rref(mat)[1])


def kernel_basis(mat, ncols=None):
    """Basis of {x : mat x = 0} as Fraction vectors, one per free column."""
    if ncols is None:
        ncols = len(mat[0]) if mat else 0
    rows, pivots = rref(mat)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -rows[r][fc]
        basis.append(vec)
    return basis
