"""Reference kernel basis and rank over fractions.Fraction, read straight
off nlflow.linalg.rref.  nlflow.matroids reads its integer kernel basis
off the cached cotree expression the counters walk, scaled by its common
denominator; these are the versions the tests compare it with.  Test-side
only.
"""

from fractions import Fraction

from nlflow.linalg import rref


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
