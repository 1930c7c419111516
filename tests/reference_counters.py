"""Slow reference enumerators for the flow oracles.

The integer ones walk the whole (2k-1)^q box of a matrix, testing every
point for membership in the kernel, with no cotree parametrization and no
x -> -x symmetry, so the one-pass kernel enumerator in nlflow.oracles is
checked against code that shares none of its logic.  count_group_kernel
checks the closed kernel count |G|^(q-p) over a group against a
tuple-by-tuple enumeration.  Test-side only.
"""

from itertools import product

import numpy as np

from nlflow.digraphs import Digraph, incidence_matrix
from nlflow.groups import AbelianGroup
from nlflow.linalg import matrix_rank
from nlflow.matroids import TUMatrix, _support_contraction_cyclic
from nlflow.oracles import _support_cyclic

CHUNK = 1 << 18


def full_box_histogram(rows, ncols: int, kmax: int):
    """hist[mask, h]: the points x of {-(kmax-1), ..., kmax-1}^ncols with
    rows @ x = 0, by support bitmask and max |x_j| = h.
    """
    base = 2 * kmax - 1
    mat_t = np.array(rows, dtype=np.int64).reshape(len(rows), ncols).T
    pows = base ** np.arange(ncols - 1, -1, -1, dtype=np.int64)
    bits = 1 << np.arange(ncols, dtype=np.int64)
    hist = np.zeros((1 << ncols, kmax), dtype=np.int64)
    total = base**ncols
    for start in range(0, total, CHUNK):
        idx = np.arange(start, min(start + CHUNK, total), dtype=np.int64)
        x = idx[:, None] // pows % base - (kmax - 1)
        x = x[((x @ mat_t) == 0).all(axis=1)]
        np.add.at(hist, ((x != 0) @ bits, np.abs(x).max(axis=1, initial=0)), 1)
    return hist


def _sum_cyclic(hist, cyclic) -> int:
    return sum(int(row.sum()) for mask, row in enumerate(hist) if row.any() and cyclic(mask))


def count_nl_integer_kflows_naive(d: Digraph, k: int) -> int:
    """Integer NL-k-flows of d over the full (2k-1)^m box."""
    hist = full_box_histogram(incidence_matrix(d), d.m, k)
    return _sum_cyclic(hist, lambda mask: _support_cyclic(d, mask))


def count_nl_integer_kflows_matroid_naive(m: TUMatrix, k: int) -> int:
    """Integer NL-k-flows of the matroid of m over the full (2k-1)^q box."""
    hist = full_box_histogram(m.rows, m.q, k)
    return _sum_cyclic(hist, lambda mask: _support_contraction_cyclic(m, mask))


def full_row_rank(m: TUMatrix) -> bool:
    return matrix_rank([list(r) for r in m.rows]) == m.p


def count_group_kernel(m: TUMatrix, g: AbelianGroup, budget: int = 10**6) -> int:
    """|{x in G^q : M x = 0 in G}| = |G|^(q-p) for full-row-rank TU M.

    The closed count is confirmed by exhaustive enumeration whenever
    |G|^q fits the budget.
    """
    if not full_row_rank(m):
        raise ValueError("matrix is not of full row rank; row-reduce it first")
    k = g.order
    value = k ** (m.q - m.p)
    if k**m.q <= budget:
        brute = sum(
            1
            for x in _group_tuples(g, m.q)
            if _is_group_kernel_element(m, g, x)
        )
        if brute != value:
            raise AssertionError(
                f"kernel count mismatch: closed form {value}, enumeration {brute}"
            )
    return value


def _group_tuples(g: AbelianGroup, q: int):
    return product(list(g.elements()), repeat=q)


def _is_group_kernel_element(m: TUMatrix, g: AbelianGroup, x) -> bool:
    for row in m.rows:
        acc = g.zero
        for coef, val in zip(row, x):
            if coef == 1:
                acc = g.add(acc, val)
            elif coef == -1:
                acc = g.add(acc, g.neg(val))
        if acc != g.zero:
            return False
    return True
