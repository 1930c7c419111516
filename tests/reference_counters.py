"""Slow reference enumerators for the integer-flow oracles.

They walk the whole (2k-1)^q box of a matrix, testing every point for
membership in the kernel, with no cotree parametrization and no x -> -x
symmetry, so the one-pass kernel enumerator in nlflow.oracles is checked
against code that shares none of its logic.  Test-side only.
"""

import numpy as np

from nlflow.digraphs import Digraph, incidence_matrix
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
