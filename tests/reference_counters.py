"""Slow reference enumerators for the flow and coloring oracles.

The integer ones walk the whole (2k-1)^q box of a matrix, testing every
point for membership in the kernel, with no cotree parametrization and no
x -> -x symmetry, so the cotree walker in nlflow.oracles is checked
against code that shares none of its logic.  The group ones walk all of
G^q, testing every assignment against every row: dense_group_flow_count
in chunked numpy, fast enough for R10 at |G| = 4, and
count_nl_group_flows_naive tuple by tuple in pure Python, with no numpy
and no support histogram.  count_group_kernel checks the closed kernel
count |G|^(q-p), and is_group_flow tests conservation arc by arc on a
digraph.  count_acyclic_colorings_naive tries all k^n colorings, which
the subset DP in nlflow.oracles must match.  _support_cyclic is
cuts.is_dijoin, the SCC test of a digraph's contraction, on a support
bitmask, which the digraph support filters in nlflow.oracles must
match.  Test-side only.
"""

from functools import lru_cache
from itertools import product

import numpy as np
from reference_linalg import matrix_rank

from nlflow.cuts import is_dijoin
from nlflow.digraphs import Digraph, incidence_matrix, is_acyclic
from nlflow.groups import AbelianGroup
from nlflow.matroids import TUMatrix, _support_contraction_cyclic, cyclic_supports

CHUNK = 1 << 18


@lru_cache(maxsize=1_000_000)
def _support_cyclic(d: Digraph, mask: int) -> bool:
    """Is the contraction of this support (as an arc-index bitmask)
    totally cyclic?  Digraphs are immutable, so a memo is safe and pays
    off across the sweeps over one catalog.
    """
    return is_dijoin(d, frozenset(j for j in range(d.m) if mask >> j & 1))


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


def dense_group_flow_count(rows, ncols: int, g: AbelianGroup, predicate) -> int:
    """Number of x in G^ncols with rows @ x = 0 in G whose support mask
    satisfies the predicate.  Enumerates all |G|^ncols assignments,
    chunked; with no columns that is the one empty assignment, of support
    mask 0.
    """
    k = g.order
    mat_t = np.array(rows, dtype=np.int64).reshape(len(rows), ncols).T
    colpow = np.array([k ** (ncols - 1 - j) for j in range(ncols)], dtype=np.int64)
    strides = []
    s = 1
    for f in reversed(g.factors):
        strides.append((f, s))
        s *= f
    strides.reverse()
    bits = 1 << np.arange(ncols, dtype=np.int64)

    support_counts = np.zeros(1 << ncols, dtype=np.int64)
    total = k**ncols
    chunk = max(1, CHUNK // max(ncols, 1))  # keep each chunk's temporaries small
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        assign = (idx[:, None] // colpow[None, :]) % k
        ok = np.ones(len(idx), dtype=bool)
        for f, stride in strides:
            digits = (assign // stride) % f
            ok &= ((digits @ mat_t) % f == 0).all(axis=1)
        supp = (assign[ok] != 0) @ bits
        support_counts += np.bincount(supp, minlength=1 << ncols)
    return int(support_counts[cyclic_supports(support_counts, predicate)].sum())


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


def count_nl_group_flows_naive(m: TUMatrix, g: AbelianGroup, predicate) -> int:
    """Kernel elements of m over g, tuple by tuple, whose support bitmask
    satisfies the predicate.
    """
    zero = g.zero
    count = 0
    for x in _group_tuples(g, m.q):
        if _is_group_kernel_element(m, g, x):
            count += predicate(sum(1 << j for j, v in enumerate(x) if v != zero))
    return count


def is_group_flow(d: Digraph, g: AbelianGroup, f) -> bool:
    """Kirchhoff conservation at every vertex, in g.

    f maps arc index -> group element (residue tuple); loops contribute to
    both sides and never violate.
    """
    sums = [g.zero] * d.n
    for j, (t, h) in enumerate(d.arcs):
        val = tuple(f[j])
        sums[t] = g.add(sums[t], val)
        sums[h] = g.add(sums[h], g.neg(val))
    return all(s == g.zero for s in sums)


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


def count_acyclic_colorings_naive(d: Digraph, k: int) -> int:
    """Number of maps V -> {1..k} where every color class induces an
    acyclic subdigraph, by trying all k^n colorings.  Requires a loopless
    digraph.
    """
    count = 0
    for coloring in product(range(k), repeat=d.n):
        mono = tuple(a for a in d.arcs if coloring[a[0]] == coloring[a[1]])
        if is_acyclic(Digraph(d.n, mono)):
            count += 1
    return count
