"""Exhaustive ground-truth counters: group flows, integer flows, acyclic
colorings, the equivalence theorem, and polynomiality fits.

These stay independent of the Moebius-inversion formulas they validate.
Group-flow counting enumerates every assignment in G^m.  Integer-flow
counting has one enumerator for the integer kernel of any matrix, used by
digraphs (through their incidence matrix) and by TU matrices (matroids):
the free (cotree) coordinates range over {-(K-1), ..., K-1}^nullity and
determine the basic ones exactly.  One pass over half of that box (x and
-x share support and height) gives a histogram by support and max |x_j|,
and the count for every k <= K is a cumulative sum of it; callers differ
only in their support predicate.

The budget bounds, before anything is allocated, both the candidates
enumerated (|G|^m, or (2K-1)^nullity) and the cells of the support
histogram (2^m, or K * 2^m); support masks are int64, so more than 62
arcs or columns are refused whatever the budget.
"""

from __future__ import annotations

from functools import lru_cache, partial, reduce
from math import lcm

import numpy as np

from .digraphs import (
    Digraph,
    contract,
    incidence_matrix,
    is_acyclic,
    is_totally_cyclic,
    rank,
)
from .errors import BudgetExceededError, WitnessMismatchError
from .groups import AbelianGroup, abelian_groups_of_order, cyclic
from .linalg import rref
from .polynomials import interpolate_rational

DEFAULT_BUDGET = 10**8
_CHUNK = 1 << 18
MAX_MASK_BITS = 62


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


@lru_cache(maxsize=1_000_000)
def _support_cyclic(d: Digraph, mask: int) -> bool:
    """Is the contraction of this support (as an arc-index bitmask)
    totally cyclic?  Digraphs are immutable, so a global memo is safe and
    pays off across repeated counts on the same digraph.
    """
    supp = frozenset(j for j in range(d.m) if mask >> j & 1)
    return is_totally_cyclic(contract(d, supp))


def cyclic_supports(counts, predicate) -> list[int]:
    """The support bitmasks (indices of counts) with a nonzero count whose
    contraction the support predicate accepts.
    """
    return [mask for mask in np.flatnonzero(counts).tolist() if predicate(mask)]


def check_histogram_budget(kmax: int, ncols: int, budget: int) -> None:
    """Refuse a support histogram of kmax * 2^ncols cells over the budget,
    before it is allocated, and any over more than MAX_MASK_BITS columns,
    whose support masks would not fit in int64.
    """
    if ncols > MAX_MASK_BITS:
        raise BudgetExceededError(
            f"support masks of {ncols} columns exceed {MAX_MASK_BITS} bits"
        )
    if kmax << ncols > budget:
        raise BudgetExceededError(
            f"support histogram of {kmax}*2^{ncols} cells exceeds budget {budget}"
        )


def count_nl_group_flows(d: Digraph, g: AbelianGroup, budget: int = DEFAULT_BUDGET) -> int:
    """Number of assignments A -> G that are flows with totally cyclic
    support contraction.  Enumerates all |G|^m assignments, chunked.
    """
    k = g.order
    m = d.m
    if k**m > budget:
        raise BudgetExceededError(f"|G|^m = {k}^{m} exceeds budget {budget}")
    check_histogram_budget(1, m, budget)
    if m == 0:
        return 1 if is_totally_cyclic(d) else 0

    inc_t = np.array(incidence_matrix(d), dtype=np.int64).T  # m x n
    arcpow = np.array([k ** (m - 1 - j) for j in range(m)], dtype=np.int64)
    strides = []
    s = 1
    for f in reversed(g.factors):
        strides.append((f, s))
        s *= f
    strides.reverse()
    bits = 1 << np.arange(m, dtype=np.int64)

    support_counts = np.zeros(1 << m, dtype=np.int64)
    total = k**m
    rows = max(1, _CHUNK // m)  # keep each chunk's m-wide temporaries small
    for start in range(0, total, rows):
        idx = np.arange(start, min(start + rows, total), dtype=np.int64)
        assign = (idx[:, None] // arcpow[None, :]) % k
        ok = np.ones(len(idx), dtype=bool)
        for f, stride in strides:
            digits = (assign // stride) % f
            ok &= ((digits @ inc_t) % f == 0).all(axis=1)
        flows = assign[ok]
        supp = (flows != 0) @ bits
        support_counts += np.bincount(supp, minlength=1 << m)
    good = cyclic_supports(support_counts, partial(_support_cyclic, d))
    return int(support_counts[good].sum())


@lru_cache(maxsize=100_000)
def _cotree_expression(rows: tuple[tuple[int, ...], ...], ncols: int):
    """Basic (pivot) and free (cotree) columns of an integer matrix, and
    the integer matrix expr with denom * x_basic = -expr @ x_free on its
    kernel.

    Total unimodularity makes denom 1; other integer matrices keep exact
    counts through the divisibility test in kernel_height_histogram.
    """
    reduced, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    denom = lcm(*(reduced[r][c].denominator for r in range(len(pivots)) for c in free))
    expr = [[int(reduced[r][c] * denom) for c in free] for r in range(len(pivots))]
    return pivots, free, expr, denom


def _product(high, low):
    """The box of all pairs (x, y), x from high (the leading coordinates)
    and y from low, in mixed-radix order.  A box is a triple (scaled,
    mask, height) of per-point columns: the basic coordinates times
    -denom (one row per pivot), the free support bits, and max |x_free|.
    """
    (s_hi, m_hi, h_hi), (s_lo, m_lo, h_lo) = high, low
    mask = np.add.outer(m_hi, m_lo).ravel()
    scaled = (s_hi[:, :, None] + s_lo[:, None, :]).reshape(len(s_hi), len(mask))
    return scaled, mask, np.maximum.outer(h_hi, h_lo).ravel()


def _points(box, lo: int, hi: int):
    return tuple(column[..., lo:hi] for column in box)


def kernel_height_histogram(rows, ncols: int, kmax: int, budget: int = DEFAULT_BUDGET):
    """hist[mask, h]: the number of integer x with rows @ x = 0 whose
    support bitmask is mask and whose max_j |x_j| is h, for h < kmax.

    One pass over the cotree box {-(kmax-1), ..., kmax-1}^nullity: the
    free coordinates determine the basic ones exactly.  In mixed-radix
    order the box is symmetric about its centre, the zero flow: the
    points i and total-1-i are x and -x.  So only the points below the
    centre are enumerated and the histogram is doubled.  The free
    coordinates split into leading ones, taken in batches, and trailing
    ones, whose block is built once (at most _CHUNK points, or the
    2*kmax-1 values of one coordinate when that is more); each batch is
    combined with that block by broadcasting.  The budget bounds the
    box and the kmax * 2^ncols histogram cells before anything is
    allocated.
    """
    if kmax < 1:
        raise ValueError("k must be >= 1")
    pivots, free, expr, denom = _cotree_expression(tuple(map(tuple, rows)), ncols)
    nullity = len(free)
    base = 2 * kmax - 1
    if base**nullity > budget:
        raise BudgetExceededError(
            f"(2k-1)^nullity = {base}^{nullity} exceeds budget {budget}"
        )
    check_histogram_budget(kmax, ncols, budget)
    cells = kmax << ncols

    expr = np.array(expr, dtype=np.int64).reshape(len(pivots), nullity)
    bits_piv = np.array([1 << c for c in pivots], dtype=np.int64)[:, None]
    values = np.arange(1 - kmax, kmax, dtype=np.int64)
    zero = np.zeros(1, dtype=np.int64)
    unit = (np.zeros((len(pivots), 1), dtype=np.int64), zero, zero)
    axes = [
        (expr[:, j, None] * values, (values != 0) * (1 << c), np.abs(values))
        for j, c in enumerate(free)
    ]
    n_low = min(nullity, 1)
    while n_low < nullity and base ** (n_low + 1) <= _CHUNK:
        n_low += 1
    high = reduce(_product, axes[: nullity - n_low], unit)
    low = reduce(_product, axes[nullity - n_low :], unit)

    def histogram(box):
        scaled, mask, height = box
        size = np.abs(scaled)
        ok = (size <= denom * (kmax - 1)).all(axis=0)
        if denom > 1:
            ok &= (scaled % denom == 0).all(axis=0)
        height = np.maximum(height, size.max(axis=0, initial=0) // denom)
        mask = mask + ((scaled != 0) * bits_piv).sum(axis=0)
        return np.bincount((mask * kmax + height)[ok], minlength=cells)

    # The leading prefixes below the centre one (all zero) take the whole
    # trailing block; the centre prefix takes the block's lower half.
    below = (base ** (nullity - n_low) - 1) // 2
    centre = _points(high, below, below + 1)
    hist = histogram(_product(centre, _points(low, 0, base**n_low // 2)))
    step = max(1, _CHUNK // base**n_low)
    for start in range(0, below, step):
        hist += histogram(_product(_points(high, start, min(start + step, below)), low))
    hist *= 2
    hist[0] += 1
    return hist.reshape(1 << ncols, kmax)


def nl_integer_kflow_counts(rows, ncols: int, ks, predicate, budget: int = DEFAULT_BUDGET):
    """For each k in ks, the number of integer kernel elements of rows with
    entries in {0, +-1, ..., +-(k-1)} whose support mask satisfies the
    predicate; one histogram pass at max(ks) serves every k.
    """
    ks = list(ks)
    if min(ks) < 1:
        raise ValueError("k must be >= 1")
    at_most = kernel_height_histogram(rows, ncols, max(ks), budget).cumsum(axis=1)
    totals = at_most[cyclic_supports(at_most[:, -1], predicate)].sum(axis=0)
    return [int(totals[k - 1]) for k in ks]


def _integer_kflow_counts(d: Digraph, ks, budget: int) -> list[int]:
    return nl_integer_kflow_counts(
        incidence_matrix(d), d.m, ks, partial(_support_cyclic, d), budget
    )


def count_nl_integer_kflows(d: Digraph, k: int, budget: int = DEFAULT_BUDGET) -> int:
    """Number of integer flows with entries in {0, +-1, ..., +-(k-1)}
    (exact conservation over the integers) whose support contraction is
    totally cyclic.
    """
    return _integer_kflow_counts(d, [k], budget)[0]


def count_acyclic_colorings(d: Digraph, k: int, budget: int = DEFAULT_BUDGET) -> int:
    """Number of maps V -> {1..k} where every color class induces an
    acyclic subdigraph.  Requires a loopless digraph.
    """
    if any(t == h for t, h in d.arcs):
        raise ValueError("acyclic colorings are only defined for loopless digraphs")
    if k < 0:
        raise ValueError("k must be >= 0")
    if k**d.n > budget:
        raise BudgetExceededError(f"k^n = {k}^{d.n} exceeds budget {budget}")
    from itertools import product

    count = 0
    for coloring in product(range(k), repeat=d.n):
        mono = tuple(a for a in d.arcs if coloring[a[0]] == coloring[a[1]])
        if is_acyclic(Digraph(d.n, mono)):
            count += 1
    return count


def exists_nl_group_flow(d: Digraph, g: AbelianGroup, budget: int = DEFAULT_BUDGET) -> bool:
    return count_nl_group_flows(d, g, budget) > 0


def exists_nl_integer_kflow(d: Digraph, k: int, budget: int = DEFAULT_BUDGET) -> bool:
    return count_nl_integer_kflows(d, k, budget) > 0


def check_equivalence_theorem(d: Digraph, k: int, budget: int = DEFAULT_BUDGET) -> bool:
    """Existence must agree across Z_k, every abelian group of order k,
    and integer flows with entries bounded by k-1.
    """
    flags = [exists_nl_group_flow(d, cyclic(k), budget)]
    flags.extend(
        exists_nl_group_flow(d, g, budget) for g in abelian_groups_of_order(k)
    )
    flags.append(exists_nl_integer_kflow(d, k, budget))
    return len(set(flags)) == 1


def fit_integer_flow_polynomial(d: Digraph, k_range, budget: int = DEFAULT_BUDGET):
    """Interpolate the integer NL-k-flow counts over k_range to a
    polynomial of degree <= m - rk(A); at least one extra point must be
    supplied and must match the interpolant exactly.

    Returns an IntPolynomial when the coefficients come out integral,
    otherwise the exact RationalPolynomial (the counts are Ehrhart-like:
    always integer-valued, not always integer-coefficient).
    """
    k_range = list(k_range)
    bound = d.m - rank(d, d.all_arcs)
    if len(k_range) < bound + 2:
        raise ValueError(
            f"need at least {bound + 2} evaluation points (degree bound {bound} "
            f"plus a held-out witness), got {len(k_range)}"
        )
    points = list(zip(k_range, _integer_kflow_counts(d, k_range, budget)))
    try:
        poly = interpolate_rational(points, bound)
    except WitnessMismatchError as exc:
        raise WitnessMismatchError(f"polynomiality violated: {exc}") from None
    return poly.to_int_polynomial() if poly.is_integral() else poly
