"""The central formulas: the NL-flow polynomial as a Moebius sum over the
unions of dicuts, and the NL-coflow polynomial as the same sum over the
unions of directed cycles.

One engine serves both.  By Rota's crosscut theorem the Moebius value
mu(empty, C) in the lattice of unions is the sum of (-1)^|S| over the
subsets S of the family whose union is C; this holds for any family that
generates the lattice, so the enumerated dicuts or dicycles are used as
they come, and no lattice order or Moebius recursion is ever formed.  The
members, as nlflow.cuts lists them, and the unions are int bitmasks of
arc indices (bit j for arc j, of any width), the one arc-set format of
nlflow.  mu is computed one of two ways:

- the dict sweep (_signed_unions) builds the signed sum one member at a
  time in a dict keyed by union, about |family| x |lattice| updates;
- the subset transform (_subset_transform) works on an array over the
  2^m' subsets X of the m' arcs the family covers.  The zeta transform
  diagonalises the signed sum: mu summed over the subsets of X is 1 if X
  contains no member, else 0.  So an OR pass marks the subsets that
  contain a member, and a subtraction pass, the subset Moebius
  transform, turns the unmarked ones into mu: m' * 2^m' steps in numpy,
  whatever the lattice's size.

A family takes the transform when it has at least
_TRANSFORM_MIN_MEMBERS (12) members and no fewer members than covered
arcs, 2^m' is within the lattice cap, and the digraph has at most
_BATCH_WIDTH (64) vertices and arcs; any other family is swept.  Both
counts are known before either runs.  The union lattice lies within the
2^m' subsets, so on the transform path it cannot pass the cap, and
LatticeSizeError is raised by the sweep alone, at the same union count
as ever.  Arithmetic stays exact: each transform pass at most doubles
the largest |value|, so |mu| <= 2^m' fits int64.

Each exponent needs the graphic rank of a union (of its complement for
phi).  The unions from the transform, and a swept lattice of at least
_BATCH_MIN_UNIONS (96) unions, on a digraph of at most _BATCH_WIDTH
vertices and as many arcs, are ranked in one batched closure over uint64
vertex rows (_batch_ranks), and their coefficients are summed by one
scatter-add over the exponents; any other lattice is ranked one union at
a time by the union-find of digraphs.rank, which also stays the batch's
test oracle.
"""

from __future__ import annotations

from collections import defaultdict

# The enumerators are called through their module, where the benchmark's
# tracer (perfbench/tracer.py) times them.
from . import cuts
from .digraphs import Digraph, rank
from .errors import LatticeSizeError
from .polynomials import IntPolynomial

# Lattices of fewer unions are ranked one union at a time: below about 70
# unions numpy's fixed cost per call outweighs the union-finds it saves.
# Every lattice of a digraph with at most 6 arcs has at most 64 unions.
_BATCH_MIN_UNIONS = 96
# The batch keeps a vertex set and an arc set each in one uint64.
_BATCH_WIDTH = 64
# Unions per batch: its arrays take about 8(2n + 3m) bytes per union,
# 10 MB at n = m = 64.
_RANK_BATCH = 1 << 12
# The transform takes a family of at least this many members that cover
# at most as many arcs; others are swept.  Timed both ways on about 300
# families of random digraphs, tournaments, grids and K*n: smaller or
# wider families mostly have lattices too small to repay the transform's
# m' * 2^m' steps and its numpy calls.
_TRANSFORM_MIN_MEMBERS = 12


def _signed_unions(family, cap: int) -> dict[int, int]:
    """mu(empty, C) for every union C of members of family (arc bitmasks),
    the empty union 0 included; zero values are kept, so the keys are
    exactly the union lattice, and more than cap unions raise
    LatticeSizeError.
    """
    mu = {0: 1}
    for a in family:
        for u, s in list(mu.items()):
            w = u | a
            mu[w] = mu.get(w, 0) - s
            if len(mu) > cap:
                raise LatticeSizeError(f"lattice would exceed the {cap}-element cap")
    return mu


def _subset_transform(family, cover: int):
    """(unions, mu): the unions C of members of family (nonempty arc
    bitmasks within cover, which has at most 64 bits) with a nonzero
    mu(empty, C), as an increasing uint64 array, and those values as
    int64.

    Cell x of each array over the 2^m' subsets of cover's m' arcs stands
    for table[x], the arc mask with bit i of x on the i-th covered arc.
    The table is built by doubling, so it is increasing and the members'
    cells are found by binary search.
    """
    import numpy as np

    width = cover.bit_count()
    table = np.zeros(1 << width, dtype=np.uint64)
    size = 1
    for j in range(cover.bit_length()):
        if cover >> j & 1:
            np.bitwise_or(table[:size], np.uint64(1 << j), out=table[size : 2 * size])
            size *= 2
    contains = np.zeros(1 << width, dtype=bool)
    contains[np.searchsorted(table, np.array(family, dtype=np.uint64))] = True
    for i in range(width):  # upward closure: does x contain a member?
        pairs = contains.reshape(-1, 2, 1 << i)
        pairs[:, 1] |= pairs[:, 0]
    mu = np.logical_not(contains).astype(np.int64)
    for i in range(width):  # subset Moebius transform
        pairs = mu.reshape(-1, 2, 1 << i)
        pairs[:, 1] -= pairs[:, 0]
    cells = np.flatnonzero(mu)
    return table[cells], mu[cells]


def _batch_ranks(d: Digraph, masks):
    """rk(b) for every arc bitmask b of masks (a list of ints or a uint64
    array), as an int64 array, for d of at most _BATCH_WIDTH vertices and
    arcs, in one numpy pass per _RANK_BATCH masks.

    Row v of a batch holds, per mask, the vertices joined to v as a
    uint64 bitmask.  Each arc other than a loop ORs its ends into each
    other's rows where its bit is set; a Warshall closure, one pass per
    pivot vertex, then makes every row its vertex's component, and the
    components are counted by the vertices that are the lowest bit of
    their own row.
    """
    import numpy as np

    arcs = [(j, t, h) for j, (t, h) in enumerate(d.arcs) if t != h]
    index, tails, heads = np.array(arcs, dtype=np.uint64).reshape(len(arcs), 3).T[:, :, None]
    bit = np.uint64(1) << np.arange(d.n, dtype=np.uint64)
    below = (bit - np.uint64(1))[:, None]
    ranks = np.empty(len(masks), dtype=np.int64)
    for lo in range(0, len(masks), _RANK_BATCH):
        block = np.asarray(masks[lo : lo + _RANK_BATCH], dtype=np.uint64)
        joined = np.repeat(bit[:, None], len(block), axis=1)
        has = block >> index & np.uint64(1)  # has[i]: is arc i in each mask?
        to_head, to_tail = has << heads, has << tails
        for i, (_, t, h) in enumerate(arcs):
            joined[t] |= to_head[i]
            joined[h] |= to_tail[i]
        for v in range(d.n):
            joined |= (joined >> np.uint64(v) & np.uint64(1)) * joined[v]
        ranks[lo : lo + len(block)] = d.n - ((joined & below) == 0).sum(axis=0)
    return ranks


def _batch_polynomial(d: Digraph, unions, values, flip: int, rk_all) -> IntPolynomial:
    """The sum of values[i] * x^e over the arc sets b = unions[i] ^ flip
    (uint64), with e = |b| - rk(b) for phi (rk_all None) and
    rk_all - rk(b) for psi, summed by one scatter-add over the exponents
    in the values' dtype (int64, or object where int64 might overflow).
    """
    import numpy as np

    masks = unions ^ np.uint64(flip)
    ranks = _batch_ranks(d, masks)
    exponents = rk_all - ranks if rk_all is not None else np.bitwise_count(masks) - ranks
    coeffs = np.zeros(int(exponents.max()) + 1, dtype=values.dtype)
    np.add.at(coeffs, exponents, values)
    return IntPolynomial({e: c for e, c in enumerate(coeffs.tolist()) if c})


def _polynomial(d: Digraph, family: list[int], cap: int, rk_all) -> IntPolynomial:
    """The sum of mu(empty, C) * x^e over the unions C of family with a
    nonzero Moebius value: phi's terms, e = |B| - rk(B) with B = A \\ C,
    when rk_all is None, else psi's, e = rk_all - rk(C).
    """
    flip = d.all_arcs if rk_all is None else 0
    cover = 0
    for a in family:
        cover |= a
    width = cover.bit_count()
    batched = max(d.n, d.m) <= _BATCH_WIDTH
    # The cells must fit the cap, and a coefficient, a sum of at most 2^m'
    # values of |mu| <= 2^m', must fit int64.
    dense = len(family) >= max(_TRANSFORM_MIN_MEMBERS, width)
    if dense and 1 << width <= cap and width < 32 and batched:
        unions, mu = _subset_transform(family, cover)
        return _batch_polynomial(d, unions, mu, flip, rk_all)
    mu = _signed_unions(family, cap)
    if len(mu) >= _BATCH_MIN_UNIONS and batched:
        import numpy as np

        # The |mu| over all unions sum to at most 2^|family|, the number of
        # subsets of the family; past int64, Python ints keep them exact.
        exact = np.int64 if len(family) < 63 else object
        unions = np.fromiter(mu, dtype=np.uint64, count=len(mu))
        values = np.fromiter(mu.values(), dtype=exact, count=len(mu))
        keep = values != 0
        return _batch_polynomial(d, unions[keep], values[keep], flip, rk_all)
    coeffs = defaultdict(int)
    for u, s in mu.items():
        if s:
            b = u ^ flip
            r = rank(d, b)
            coeffs[b.bit_count() - r if rk_all is None else rk_all - r] += s
    return IntPolynomial(coeffs)


def nl_flow_polynomial(d: Digraph, cap: int = cuts.DEFAULT_LATTICE_CAP) -> IntPolynomial:
    """phi(x) = sum over unions C of dicuts of mu(empty, C) * x^(|B| - rk(B)),
    with B = A \\ C.

    Evaluating at k = |G| counts the NL-G-flows of d for every finite
    abelian group G of that order.
    """
    return _polynomial(d, cuts.enumerate_dicuts(d, cap), cap, None)


def nl_coflow_polynomial(d: Digraph, cap: int = cuts.DEFAULT_LATTICE_CAP) -> IntPolynomial:
    """psi(x) = sum over unions C of directed cycles of
    mu(empty, C) * x^(rk(A) - rk(C)).

    The exponent is the dimension of the space of coflows vanishing on C,
    the coflows of d / C: rk(A) - rk(C), which is not rk(A \\ C) in
    general (on K*3 with C one digon they are 1 and 2).

    For loopless d with c weak components, k^c * psi(k) counts the acyclic
    vertex k-colorings of d.
    """
    rk_all = rank(d, d.all_arcs)
    return _polynomial(d, cuts.enumerate_directed_cycles(d, cap), cap, rk_all)
