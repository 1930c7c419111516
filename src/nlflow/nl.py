"""The central formulas: the NL-flow polynomial as a Moebius sum over the
unions of dicuts, and the NL-coflow polynomial as the same sum over the
unions of directed cycles.

One engine serves both.  By Rota's crosscut theorem the Moebius value
mu(empty, C) in the lattice of unions is the sum of (-1)^|S| over the
subsets S of the family whose union is C; this holds for any family that
generates the lattice, so the enumerated dicuts or dicycles are used as
they come.  The signed sum is built one member at a time in a dict keyed
by union, so no lattice order or Moebius recursion is ever formed.  The
members and unions are int bitmasks of arc indices (bit j for arc j, of
any width).  Each exponent needs the graphic rank of a union (of its
complement for phi).  A lattice of at least _BATCH_MIN_UNIONS (96)
unions, on a digraph of at most _BATCH_WIDTH (64) vertices and as many
arcs, is ranked in one batched closure over uint64 vertex rows
(_batch_ranks); any other lattice is ranked one union at a time by the
union-find of digraphs.rank, which also stays the batch's test oracle.
"""

from __future__ import annotations

from collections import defaultdict

# The enumerators are called through their module, where the benchmark's
# tracer (perfbench/tracer.py) times them.
from . import cuts
from .digraphs import Digraph, arc_mask, rank
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


def _batch_ranks(d: Digraph, masks: list[int]) -> list[int]:
    """rk(b) for every arc bitmask b of masks, for d of at most
    _BATCH_WIDTH vertices and arcs, in one numpy pass per _RANK_BATCH
    masks.

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
    ranks = []
    for lo in range(0, len(masks), _RANK_BATCH):
        block = np.array(masks[lo : lo + _RANK_BATCH], dtype=np.uint64)
        joined = np.repeat(bit[:, None], len(block), axis=1)
        has = block >> index & np.uint64(1)  # has[i]: is arc i in each mask?
        to_head, to_tail = has << heads, has << tails
        for i, (_, t, h) in enumerate(arcs):
            joined[t] |= to_head[i]
            joined[h] |= to_tail[i]
        for v in range(d.n):
            joined |= (joined >> np.uint64(v) & np.uint64(1)) * joined[v]
        ranks += (d.n - ((joined & below) == 0).sum(axis=0)).tolist()
    return ranks


def _polynomial(d: Digraph, mu: dict[int, int], flip: int, exponent) -> IntPolynomial:
    """The sum of mu[u] * x^exponent(b, rk(b)), with b = u ^ flip, over
    the unions u with a nonzero Moebius value.
    """
    coeffs = defaultdict(int)
    if len(mu) >= _BATCH_MIN_UNIONS and max(d.n, d.m) <= _BATCH_WIDTH:
        terms = [(u ^ flip, s) for u, s in mu.items() if s]
        for (b, s), r in zip(terms, _batch_ranks(d, [b for b, _ in terms])):
            coeffs[exponent(b, r)] += s
    else:
        for u, s in mu.items():
            if s:
                b = u ^ flip
                coeffs[exponent(b, rank(d, b))] += s
    return IntPolynomial(coeffs)


def nl_flow_polynomial(d: Digraph, cap: int = cuts.DEFAULT_LATTICE_CAP) -> IntPolynomial:
    """phi(x) = sum over unions C of dicuts of mu(empty, C) * x^(|B| - rk(B)),
    with B = A \\ C.

    Evaluating at k = |G| counts the NL-G-flows of d for every finite
    abelian group G of that order.
    """
    family = [arc_mask(c) for c in cuts.enumerate_dicuts(d, cap)]
    mu = _signed_unions(family, cap)
    return _polynomial(d, mu, (1 << d.m) - 1, lambda b, r: b.bit_count() - r)


def nl_coflow_polynomial(d: Digraph, cap: int = cuts.DEFAULT_LATTICE_CAP) -> IntPolynomial:
    """psi(x) = sum over unions C of directed cycles of
    mu(empty, C) * x^(rk(A) - rk(C)).

    The exponent is the dimension of the space of coflows vanishing on C,
    the coflows of d / C: rk(A) - rk(C), which is not rk(A \\ C) in
    general (on K*3 with C one digon they are 1 and 2).

    For loopless d with c weak components, k^c * psi(k) counts the acyclic
    vertex k-colorings of d.
    """
    rk_all = rank(d, (1 << d.m) - 1)
    family = [arc_mask(c) for c in cuts.enumerate_directed_cycles(d, cap)]
    return _polynomial(d, _signed_unions(family, cap), 0, lambda b, r: rk_all - r)
