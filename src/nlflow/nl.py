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
any width), and rank reads the exponents straight from them.
"""

from __future__ import annotations

from collections import defaultdict

# The enumerators are called through their module, where the benchmark's
# tracer (perfbench/tracer.py) times them.
from . import cuts
from .digraphs import Digraph, arc_mask, rank
from .errors import LatticeSizeError
from .polynomials import IntPolynomial


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


def _polynomial(mu: dict[int, int], exponent) -> IntPolynomial:
    coeffs = defaultdict(int)
    for u, s in mu.items():
        if s:
            coeffs[exponent(u)] += s
    return IntPolynomial(coeffs)


def nl_flow_polynomial(d: Digraph, cap: int = cuts.DEFAULT_LATTICE_CAP) -> IntPolynomial:
    """phi(x) = sum over unions C of dicuts of mu(empty, C) * x^(|B| - rk(B)),
    with B = A \\ C.

    Evaluating at k = |G| counts the NL-G-flows of d for every finite
    abelian group G of that order.
    """
    top = (1 << d.m) - 1

    def exponent(u):
        b = top ^ u
        return b.bit_count() - rank(d, b)

    family = [arc_mask(c) for c in cuts.enumerate_dicuts(d, cap)]
    return _polynomial(_signed_unions(family, cap), exponent)


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
    return _polynomial(_signed_unions(family, cap), lambda u: rk_all - rank(d, u))
