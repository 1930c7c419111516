"""Slow reference path for the NL polynomials: the explicit lattice of
complements A \\ C of unions C of dicuts (or directed cycles), built by a
breadth-first union closure and ordered by reverse inclusion, with the
Moebius function from FinitePoset's defining recursion (O(L^2) for L
elements).  Arc sets are int bitmasks, as nlflow.cuts lists them.

The crosscut engine in nlflow.nl shares none of this, so its phi and psi
are checked against these.  Test-side only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from nlflow import IntPolynomial
from nlflow.cuts import DEFAULT_LATTICE_CAP, enumerate_dicuts, enumerate_directed_cycles
from nlflow.digraphs import Digraph, mask_arcs, rank
from nlflow.errors import LatticeSizeError
from nlflow.posets import FinitePoset


@dataclass
class CutLattice:
    """The poset of arc sets A \\ C with C a union of family members,
    ordered by reverse inclusion and containing A (the empty union).
    """

    digraph: Digraph
    elements: list[int]
    top: int
    poset: FinitePoset = field(repr=False)

    def mobius_from_top(self, b: int) -> int:
        return self.poset.mobius(self.top, b)


def union_closure(family, cap):
    unions = {0}
    frontier = {0}
    while frontier:
        nxt = set()
        for u in frontier:
            for c in family:
                w = u | c
                if w not in unions:
                    unions.add(w)
                    nxt.add(w)
                    if len(unions) > cap:
                        raise LatticeSizeError(
                            f"lattice would exceed the {cap}-element cap"
                        )
        frontier = nxt
    return unions


def _build_lattice(d: Digraph, family, cap) -> CutLattice:
    top = d.all_arcs
    elements = sorted({top ^ u for u in union_closure(family, cap)},
                      key=lambda s: (-s.bit_count(), mask_arcs(s)))
    poset = FinitePoset(elements, lambda a, b: a & b == b)
    return CutLattice(digraph=d, elements=elements, top=top, poset=poset)


def build_cut_lattice(d: Digraph, cap: int = DEFAULT_LATTICE_CAP) -> CutLattice:
    return _build_lattice(d, enumerate_dicuts(d), cap)


def build_cycle_lattice(d: Digraph, cap: int = DEFAULT_LATTICE_CAP) -> CutLattice:
    return _build_lattice(d, enumerate_directed_cycles(d, cap), cap)


def reference_flow_polynomial(d: Digraph, cap: int = DEFAULT_LATTICE_CAP) -> IntPolynomial:
    """phi(x) = sum over lattice elements B of mu(A, B) * x^(|B| - rk(B))."""
    lattice = build_cut_lattice(d, cap)
    out = IntPolynomial.zero()
    for b in lattice.elements:
        mu = lattice.mobius_from_top(b)
        if mu:
            out = out + IntPolynomial.monomial(b.bit_count() - rank(d, b), mu)
    return out


def reference_coflow_polynomial(d: Digraph, cap: int = DEFAULT_LATTICE_CAP) -> IntPolynomial:
    """psi(x) = sum over lattice elements B of mu(A, B) * x^(rk(A) - rk(A \\ B))."""
    lattice = build_cycle_lattice(d, cap)
    rk_all = rank(d, d.all_arcs)
    out = IntPolynomial.zero()
    for b in lattice.elements:
        mu = lattice.mobius_from_top(b)
        if mu:
            out = out + IntPolynomial.monomial(rk_all - rank(d, lattice.top ^ b), mu)
    return out
