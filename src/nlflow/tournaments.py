"""Closed-form NL-flow polynomials for complete (acyclic) digraphs, the
condensation formula for general complete digraphs, and the term-level
shortcuts (leading, constant, linear coefficients).

The condensation formula's prefix recursion is charged against the
budget before it starts (check_closed_form_budget).
"""

from __future__ import annotations

from math import comb

from .digraphs import Digraph
from .errors import DEFAULT_BUDGET, BudgetExceededError
from .polynomials import IntPolynomial


def check_closed_form_budget(blocks: int, vertices: int, budget: int) -> None:
    """Refuse the prefix recursion over `blocks` components of `vertices`
    vertices in all when its blocks * (blocks + 1) / 2 steps times its term
    bound exceed the budget.  A step runs over the terms of one prefix sum:
    at most C(vertices - 1, 2) + 1 exponents, and at most 2^(blocks - 1),
    one per composition.
    """
    terms = comb(vertices - 1, 2) + 1
    terms = min(terms, 1 << min(blocks - 1, terms.bit_length()))
    steps = blocks * (blocks + 1) // 2
    if steps * terms > budget:
        raise BudgetExceededError(
            f"closed form of {blocks} components: {steps} prefix steps of up to "
            f"{terms} terms exceed budget {budget}"
        )


def complete_acyclic_nl_poly(n: int, budget: int = DEFAULT_BUDGET) -> IntPolynomial:
    """NL-flow polynomial of the complete acyclic digraph on n vertices:
    the condensation formula with n singleton components.  n = 1 gives 1
    (the empty flow).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    check_closed_form_budget(n, n, budget)
    return complete_digraph_nl_poly((1,) * n, budget)


def complete_digraph_nl_poly(sizes, budget: int = DEFAULT_BUDGET) -> IntPolynomial:
    """NL-flow polynomial of a complete digraph whose condensation has
    strong components of the given sizes, listed in topological order.

    The formula sums over the compositions of the d components into blocks
    of consecutive components, with sign (-1)^(blocks + 1); each block
    contributes x^C(n_j - 1, 2), n_j its vertex count.  It is summed by
    prefixes: F(i), the sum over the compositions of the first i
    components, is -sum_{j<i} F(j) * x^C(N(j, i) - 1, 2) with F(0) = -1 and
    N(j, i) the vertices of components j+1..i, and the polynomial is F(d).
    That is O(d^2) polynomial steps, not 2^(d-1) compositions.
    """
    sizes = tuple(int(k) for k in sizes)
    if not sizes:
        raise ValueError("sizes must be a nonempty tuple of component sizes")
    if any(k < 1 for k in sizes):
        raise ValueError("component sizes must be >= 1")
    check_closed_form_budget(len(sizes), sum(sizes), budget)
    prefix = [0]
    for k in sizes:
        prefix.append(prefix[-1] + k)
    sums = [{0: -1}]  # sums[i] = F(i), exponent -> coefficient
    for i in range(1, len(sizes) + 1):
        coeffs: dict[int, int] = {}
        for j, below in enumerate(sums):
            e = comb(prefix[i] - prefix[j] - 1, 2)
            for a, c in below.items():
                coeffs[a + e] = coeffs.get(a + e, 0) - c
        sums.append(coeffs)
    return IntPolynomial(sums[-1])


def constant_term(n: int) -> int:
    """phi(0) for the complete acyclic digraph on n vertices; periodic in
    n mod 3 and satisfies c(n) = -(c(n-1) + c(n-2)).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return {0: -1, 1: 1, 2: 0}[n % 3]


def linear_term(n: int) -> int:
    """Coefficient of x in the complete acyclic polynomial, n >= 4."""
    if n < 4:
        raise ValueError("linear_term is defined for n >= 4")
    r = n % 3
    if r == 0:
        num = n
    elif r == 1:
        num = -2 * (n - 1)
    else:
        num = n - 2
    assert num % 3 == 0
    return num // 3


def leading_terms(n: int) -> list[tuple[int, int]]:
    """The two highest terms, as (exponent, coefficient), n >= 4."""
    if n < 4:
        raise ValueError("leading_terms is defined for n >= 4")
    return [(comb(n - 1, 2), 1), (comb(n - 2, 2), -2)]


def complete_acyclic_digraph(n: int) -> Digraph:
    """Arcs i -> j for all i < j."""
    return Digraph(n, tuple((i, j) for i in range(n) for j in range(i + 1, n)))


def strong_tournament(k: int) -> Digraph:
    """A strongly connected tournament on k vertices (k = 1 or k >= 3).

    Rotational layout: i beats the next (k-1)//2 vertices mod k; for even
    k the diameter pairs are oriented low -> high.  The difference-1 arcs
    form a hamiltonian cycle, so the result is strong.
    """
    if k == 2:
        raise ValueError("no strong tournament on 2 vertices exists")
    if k < 1:
        raise ValueError("k must be >= 1")
    arcs = []
    half = (k - 1) // 2
    for i in range(k):
        for step in range(1, half + 1):
            arcs.append((i, (i + step) % k))
    if k % 2 == 0 and k >= 4:
        for i in range(k // 2):
            arcs.append((i, i + k // 2))
    return Digraph(k, tuple(arcs))


def complete_digraph_witness(sizes) -> Digraph:
    """An explicit complete digraph whose strong components, in
    topological order, are strong tournaments of the given sizes.

    Size-2 components are rejected: a 2-vertex tournament is never strong.
    """
    sizes = tuple(int(k) for k in sizes)
    if any(k == 2 for k in sizes):
        raise ValueError("size-2 strong components are impossible in a tournament")
    n = sum(sizes)
    arcs = []
    offset = 0
    offsets = []
    for k in sizes:
        comp = strong_tournament(k)
        arcs.extend((t + offset, h + offset) for t, h in comp.arcs)
        offsets.append(offset)
        offset += k
    for i, ki in enumerate(sizes):
        for j in range(i + 1, len(sizes)):
            kj = sizes[j]
            for u in range(offsets[i], offsets[i] + ki):
                for v in range(offsets[j], offsets[j] + kj):
                    arcs.append((u, v))
    return Digraph(n, tuple(arcs))
