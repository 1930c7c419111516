"""Compositions of an integer, listed one by one: the 2^(d-1) terms that
tests/test_tournaments.py sums to check the prefix recursion of
nlflow.tournaments, which never lists them.  And the paper's term-level
propositions on the complete acyclic polynomial (its constant, linear
and two leading terms in closed form), which the acceptance suite
(criterion 7) and tests/test_tournaments.py check against the
polynomials nlflow.tournaments computes.  Test-side only.
"""

from math import comb


def compositions(n: int, p: int):
    """All C(n-1, p-1) compositions of n into p positive parts, in
    lexicographic order.
    """
    if not 1 <= p <= n:
        raise ValueError(f"need 1 <= p <= n, got p={p}, n={n}")

    def gen(rest, parts):
        if parts == 1:
            yield (rest,)
            return
        for first in range(1, rest - parts + 2):
            for tail in gen(rest - first, parts - 1):
                yield (first,) + tail

    return gen(n, p)


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
