"""Compositions of an integer, listed one by one: the 2^(d-1) terms that
tests/test_tournaments.py sums to check the prefix recursion of
nlflow.tournaments, which never lists them.  Test-side only.
"""


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
