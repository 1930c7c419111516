"""The paper's equivalence theorem as a check: NL-flow existence agrees
across Z_k, every abelian group of order k, and integer flows bounded by
k - 1, read off the counters of nlflow.oracles.  The acceptance suite
(criterion 5) runs it over the full catalog.  abelian_groups_of_order
lists the groups of order k.  Test-side only.
"""

from itertools import product

from nlflow.digraphs import Digraph
from nlflow.errors import DEFAULT_BUDGET
from nlflow.groups import AbelianGroup, cyclic
from nlflow.oracles import count_nl_group_flows, count_nl_integer_kflows


def _factorize(k: int) -> dict[int, int]:
    out = {}
    p = 2
    while p * p <= k:
        while k % p == 0:
            out[p] = out.get(p, 0) + 1
            k //= p
        p += 1
    if k > 1:
        out[k] = out.get(k, 0) + 1
    return out


def _partitions(e: int):
    """Integer partitions of e as non-increasing tuples."""
    def gen(rest, maxpart):
        if rest == 0:
            yield ()
            return
        for first in range(min(rest, maxpart), 0, -1):
            for tail in gen(rest - first, first):
                yield (first,) + tail

    return gen(e, e)


def abelian_groups_of_order(k: int) -> list[AbelianGroup]:
    """One representative per isomorphism class, via the primary
    decomposition: one exponent partition per prime power in k.
    """
    if k < 1:
        raise ValueError("group order must be >= 1")
    if k == 1:
        return [AbelianGroup()]
    primes = sorted(_factorize(k).items())
    choices = [[tuple(p**a for a in part) for part in _partitions(e)] for p, e in primes]
    return [AbelianGroup(tuple(f for block in combo for f in block)) for combo in product(*choices)]


def check_equivalence_theorem(d: Digraph, k: int, budget: int = DEFAULT_BUDGET) -> bool:
    """Existence must agree across Z_k, every abelian group of order k,
    and integer flows with entries bounded by k-1.  Z_k is one of those
    groups whenever k is a prime power, and is counted once.
    """
    groups = dict.fromkeys([cyclic(k), *abelian_groups_of_order(k)])
    flags = [count_nl_group_flows(d, g, budget) > 0 for g in groups]
    flags.append(count_nl_integer_kflows(d, k, budget) > 0)
    return len(set(flags)) == 1
