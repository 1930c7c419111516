"""Reference digraph catalog: for every sorted arc multiset, the minimum
over all n! vertex relabelings of its relabeled, sorted arc tuple, taken
in pure Python one candidate at a time.  nlflow.catalog tests whole blocks
of candidates with numpy instead; this is the version it is compared with.
Test-side only.
"""

from itertools import combinations_with_replacement, permutations

from nlflow.digraphs import Digraph


def digraph_catalog(max_n: int, max_m: int) -> tuple[Digraph, ...]:
    out = []
    for n in range(1, max_n + 1):
        arc_types = [(i, j) for i in range(n) for j in range(n)]
        perms = list(permutations(range(n)))
        for m in range(0, max_m + 1):
            for combo in combinations_with_replacement(arc_types, m):
                arcs = tuple(sorted(combo))
                canonical = min(
                    tuple(sorted((p[t], p[h]) for t, h in arcs)) for p in perms
                )
                if arcs == canonical:
                    out.append(Digraph(n, arcs))
    return tuple(out)
