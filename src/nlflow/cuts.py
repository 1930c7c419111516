"""Directed cuts, directed cycles, dijoins and feedback arc sets.  The
dicuts and the directed cycles are the families whose unions carry the
Moebius sums of the NL polynomials (see nlflow.nl).

A dicut is delta(U) for a vertex set U with no arcs entering U; no dicut
can separate a strongly connected component, so enumeration runs over
predecessor-closed sets of the condensation (2^d work for d components,
not 2^n).
"""

from __future__ import annotations

from itertools import combinations

from .digraphs import ArcSet, Digraph, condensation_labels, contract, delete, is_acyclic, is_totally_cyclic
from .errors import LatticeSizeError

DEFAULT_LATTICE_CAP = 10**6


def enumerate_dicuts(d: Digraph) -> list[ArcSet]:
    """All distinct nonempty dicuts delta(U), deduplicated across the
    vertex sets that induce them, in a deterministic order.
    """
    label, k = condensation_labels(d)
    if k > 30:
        raise LatticeSizeError(
            f"condensation has {k} components; dicut enumeration capped at 30"
        )
    # Arcs of the condensation, as a predecessor relation between components.
    preds = [set() for _ in range(k)]
    for t, h in d.arcs:
        if label[t] != label[h]:
            preds[label[h]].add(label[t])

    dicuts = set()
    nodes = list(range(k))
    for r in range(1, k):
        for chosen in combinations(nodes, r):
            u = set(chosen)
            if any(not preds[c] <= u for c in u):
                continue  # some arc enters u
            cut = frozenset(
                j for j, (t, h) in enumerate(d.arcs)
                if label[t] in u and label[h] not in u
            )
            if cut:
                dicuts.add(cut)
    return sorted(dicuts, key=sorted)


def enumerate_directed_cycles(d: Digraph, cap: int = DEFAULT_LATTICE_CAP) -> list[ArcSet]:
    """Arc sets of all elementary directed cycles, including 2-cycles from
    antiparallel pairs and 1-cycles from loops.

    DFS rooted at the smallest vertex of each cycle; parallel arcs give
    distinct cycles because arcs are tracked by index.
    """
    out = [[] for _ in range(d.n)]
    for j, (t, h) in enumerate(d.arcs):
        out[t].append((j, h))

    cycles = set()

    def grow(root, v, path_arcs, on_path):
        for j, w in out[v]:
            if w == root and (v != root or d.arcs[j][0] == d.arcs[j][1]):
                cycles.add(frozenset(path_arcs + [j]))
                if len(cycles) > cap:
                    raise LatticeSizeError(f"more than {cap} directed cycles")
            elif w > root and w not in on_path:
                on_path.add(w)
                grow(root, w, path_arcs + [j], on_path)
                on_path.remove(w)

    for root in range(d.n):
        grow(root, root, [], {root})
    return sorted(cycles, key=sorted)


def is_dijoin(d: Digraph, s: ArcSet) -> bool:
    """S is a dijoin iff contracting it leaves every component strongly
    connected (the equivalent cut-intersection form is kept as a test
    invariant against enumerate_dicuts).
    """
    return is_totally_cyclic(contract(d, s))


def is_feedback_arc_set(d: Digraph, s: ArcSet) -> bool:
    return is_acyclic(delete(d, s))
