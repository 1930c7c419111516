"""Directed cuts, directed cycles and dijoins.  The dicuts and the
directed cycles are the families whose unions carry the Moebius sums of
the NL polynomials (see nlflow.nl).  Both come as increasing lists of
int arc bitmasks (bit j for arc j), the form nlflow.nl sums over, and
is_dijoin takes its arc set as a bitmask too.

A dicut is delta(U) for a vertex set U with no arcs entering U; no dicut
can separate a strongly connected component, so U is an order ideal
(a predecessor-closed set) of the condensation.  The ideals are walked
directly, one weak component at a time, so the work is O(k) per ideal
for k components: it follows the output, not the 2^k subsets.
"""

from __future__ import annotations

from itertools import islice

from .digraphs import Digraph, condensation_labels, contract, is_totally_cyclic, weak_components
from .errors import LatticeSizeError

DEFAULT_LATTICE_CAP = 10**6


def _ideal_cuts(comps, preds, flip):
    """Yield the nonempty cuts, as arc bitmasks, of the order ideals of one
    weak component of the condensation (comps, in topological order).

    A component may join the ideal only once all its predecessors are in,
    and then its in-arcs leave the cut and its out-arcs enter it: the cut
    changes by flip[c].  Every branch ends in a leaf, and the leaves are
    the ideals.  The empty and the full ideal have the empty cut; any
    other one has a nonempty cut that determines it, so no cut repeats.
    """
    stack = [(0, 0, 0)]  # (position in comps, ideal as component bits, cut)
    while stack:
        i, ideal, cut = stack.pop()
        if i == len(comps):
            if cut:
                yield cut
            continue
        c = comps[i]
        stack.append((i + 1, ideal, cut))
        if preds[c] & ideal == preds[c]:
            stack.append((i + 1, ideal | 1 << c, cut ^ flip[c]))


def enumerate_dicuts(d: Digraph, cap: int = DEFAULT_LATTICE_CAP) -> list[int]:
    """All distinct nonempty dicuts delta(U), deduplicated across the
    vertex sets that induce them, as an increasing list of arc bitmasks.

    The weak components of d have disjoint arcs, so a dicut is a union of
    one dicut (or none) per component, and their number, the product of
    (cuts + 1) over the components minus one, is known before any union
    is built; more than cap dicuts raise LatticeSizeError.
    """
    label, k = condensation_labels(d)
    weak = weak_components(d)
    preds = [0] * k
    flip = [0] * k  # the in-arcs and out-arcs of each component
    for j, (t, h) in enumerate(d.arcs):
        if label[t] != label[h]:
            preds[label[h]] |= 1 << label[t]
            flip[label[t]] ^= 1 << j
            flip[label[h]] ^= 1 << j
    weak_of = [0] * k
    for v, c in enumerate(label):
        weak_of[c] = weak[v]
    members = {}  # weak component -> its condensation components, in order
    for c in range(k):
        members.setdefault(weak_of[c], []).append(c)

    per_component = []
    total = 1  # dicuts, counting the empty one, of the components so far
    for comps in members.values():
        # Enough cuts to tell whether the product passes cap + 1.
        cuts = list(islice(_ideal_cuts(comps, preds, flip), (cap + 1) // total))
        total *= len(cuts) + 1
        if total > cap + 1:
            raise LatticeSizeError(f"more than {cap} dicuts")
        per_component.append(cuts)

    unions = [0]
    for cuts in per_component:
        unions = [u | c for u in unions for c in [0, *cuts]]
    return sorted(unions[1:])


def enumerate_directed_cycles(d: Digraph, cap: int = DEFAULT_LATTICE_CAP) -> list[int]:
    """Arc bitmasks of all elementary directed cycles, including 2-cycles
    from antiparallel pairs and 1-cycles from loops, in increasing order.

    DFS rooted at the smallest vertex of each cycle, on an explicit stack
    of the remaining out-arcs of each vertex on the path, so a long path
    cannot exhaust the interpreter's recursion limit; parallel arcs give
    distinct cycles because arcs are tracked by index.  Every cycle lies in
    one strong component, so the arcs between components are dropped
    first, and an acyclic digraph is listed in linear time.
    """
    label, _ = condensation_labels(d)
    out = [[] for _ in range(d.n)]
    for j, (t, h) in enumerate(d.arcs):
        if label[t] == label[h]:
            out[t].append((j, h))

    cycles = set()
    for root in range(d.n):
        if not out[root]:
            continue
        path, mask = [], 0  # the arcs from root to the top of the stack, as a list and a mask
        on_path = {root}
        stack = [iter(out[root])]
        while stack:
            for j, w in stack[-1]:
                if w == root:
                    cycles.add(mask | 1 << j)
                    if len(cycles) > cap:
                        raise LatticeSizeError(f"more than {cap} directed cycles")
                elif w > root and w not in on_path:
                    on_path.add(w)
                    path.append(j)
                    mask |= 1 << j
                    stack.append(iter(out[w]))
                    break
            else:
                stack.pop()
                if path:
                    j = path.pop()
                    mask ^= 1 << j
                    on_path.remove(d.arcs[j][1])
    return sorted(cycles)


def is_dijoin(d: Digraph, s: int) -> bool:
    """The arc bitmask s is a dijoin iff contracting it leaves every
    component strongly connected (the equivalent cut-intersection form is
    kept as a test invariant against enumerate_dicuts).
    """
    return is_totally_cyclic(contract(d, s))

