"""Digraphs with positional arc identity, and the structural primitives
(components, rank, contraction, condensation, total cyclicity) everything
else is built on.

Vertices are dense indices 0..n-1.  An arc is an ordered pair
(tail, head); its identity is its position in the arc list, so parallel
and antiparallel arcs stay distinct and loops are allowed.  Arc sets are
plain frozensets of arc indices; inner loops carry them as int bitmasks
(bit j for arc j), which arc_mask and mask_arcs convert.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

ArcSet = frozenset  # frozenset[int], indices into Digraph.arcs


@dataclass(frozen=True)
class Digraph:
    n: int
    arcs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"vertex count must be >= 0, got {self.n}")
        object.__setattr__(self, "arcs", tuple((int(t), int(h)) for t, h in self.arcs))
        for i, (t, h) in enumerate(self.arcs):
            if not (0 <= t < self.n and 0 <= h < self.n):
                raise ValueError(f"arc {i} = ({t}, {h}) out of range for n = {self.n}")

    @property
    def m(self) -> int:
        return len(self.arcs)

    @cached_property
    def all_arcs(self) -> ArcSet:
        return frozenset(range(self.m))

    def check_arc_subset(self, s):
        s = frozenset(s)
        if not s <= self.all_arcs:
            raise ValueError(f"arc set {sorted(s)} is not a subset of 0..{self.m - 1}")
        return s


def incidence_matrix(d: Digraph) -> list[list[int]]:
    """n x m matrix with +1 at the tail and -1 at the head of each arc.

    A loop gives a zero column.
    """
    mat = [[0] * d.m for _ in range(d.n)]
    for j, (t, h) in enumerate(d.arcs):
        if t != h:
            mat[t][j] += 1
            mat[h][j] -= 1
    return mat


def weak_components(d: Digraph, b: ArcSet | None = None) -> list[int]:
    """Component labels of the spanning subgraph (V, b), arc directions ignored.

    Labels are 0..c-1 in order of first appearance by vertex index.
    """
    if b is None:
        b = d.all_arcs
    parent = list(range(d.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for j in b:
        t, h = d.arcs[j]
        rt, rh = find(t), find(h)
        if rt != rh:
            parent[rh] = rt

    labels = {}
    out = []
    for v in range(d.n):
        r = find(v)
        if r not in labels:
            labels[r] = len(labels)
        out.append(labels[r])
    return out


def num_weak_components(d: Digraph, b: ArcSet | None = None) -> int:
    labels = weak_components(d, b)
    return max(labels) + 1 if labels else 0


def arc_mask(s: ArcSet) -> int:
    """The bitmask of an arc set: bit j is set when arc j is in s."""
    mask = 0
    for j in s:
        mask |= 1 << j
    return mask


def mask_arcs(mask: int) -> list[int]:
    """The arc indices of a bitmask, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def rank(d: Digraph, b: ArcSet | int) -> int:
    """Graphic-matroid rank of an arc set (an ArcSet or its bitmask): n
    minus the component count of (V, b), counted as the merges of a
    union-find over the arcs whose bits are set.
    """
    mask = b if isinstance(b, int) else arc_mask(b)
    parent = list(range(d.n))
    arcs = d.arcs
    merged = 0
    while mask:
        low = mask & -mask
        mask ^= low
        t, h = arcs[low.bit_length() - 1]
        while parent[t] != t:
            parent[t] = t = parent[parent[t]]
        while parent[h] != h:
            parent[h] = h = parent[parent[h]]
        if t != h:
            parent[h] = t
            merged += 1
    return merged


def strongly_connected_components(d: Digraph) -> list[list[int]]:
    """SCCs as vertex lists, ordered so that every arc goes from an earlier
    (or the same) component to a later one.

    Iterative Tarjan; components come out in reverse topological order and
    are flipped before returning.
    """
    adj = [[] for _ in range(d.n)]
    for t, h in d.arcs:
        adj[t].append(h)

    index = [-1] * d.n
    lowlink = [0] * d.n
    on_stack = [False] * d.n
    stack = []
    sccs = []
    counter = 0

    for root in range(d.n):
        if index[root] != -1:
            continue
        index[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        work = [(root, iter(adj[root]))]  # each vertex with its unscanned arcs
        while work:
            v, rest = work[-1]
            for w in rest:
                if index[w] == -1:
                    index[w] = lowlink[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(adj[w])))
                    break
                if on_stack[w] and index[w] < lowlink[v]:
                    lowlink[v] = index[w]
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    lowlink[u] = min(lowlink[u], lowlink[v])
                if lowlink[v] == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        comp.append(w)
                        if w == v:
                            break
                    sccs.append(comp)

    sccs.reverse()
    for comp in sccs:
        comp.sort()
    return sccs


def condensation_labels(d: Digraph) -> tuple[list[int], int]:
    """Map vertex -> SCC index in topological order, plus the SCC count."""
    sccs = strongly_connected_components(d)
    label = [0] * d.n
    for i, comp in enumerate(sccs):
        for v in comp:
            label[v] = i
    return label, len(sccs)


def is_totally_cyclic(d: Digraph) -> bool:
    """True iff every weak component is strongly connected.

    Isolated vertices and loops are trivially strong; the arcless digraph
    is totally cyclic.
    """
    return num_weak_components(d) == len(strongly_connected_components(d))


def contract(d: Digraph, s: ArcSet) -> Digraph:
    """Contract the arcs of s: merge vertices along weak components of (V, s).

    Surviving arcs keep their relative order; arcs outside s that become
    loops are kept as loops.  Arcs of s that are loops simply vanish.
    """
    s = d.check_arc_subset(s)
    labels = weak_components(d, s)
    new_n = (max(labels) + 1) if labels else 0
    new_arcs = [(labels[t], labels[h]) for j, (t, h) in enumerate(d.arcs) if j not in s]
    return Digraph(new_n, tuple(new_arcs))


def topological_order(d: Digraph) -> list[int] | None:
    """A vertex order with all arcs pointing forward, or None if d has a
    directed cycle (loops count as cycles).  Ties broken by vertex index,
    so the order is deterministic and unique for complete acyclic digraphs.
    """
    import heapq

    indeg = [0] * d.n
    adj = [[] for _ in range(d.n)]
    for t, h in d.arcs:
        indeg[h] += 1
        adj[t].append(h)
    ready = [v for v in range(d.n) if indeg[v] == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        v = heapq.heappop(ready)
        order.append(v)
        for w in adj[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(ready, w)
    return order if len(order) == d.n else None


def is_acyclic(d: Digraph) -> bool:
    return topological_order(d) is not None


# --- text format -----------------------------------------------------------
#
# First line "n m", then m lines "tail head"; '#' starts a comment line.


def read_digraph(text: str) -> Digraph:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("empty digraph file")
    try:
        n, m = (int(x) for x in lines[0].split())
    except Exception as exc:
        raise ValueError(f"bad header line {lines[0]!r}") from exc
    if len(lines) - 1 != m:
        raise ValueError(f"expected {m} arc lines, found {len(lines) - 1}")
    arcs = []
    for ln in lines[1:]:
        try:
            t, h = (int(x) for x in ln.split())
        except Exception as exc:
            raise ValueError(f"bad arc line {ln!r}") from exc
        arcs.append((t, h))
    return Digraph(n, tuple(arcs))


def write_digraph(d: Digraph) -> str:
    lines = [f"{d.n} {d.m}"]
    lines.extend(f"{t} {h}" for t, h in d.arcs)
    return "\n".join(lines) + "\n"
