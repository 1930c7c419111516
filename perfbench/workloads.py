"""Seeded inputs, jobs and independent output checks for the four workloads.

A workload is a list of families.  Each family puts a fixed number of jobs
into every round, so every round has the same mix of job kinds and sizes
and the seed only chooses which instances fill it.  The cost of a job is
bounded by a property that is cheap to compute before the job runs
(lattice shape, component count, dicycle count, nullity, q), never by
running the engine.

Round r is drawn from random.Random(f"{workload}:{seed}:{r}"), so its inputs
do not depend on how many rounds ran before it.  Families that draw from
the digraph catalog walk a seed-shuffled copy of it and relabel every
draw, so a run that cycles through the catalog still gives the engine new
inputs and its module-level caches stay as cold as on the first pass.

Jobs call the engine through module attributes (``nl.nl_flow_polynomial``,
not a name imported into this module), so the traced run sees them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from nlflow import catalog, cuts, matroids, nl, oracles, tournaments
from nlflow.digraphs import Digraph, incidence_matrix, rank, write_digraph
from nlflow.groups import AbelianGroup, cyclic
from nlflow.linalg import rref
from nlflow.matroids import TUMatrix, write_matrix

# Largest box a check may enumerate, which keeps the check phase of a run to
# a few seconds: |G|^m candidates for the flow oracle, and k^n colorings for
# the coloring oracle, which builds a digraph per coloring in Python.
FLOW_CHECK_LIMIT = 100_000
COLORING_CHECK_LIMIT = 6_000

GROUPS = (cyclic(2), cyclic(3), cyclic(4), AbelianGroup((2, 2)))


@dataclass(frozen=True)
class Job:
    family: "Family"
    graph: object  # Digraph or TUMatrix: the job's whole input
    info: object = None  # what the check needs besides the output

    def run(self):
        return self.family.op.run(self.graph, self.info)

    def check(self, output) -> bool:
        return self.family.check(self.graph, self.info, output)

    def text(self) -> str:
        """The input in the engine's own file format."""
        if isinstance(self.graph, TUMatrix):
            return write_matrix(self.graph)
        return write_digraph(self.graph)

    def replay(self, path: str) -> list[str]:
        """nlflow command lines that recompute this job from its input file."""
        return [f"nlflow {c}" for c in self.family.op.replay(path, self.info)]


@dataclass(frozen=True)
class Op:
    """One kind of user-level computation."""

    run: Callable  # (graph, info) -> output
    replay: Callable  # (path, info) -> list of CLI argument strings


@dataclass(frozen=True)
class Family:
    name: str
    why: str
    per_round: int
    op: Op
    make: Callable  # (rng, pools, index) -> (graph, info)
    check: Callable  # (graph, info, output) -> bool


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    families: tuple[Family, ...]
    setup: Callable  # seed -> pools

    @property
    def round_size(self) -> int:
        return sum(f.per_round for f in self.families)

    def round(self, pools, seed: int, r: int) -> list[Job]:
        rng = random.Random(f"{self.name}:{seed}:{r}")
        jobs = []
        for fam in self.families:
            for i in range(fam.per_round):
                graph, info = fam.make(rng, pools, r * fam.per_round + i)
                jobs.append(Job(fam, graph, info))
        rng.shuffle(jobs)
        return jobs


# --- digraph builders ------------------------------------------------------


def relabel(d: Digraph, rng: random.Random) -> Digraph:
    """An isomorphic copy under a random vertex permutation and arc order."""
    perm = list(range(d.n))
    rng.shuffle(perm)
    arcs = [(perm[t], perm[h]) for t, h in d.arcs]
    rng.shuffle(arcs)
    return Digraph(d.n, tuple(arcs))


def grid(a: int, b: int) -> Digraph:
    """The a x b grid with every arc pointing right or down (acyclic)."""
    arcs = []
    for i in range(a):
        for j in range(b):
            if j + 1 < b:
                arcs.append((i * b + j, i * b + j + 1))
            if i + 1 < a:
                arcs.append((i * b + j, (i + 1) * b + j))
    return Digraph(a * b, tuple(arcs))


def complete_symmetric(n: int) -> Digraph:
    """K*n: both arcs between every pair of distinct vertices."""
    return Digraph(n, tuple((i, j) for i in range(n) for j in range(n) if i != j))


def count_dicycles(d: Digraph) -> int:
    """Elementary directed cycles of a simple digraph, each rooted at its
    smallest vertex."""
    out = [[h for t, h in d.arcs if t == v] for v in range(d.n)]

    def grow(root, v, seen):
        total = 0
        for w in out[v]:
            if w == root:
                total += 1
            elif w > root and w not in seen:
                total += grow(root, w, seen | {w})
        return total

    return sum(grow(v, v, {v}) for v in range(d.n))


def near_transitive_tournament(n: int, cycles: range, rng: random.Random) -> Digraph:
    """A tournament oriented along a random order with each arc flipped
    with probability 1/4, redrawn until its dicycle count is in `cycles`.
    """
    while True:
        order = list(range(n))
        rng.shuffle(order)
        arcs = []
        for i in range(n):
            for j in range(i + 1, n):
                a, b = order[i], order[j]
                arcs.append((b, a) if rng.random() < 0.25 else (a, b))
        d = Digraph(n, tuple(arcs))
        if count_dicycles(d) in cycles:
            return d


def doubled_path(n: int, rng: random.Random, offset: int = 0) -> list[tuple[int, int]]:
    """Arcs of the path offset -> ... -> offset+n-1, each doubled with
    probability 1/4.  Its order ideals are the prefixes, so it has n - 1
    dicuts; parallel arcs leave the component order, and so the cost of
    enumerate_dicuts, unchanged."""
    arcs = []
    for i in range(offset, offset + n - 1):
        arcs += [(i, i + 1)] * (2 if rng.random() < 0.25 else 1)
    return arcs


def witness_sizes(rng: random.Random, max_total: int = 7) -> tuple[int, ...]:
    """Strong-component sizes (no 2: no strong 2-tournament) summing to at
    most max_total, at least two components."""
    while True:
        sizes = []
        total = 0
        while True:
            k = rng.choice((1, 1, 3, 4, 5))
            if total + k > max_total:
                break
            sizes.append(k)
            total += k
        if len(sizes) >= 2:
            return tuple(sizes)


def cographic_matrix(d: Digraph) -> TUMatrix:
    """[-E^T | I] from the rref [I | E] of the incidence matrix, columns in
    arc order: its kernel is the tension space of d."""
    rows, pivots = rref(incidence_matrix(d))
    free = [c for c in range(d.m) if c not in pivots]
    out = []
    for fc in free:
        row = [0] * d.m
        for r, pc in enumerate(pivots):
            row[pc] = -int(rows[r][fc])
        row[fc] = 1
        out.append(tuple(row))
    return TUMatrix(tuple(out))


R10_BLOCK = (
    (-1, 1, 0, 0, 1),
    (1, -1, 1, 0, 0),
    (0, 1, -1, 1, 0),
    (0, 0, 1, -1, 1),
    (1, 0, 0, 1, -1),
)


def r10(rng: random.Random) -> TUMatrix:
    """A TU representation [I5 | A] of R10 (neither graphic nor cographic)
    under a random column order, row order and row signs; these keep the
    oriented matroid up to relabelling."""
    rows = [[1 if i == j else 0 for j in range(5)] + list(R10_BLOCK[i]) for i in range(5)]
    cols = list(range(10))
    rng.shuffle(cols)
    rng.shuffle(rows)
    out = []
    for row in rows:
        sign = rng.choice((1, -1))
        out.append(tuple(sign * row[c] for c in cols))
    return TUMatrix(tuple(out))


def nullity(d: Digraph) -> int:
    return d.m - rank(d, d.all_arcs)


# --- independent helpers for the checks ------------------------------------


def weak_component_count(d: Digraph) -> int:
    parent = list(range(d.n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for t, h in d.arcs:
        parent[find(t)] = find(h)
    return len({find(v) for v in range(d.n)})


def tournament_component_sizes(d: Digraph) -> tuple[int, ...]:
    """Strong-component sizes of a tournament in topological order, from
    its reachability closure."""
    reach = [[i == j for j in range(d.n)] for i in range(d.n)]
    for t, h in d.arcs:
        reach[t][h] = True
    for k in range(d.n):
        for i in range(d.n):
            if reach[i][k]:
                for j in range(d.n):
                    if reach[k][j]:
                        reach[i][j] = True
    comps = {frozenset(j for j in range(d.n) if reach[i][j] and reach[j][i]) for i in range(d.n)}
    # A component that reaches more vertices comes earlier.
    ordered = sorted(comps, key=lambda c: -sum(reach[next(iter(c))]))
    return tuple(len(c) for c in ordered)


def fraction_rank(rows) -> int:
    rows = [[Fraction(x) for x in r] for r in rows]
    rk = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rk, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[rk], rows[piv] = rows[piv], rows[rk]
        for i in range(len(rows)):
            if i != rk and rows[i][c] != 0:
                f = rows[i][c] / rows[rk][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rk])]
        rk += 1
    return rk


def valid_farkas_certificate(m: TUMatrix, cert) -> bool:
    """The validation of criterion 9: a strictly positive kernel vector, or
    a nonnegative nonzero vector of the row space."""
    kind, vec = cert
    rows = [list(r) for r in m.rows]
    if kind == "positive":
        return all(x >= 1 for x in vec) and all(
            sum(Fraction(a) * x for a, x in zip(row, vec)) == 0 for row in rows
        )
    return (
        kind == "obstruction"
        and all(x >= 0 for x in vec)
        and any(x > 0 for x in vec)
        and fraction_rank(rows) == fraction_rank(rows + [list(vec)])
    )


# --- checks ------------------------------------------------------------------


def phi_matches_group_counts(d, info, phi) -> bool:
    """phi(k) is the number of NL-Z_k-flows."""
    ks = [k for k in (1, 2, 3) if k**d.m <= FLOW_CHECK_LIMIT]
    return all(phi(k) == oracles.count_nl_group_flows(d, cyclic(k)) for k in ks)


def phi_matches_closed_form(d, sizes, phi) -> bool:
    """phi of a complete digraph is fixed by its strong-component sizes."""
    if sizes is None:
        sizes = tournament_component_sizes(d)
    return phi == tournaments.complete_digraph_nl_poly(sizes)


def psi_matches_colorings(d, info, psi) -> bool:
    """k^c psi(k) is the number of acyclic k-colorings."""
    c = weak_component_count(d)
    ks = [k for k in (1, 2, 3, 4) if k**d.n <= COLORING_CHECK_LIMIT]
    return all(k**c * psi(k) == oracles.count_acyclic_colorings(d, k) for k in ks)


def dicut_count_matches(d, expected, cuts_found) -> bool:
    return len(cuts_found) == expected and len(set(cuts_found)) == expected


def sweep_relations_hold(d, info, out) -> bool:
    phi, z, klein, psi, colorings = out
    ok = all(phi(k) == z[k - 1] for k in range(1, 5)) and z[3] == klein
    if psi is not None:
        c = weak_component_count(d)
        ok = ok and all(k**c * psi(k) == colorings[k - 1] for k in range(1, 5))
    return ok


def held_out_witness_holds(d, ks, out) -> bool:
    poly, recount = out
    return poly(ks[-1]) == recount


def matroid_internal(m, info, out) -> bool:
    """Z4 and Z2xZ2 counts agree, and the certificate is valid."""
    counts, ints, cert = out
    return counts["z4"] == counts["z2xz2"] and valid_farkas_certificate(m, cert)


def graphic_matches_digraph(m, d, out) -> bool:
    counts, ints, cert = out
    return (
        matroid_internal(m, d, out)
        and all(counts[g.spec()] == oracles.count_nl_group_flows(d, g) for g in GROUPS)
        and all(ints[k] == oracles.count_nl_integer_kflows(d, k) for k in ints)
    )


def cographic_matches_colorings(m, d, out) -> bool:
    """NL-Z_k-flows of the cographic matroid are the Z_k-tensions with an
    acyclic zero set, so k^c times their number counts acyclic colorings."""
    counts, ints, cert = out
    c = weak_component_count(d)
    return matroid_internal(m, d, out) and all(
        k**c * counts[f"z{k}"] == oracles.count_acyclic_colorings(d, k) for k in (2, 3, 4)
    )


# --- operations ------------------------------------------------------------


def run_sweep(d, info):
    """The per-digraph work of `nlflow verify`."""
    phi = nl.nl_flow_polynomial(d)
    z = [oracles.count_nl_group_flows(d, cyclic(k)) for k in range(1, 5)]
    klein = oracles.count_nl_group_flows(d, AbelianGroup((2, 2)))
    psi = colorings = None
    if all(t != h for t, h in d.arcs):
        psi = nl.nl_coflow_polynomial(d)
        colorings = [oracles.count_acyclic_colorings(d, k) for k in range(1, 5)]
    return phi, z, klein, psi, colorings


def run_intfit(d, ks):
    """Criterion 6 on one digraph: fit, then recount the held-out k."""
    poly = oracles.fit_integer_flow_polynomial(d, ks)
    return poly, oracles.count_nl_integer_kflows(d, ks[-1])


def run_matroid(m, info):
    counts = {g.spec(): matroids.count_nl_group_flows_matroid(m, g) for g in GROUPS}
    ints = {k: matroids.count_nl_integer_kflows_matroid(m, k) for k in (2, 3)}
    return counts, ints, matroids.farkas_certificate(m)


PHI = Op(lambda d, info: nl.nl_flow_polynomial(d), lambda p, info: [f"poly {p}"])
PSI = Op(lambda d, info: nl.nl_coflow_polynomial(d), lambda p, info: [f"copoly {p}"])
DICUTS = Op(lambda d, info: cuts.enumerate_dicuts(d), lambda p, info: [f"dicuts {p}"])
SWEEP = Op(
    run_sweep,
    lambda p, info: [f"poly {p}"]
    + [f"count {p} --group {g}" for g in ("z1", "z2", "z3", "z4", "z2xz2")]
    + [f"copoly {p}"]
    + [f"colorings {p} -k {k}" for k in range(1, 5)],
)
INTFIT = Op(run_intfit, lambda p, ks: [f"count-int {p} -k {k}" for k in ks])
MATROID = Op(
    run_matroid,
    lambda p, info: [f"matroid count --matrix {p} --group {g.spec()}" for g in GROUPS]
    + [f"matroid count --matrix {p} -k {k}" for k in (2, 3)]
    + [f"matroid tc --matrix {p}"],
)


# --- the workloads ---------------------------------------------------------

GRID_SHAPES = ((2, 3), (2, 4), (3, 3), (2, 5))
# Tournaments with 8 or 9 dicycles have dicycle lattices of 104 or 106
# elements; a few more dicycles can reach ~2000.
TOURNAMENT_CYCLES = range(8, 10)
SMALL_GRIDS = ((1, 2), (2, 2), (1, 5), (2, 3), (2, 4), (3, 3), (2, 5), (1, 10))


def _pick(pool, index, rng):
    return relabel(pool[index % len(pool)], rng)


def _shuffled(seq, seed, tag):
    out = list(seq)
    random.Random(f"{tag}:{seed}").shuffle(out)
    return out


def _no_pools(seed):
    return {}


def _catalog_pools(seed):
    return {"catalog": _shuffled(catalog.digraph_catalog(4, 6), seed, "catalog")}


def _intfit_pools(seed):
    graphs = catalog.digraph_catalog(4, 6)
    return {
        nu: _shuffled([d for d in graphs if nullity(d) == nu], seed, f"nullity{nu}")
        for nu in (4, 5)
    }


def _matroid_pools(seed):
    # Six-arc digraphs of nullity 3 and 4 are the two largest catalog
    # strata (1504 and 1201 digraphs) and give jobs of similar cost.
    graphs = [d for d in catalog.digraph_catalog(4, 6) if d.m == 6]
    pools = {}
    for nu in (3, 4):
        graphic = [d for d in graphs if nullity(d) == nu]
        loopless = [d for d in graphic if all(t != h for t, h in d.arcs)]
        pools["graphic", nu] = _shuffled(graphic, seed, f"graphic{nu}")
        pools["cographic", nu] = _shuffled(loopless, seed, f"cographic{nu}")
    return pools


def _grid_phi(rng, pools, i):
    return relabel(grid(*GRID_SHAPES[i % len(GRID_SHAPES)]), rng), None


def _grid_psi(rng, pools, i):
    return relabel(grid(*rng.choice(SMALL_GRIDS)), rng), None


def _kstar(rng, pools, i):
    return relabel(complete_symmetric(3 + i % 2), rng), None


def _tournament(n):
    def make(rng, pools, i):
        return near_transitive_tournament(n, TOURNAMENT_CYCLES, rng), None

    return make


def _witness(rng, pools, i):
    sizes = witness_sizes(rng)
    return relabel(tournaments.complete_digraph_witness(sizes), rng), sizes


def _path(rng, pools, i):
    n = 18
    return relabel(Digraph(n, tuple(doubled_path(n, rng))), rng), n - 1


def _two_paths(rng, pools, i):
    a = rng.randint(4, 12)
    arcs = doubled_path(a, rng) + doubled_path(16 - a, rng, offset=a)
    return relabel(Digraph(16, tuple(arcs)), rng), a * (16 - a) - 1


def _sweep(rng, pools, i):
    return _pick(pools["catalog"], i, rng), None


def _intfit(nu):
    def make(rng, pools, i):
        return _pick(pools[nu], i, rng), tuple(range(2, nu + 5))

    return make


def _r10(rng, pools, i):
    return r10(rng), None


def _graphic(nu):
    def make(rng, pools, i):
        d = _pick(pools["graphic", nu], i, rng)
        return TUMatrix.from_digraph(d), d

    return make


def _cographic(nu):
    def make(rng, pools, i):
        d = _pick(pools["cographic", nu], i, rng)
        return cographic_matrix(d), d

    return make


# A lattice round has 8 light jobs, the 10 tournament psi jobs and 7 heavy
# ones, so the median job lies near the middle of the tournament psi
# cluster.  Above the two 18-vertex path dicut listings are only K*4 psi
# and grid 2x5 phi, so p90 falls among the path listings.
LATTICE = Workload(
    "lattice",
    "lattice-bound polynomials and dicut listings: cuts, posets and nl do the work, oracles and linalg never run",
    (
        Family(
            "grid-phi",
            "acyclic grids, one of each shape per round: dicut-union lattices of 52 to 1424 elements, the O(L^2) Moebius step",
            4, PHI,
            _grid_phi,
            phi_matches_group_counts,
        ),
        Family(
            "grid-psi",
            "psi of an acyclic grid: an empty dicycle family, the fixed cost of the coflow path",
            1, PSI,
            _grid_psi,
            psi_matches_colorings,
        ),
        Family(
            "kstar-phi",
            "K*3 and K*4 are strong, so phi has no dicuts: the fixed cost of the flow path",
            2, PHI,
            _kstar,
            phi_matches_group_counts,
        ),
        Family(
            "kstar-psi",
            "psi of K*3 (22 elements) and K*4 (1688 elements): the largest dicycle lattice",
            2, PSI,
            _kstar,
            psi_matches_colorings,
        ),
        Family(
            "tournament-phi",
            "random tournaments on 7 vertices with 8 or 9 dicycles: phi through the condensation's dicuts",
            2, PHI,
            _tournament(7),
            phi_matches_closed_form,
        ),
        Family(
            "tournament-psi",
            "random tournaments on 6 vertices with 8 or 9 dicycles: dicycle lattices of 104 or 106 elements; they hold the median job",
            10, PSI,
            _tournament(6),
            psi_matches_colorings,
        ),
        Family(
            "witness-phi",
            "complete_digraph_witness of random component sizes (total <= 7): the condensation closed form",
            1, PHI,
            _witness,
            phi_matches_closed_form,
        ),
        Family(
            "path-dicuts",
            "directed paths of 18 vertices with random doubled arcs: enumerate_dicuts scans all 2^k component subsets for k - 1 dicuts; two per round, so p90 falls among them",
            2, DICUTS,
            _path,
            dicut_count_matches,
        ),
        Family(
            "two-path-dicuts",
            "two disjoint such paths with 16 vertices in all: a*b - 1 dicuts, more output for the same scan",
            1, DICUTS,
            _two_paths,
            dicut_count_matches,
        ),
    ),
    _no_pools,
)

SWEEP_WORKLOAD = Workload(
    "sweep",
    "the verify sweep: tiny lattices, the G^m group oracle and the coloring oracle on every catalog digraph",
    (
        Family(
            "catalog",
            "every catalog digraph (n <= 4, m <= 6) in seeded order: phi, Z_1..Z_4 and Z2xZ2 counts, psi and colorings k <= 4",
            20, SWEEP,
            _sweep,
            sweep_relations_hold,
        ),
    ),
    _catalog_pools,
)

INTFIT_WORKLOAD = Workload(
    "intfit",
    "criterion 6: integer-flow fits whose (2k-1)^nullity box enumeration dominates",
    (
        Family(
            "nullity4",
            "catalog digraphs of nullity 4: fits over k = 2..8 with a small box, the common case",
            5, INTFIT, _intfit(4), held_out_witness_holds,
        ),
        Family(
            "nullity5",
            "catalog digraphs of nullity 5: fits over k = 2..9, up to 17^5 candidates, the bulk of criterion 6",
            1, INTFIT, _intfit(5), held_out_witness_holds,
        ),
    ),
    _intfit_pools,
)

MATROID_WORKLOAD = Workload(
    "matroid",
    "TU-matrix counts and Farkas certificates: the LP support predicate and the (2k-1)^q box",
    (
        Family(
            "r10",
            "R10 (q = 10), neither graphic nor cographic: the box-bound end, 5^10 candidates at integer k = 3",
            1, MATROID,
            _r10,
            matroid_internal,
        ),
        Family(
            "graphic-nullity3",
            "incidence matrices of six-arc catalog digraphs of nullity 3 (q = 6): LP-bound, checked against the digraph oracles",
            36, MATROID, _graphic(3), graphic_matches_digraph,
        ),
        Family(
            "graphic-nullity4",
            "incidence matrices of six-arc catalog digraphs of nullity 4: more flow supports, so more LPs per job",
            24, MATROID, _graphic(4), graphic_matches_digraph,
        ),
        Family(
            "cographic-nullity3",
            "[-E^T | I] of loopless six-arc digraphs of nullity 3: the dual side, checked against acyclic colorings",
            36, MATROID, _cographic(3), cographic_matches_colorings,
        ),
        Family(
            "cographic-nullity4",
            "[-E^T | I] of loopless six-arc digraphs of nullity 4: four rows, a smaller tension space",
            24, MATROID, _cographic(4), cographic_matches_colorings,
        ),
    ),
    _matroid_pools,
)

WORKLOADS = {w.name: w for w in (LATTICE, SWEEP_WORKLOAD, INTFIT_WORKLOAD, MATROID_WORKLOAD)}
