"""Exhaustive digraph catalogs and the formula-vs-oracle verification
sweeps shared by the CLI `verify` subcommand and the acceptance tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, combinations_with_replacement, islice, permutations
from math import comb, factorial

import numpy as np

from .digraphs import Digraph
from .errors import BudgetExceededError
from .groups import AbelianGroup, cyclic
from .nl import nl_coflow_polynomial, nl_flow_polynomial
from .oracles import (
    DEFAULT_BUDGET,
    count_acyclic_colorings,
    count_nl_group_flows,
)


# Candidate rows per block of the canonical-form pass; at n = 4, m = 6 a
# block and its temporaries take under 200 KB.
_BLOCK = 4096


def digraph_catalog(max_n: int, max_m: int, budget: int = DEFAULT_BUDGET) -> tuple[Digraph, ...]:
    """One representative per isomorphism class of digraphs with
    1 <= n <= max_n vertices and at most max_m arcs; parallel and
    antiparallel arcs and loops included.

    A representative is the lexicographically smallest sorted arc multiset
    over all vertex relabelings.  Arc (t, h) is coded t*n + h, which keeps
    that order, and the candidates, the sorted code rows in
    combinations_with_replacement order, are tested a block at a time:
    each non-identity relabeling maps the block through a lookup table,
    sorts every row, and drops the rows whose image is smaller than
    themselves (McKay 1998, isomorph rejection).  The survivors are emitted
    in candidate order, so no global dedup store is needed.

    The budget is charged, before any enumeration, the candidate tests
    sum over n <= max_n of n! * C(n^2 + max_m, max_m).
    """
    if max_n < 1 or max_m < 0:
        raise ValueError(f"catalog needs max_n >= 1 and max_m >= 0, got {max_n} and {max_m}")
    tests = sum(factorial(n) * comb(n * n + max_m, max_m) for n in range(1, max_n + 1))
    if tests > budget:
        raise BudgetExceededError(
            f"catalog of {tests} candidate tests (n <= {max_n}, m <= {max_m}) "
            f"exceeds budget {budget}"
        )
    return _catalog(max_n, max_m)


@lru_cache(maxsize=16)
def _catalog(max_n: int, max_m: int) -> tuple[Digraph, ...]:
    out = []
    for n in range(1, max_n + 1):
        arcs = [divmod(c, n) for c in range(n * n)]
        for m in range(max_m + 1):
            out.extend(Digraph(n, [arcs[c] for c in row]) for row in _canonical_rows(n, m))
    return tuple(out)


def _canonical_rows(n: int, m: int):
    """The sorted arc-code rows of n vertices and m arcs that are their own
    canonical form, in combinations_with_replacement order.
    """
    if m == 0:
        # The empty multiset: its own canonical form, with no column to
        # compare at.
        yield []
        return
    size = n * n
    dtype = np.min_scalar_type(size - 1)
    tables = [
        np.array([p[t] * n + p[h] for t in range(n) for h in range(n)], dtype)
        for p in list(permutations(range(n)))[1:]
    ]
    # Read through chain, no candidate is held, so
    # combinations_with_replacement reuses one result tuple for all rows.
    candidates = combinations_with_replacement(range(size), m)
    while (flat := np.fromiter(chain.from_iterable(islice(candidates, _BLOCK)), dtype)).size:
        rows = flat.reshape(-1, m)
        for table in tables:
            image = np.sort(table[rows], axis=1)
            # Compare at the first position where the image and the row
            # differ; a row equal to its image compares equal at column 0
            # and is kept.
            first = (image != rows).argmax(axis=1)
            at = np.arange(len(rows))
            rows = rows[image[at, first] >= rows[at, first]]
        yield from rows.tolist()


def loopless(graphs):
    return [d for d in graphs if all(t != h for t, h in d.arcs)]


def _sweep_catalog(max_n: int, max_k: int, max_m: int, budget: int) -> tuple[Digraph, ...]:
    """The catalog a sweep walks; a sweep that would check nothing is refused."""
    if max_k < 1:
        raise ValueError(f"sweep needs max_k >= 1, got {max_k}")
    return digraph_catalog(max_n, max_m, budget)


@dataclass
class Mismatch:
    check: str
    digraph: Digraph
    k: int
    expected: int
    got: int

    def __str__(self):
        return (
            f"{self.check}: digraph n={self.digraph.n} arcs={list(self.digraph.arcs)} "
            f"k={self.k}: expected {self.expected}, got {self.got}"
        )


@dataclass
class VerificationReport:
    checked: int = 0
    mismatches: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches


def verify_flow_counts(
    max_n: int,
    max_k: int,
    max_m: int = 6,
    budget: int = DEFAULT_BUDGET,
    progress=None,
) -> VerificationReport:
    """Theorem check: the NL-flow polynomial at k equals the brute-force
    NL-Z_k-flow count for every catalog digraph; for k >= 4 the count must
    also agree across non-isomorphic groups of order k.
    """
    report = VerificationReport()
    graphs = _sweep_catalog(max_n, max_k, max_m, budget)
    for i, d in enumerate(graphs):
        phi = nl_flow_polynomial(d)
        for k in range(1, max_k + 1):
            expected = count_nl_group_flows(d, cyclic(k), budget)
            got = phi(k)
            report.checked += 1
            if got != expected:
                report.mismatches.append(Mismatch("flow-polynomial", d, k, expected, got))
        if max_k >= 4:
            z4 = count_nl_group_flows(d, cyclic(4), budget)
            klein = count_nl_group_flows(d, AbelianGroup((2, 2)), budget)
            report.checked += 1
            if z4 != klein:
                report.mismatches.append(Mismatch("group-independence", d, 4, z4, klein))
        if progress is not None:
            progress(i + 1, len(graphs))
    return report


def verify_coloring_identity(
    max_n: int,
    max_k: int,
    max_m: int = 6,
    budget: int = DEFAULT_BUDGET,
    progress=None,
) -> VerificationReport:
    """Acyclic-coloring identity: for loopless digraphs with c weak
    components, k^c * psi(k) equals the brute-force coloring count.
    """
    from .digraphs import num_weak_components

    report = VerificationReport()
    graphs = loopless(_sweep_catalog(max_n, max_k, max_m, budget))
    for i, d in enumerate(graphs):
        psi = nl_coflow_polynomial(d)
        c = num_weak_components(d)
        for k in range(1, max_k + 1):
            expected = count_acyclic_colorings(d, k, budget)
            got = k**c * psi(k)
            report.checked += 1
            if got != expected:
                report.mismatches.append(Mismatch("coflow-coloring", d, k, expected, got))
        if progress is not None:
            progress(i + 1, len(graphs))
    return report
