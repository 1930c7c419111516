"""NL-flow and NL-coflow polynomials: worked small cases, the oracle
identities on the small catalog (the full sweeps live in the acceptance
suite), and the crosscut engine against the explicit-lattice reference.
"""

import random
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st
from reference_lattice import (
    reference_coflow_polynomial,
    reference_flow_polynomial,
    union_closure,
)

from nlflow import (
    Digraph,
    FinitePoset,
    IntPolynomial,
    cyclic,
    count_acyclic_colorings,
    count_nl_group_flows,
    is_totally_cyclic,
    nl_coflow_polynomial,
    nl_flow_polynomial,
)
from nlflow import nl
from nlflow.cuts import enumerate_dicuts, enumerate_directed_cycles
from nlflow.digraphs import arc_mask, num_weak_components, rank
from nlflow.errors import LatticeSizeError


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


def directed_cycle(n: int) -> Digraph:
    return Digraph(n, tuple((i, (i + 1) % n) for i in range(n)))


def complete_symmetric(n: int) -> Digraph:
    """K*n: both arcs between every pair of distinct vertices."""
    return Digraph(n, tuple((i, j) for i in range(n) for j in range(n) if i != j))


class TestFlowPolynomial:
    def test_k3_acyclic(self, k3_acyclic):
        assert nl_flow_polynomial(k3_acyclic) == IntPolynomial({1: 1, 0: -1})

    def test_cycle3(self, cycle3):
        assert nl_flow_polynomial(cycle3) == IntPolynomial({1: 1})

    def test_single_arc(self, single_arc):
        assert nl_flow_polynomial(single_arc) == IntPolynomial.zero()

    def test_complete_acyclic_n6(self):
        from nlflow.tournaments import complete_acyclic_digraph

        expected = IntPolynomial({10: 1, 6: -2, 3: 1, 2: -1, 1: 2, 0: -1})
        assert nl_flow_polynomial(complete_acyclic_digraph(6)) == expected

    def test_empty_digraph(self):
        assert nl_flow_polynomial(Digraph(0, ())) == IntPolynomial.one()

    def test_evaluation_at_one_is_total_cyclicity(self, catalog_small):
        # k = 1 (trivial group): the only assignment is the zero flow,
        # whose support contraction is D itself.
        for d in catalog_small:
            assert nl_flow_polynomial(d)(1) == (1 if is_totally_cyclic(d) else 0)

    def test_matches_oracle_small(self, catalog_small):
        for d in catalog_small:
            phi = nl_flow_polynomial(d)
            for k in (1, 2, 3):
                assert phi(k) == count_nl_group_flows(d, cyclic(k)), (d, k)


class TestCoflowPolynomial:
    def test_cycle3(self, cycle3):
        assert nl_coflow_polynomial(cycle3) == IntPolynomial({2: 1, 0: -1})

    def test_k3_acyclic(self, k3_acyclic):
        assert nl_coflow_polynomial(k3_acyclic) == IntPolynomial({2: 1})

    def test_single_vertex(self):
        assert nl_coflow_polynomial(Digraph(1, ())) == IntPolynomial.one()

    def test_cycle3_coloring_cross_check(self, cycle3):
        psi = nl_coflow_polynomial(cycle3)
        assert 2 * psi(2) == count_acyclic_colorings(cycle3, 2) == 6

    def test_parallel_digon_coloring(self):
        # Two parallel arcs u->v plus v->u: only bichromatic colorings
        # avoid the digon cycle.
        d = Digraph(2, ((0, 1), (0, 1), (1, 0)))
        psi = nl_coflow_polynomial(d)
        for k in (1, 2, 3, 4):
            assert k * psi(k) == count_acyclic_colorings(d, k) == k * (k - 1)

    def test_coloring_identity_small(self, catalog_small):
        for d in catalog_small:
            if any(t == h for t, h in d.arcs):
                continue
            psi = nl_coflow_polynomial(d)
            c = num_weak_components(d)
            for k in (1, 2, 3):
                assert k**c * psi(k) == count_acyclic_colorings(d, k), (d, k)


class TestCrosscutEngine:
    def test_catalog_matches_reference(self, catalog_full):
        for d in catalog_full:
            assert nl_flow_polynomial(d) == reference_flow_polynomial(d), d
            assert nl_coflow_polynomial(d) == reference_coflow_polynomial(d), d

    @pytest.mark.parametrize("shape", [(2, 5), (3, 4)])
    def test_grid_phi(self, shape):
        d = grid(*shape)
        assert nl_flow_polynomial(d) == reference_flow_polynomial(d)

    @pytest.mark.parametrize("n", [3, 4])
    def test_complete_symmetric_psi(self, n):
        d = complete_symmetric(n)
        psi = nl_coflow_polynomial(d)
        assert psi == reference_coflow_polynomial(d)
        # Every pair of vertices spans a digon, so the acyclic colorings
        # are the proper ones and psi(x) = (x-1)(x-2)...(x-n+1).
        for k in (1, 2, 3, 4):
            assert k * psi(k) == count_acyclic_colorings(d, k)

    @pytest.mark.parametrize(
        "d, polynomial, family",
        [
            (grid(2, 3), nl_flow_polynomial, enumerate_dicuts),
            (complete_symmetric(3), nl_coflow_polynomial, enumerate_directed_cycles),
            (Digraph(2, ((0, 1), (0, 1), (1, 0), (1, 1))), nl_coflow_polynomial,
             enumerate_directed_cycles),
            (Digraph(3, ((0, 1), (1, 2), (2, 0))), nl_coflow_polynomial,
             enumerate_directed_cycles),
        ],
    )
    def test_cap_bounds_the_union_count(self, d, polynomial, family):
        unions = len(union_closure(family(d), cap=10**6))
        assert polynomial(d, cap=unions) == polynomial(d)
        with pytest.raises(LatticeSizeError):
            polynomial(d, cap=unions - 1)

    def test_zero_moebius_values_stay_in_the_lattice(self):
        # {0,1,2,3} is the union of {01, 23} and of all three members, so
        # its Moebius value is 0; it is still a union and counts to the cap.
        family = [frozenset({0, 1}), frozenset({2, 3}), frozenset({0, 2})]
        unions = union_closure(family, cap=10**6)
        poset = FinitePoset(list(unions), lambda a, b: a <= b)
        mu = nl._signed_unions([arc_mask(a) for a in family], cap=len(unions))
        assert mu == {arc_mask(c): poset.mobius(frozenset(), c) for c in unions}
        assert mu[0b1111] == 0
        with pytest.raises(LatticeSizeError):
            nl._signed_unions([arc_mask(a) for a in family], cap=len(unions) - 1)

    @pytest.mark.parametrize(
        "d",
        [
            directed_cycle(70),
            # Strong, 70 arcs: three arcs of a 67-cycle doubled, 8 dicycles.
            Digraph(67, tuple(directed_cycle(67).arcs) + ((10, 11), (40, 41), (66, 0))),
            # A 66-cycle with a 4-arc path out of it: dicuts on arcs 66..69.
            Digraph(70, tuple(directed_cycle(66).arcs) + tuple((i, i + 1) for i in range(65, 69))),
        ],
    )
    def test_masks_wider_than_64_bits(self, d):
        assert d.m == 70
        assert nl_flow_polynomial(d) == reference_flow_polynomial(d)
        assert nl_coflow_polynomial(d) == reference_coflow_polynomial(d)


class TestBatchedRanks:
    """nl._batch_ranks, which ranks large lattices, against digraphs.rank,
    the union-find that ranks the small ones and stays as its oracle.
    """

    @staticmethod
    def nonzero_unions(d, flow):
        family = enumerate_dicuts(d) if flow else enumerate_directed_cycles(d)
        mu = nl._signed_unions([arc_mask(c) for c in family], cap=10**6)
        flip = (1 << d.m) - 1 if flow else 0
        return [u ^ flip for u, s in mu.items() if s]

    @staticmethod
    def spy(monkeypatch):
        """The mask counts of the _batch_ranks calls from here on."""
        calls = []
        batch = nl._batch_ranks
        monkeypatch.setattr(nl, "_batch_ranks", lambda d, masks: calls.append(len(masks)) or batch(d, masks))
        return calls

    def test_catalog_unions(self, catalog_full):
        for d in catalog_full:
            for flow in (True, False):
                masks = self.nonzero_unions(d, flow)
                assert nl._batch_ranks(d, masks) == [rank(d, b) for b in masks], (d, flow)

    @pytest.mark.parametrize("extra", [0, 1])
    def test_one_batch_and_one_more_mask(self, extra):
        # Loops, parallel and antiparallel arcs, and an isolated vertex.
        d = Digraph(6, ((0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 4), (0, 1), (1, 0), (3, 2)))
        rng = random.Random(extra)
        masks = [rng.getrandbits(d.m) for _ in range(nl._RANK_BATCH + extra)]
        assert nl._batch_ranks(d, masks) == [rank(d, b) for b in masks]

    @pytest.mark.parametrize(
        "d, polynomial, reference, batched",
        [
            (complete_symmetric(3), nl_coflow_polynomial, reference_coflow_polynomial, False),  # 22 unions
            (grid(2, 3), nl_flow_polynomial, reference_flow_polynomial, False),  # 52
            (grid(2, 4), nl_flow_polynomial, reference_flow_polynomial, True),  # 272
            (complete_symmetric(4), nl_coflow_polynomial, reference_coflow_polynomial, True),  # 1688
        ],
    )
    def test_default_cutoff(self, monkeypatch, d, polynomial, reference, batched):
        calls = self.spy(monkeypatch)
        assert polynomial(d) == reference(d)
        assert bool(calls) == batched

    @pytest.mark.parametrize("above, batched", [(0, True), (1, False)])
    def test_cutoff_boundary(self, monkeypatch, above, batched):
        # The cutoff counts the lattice's unions; all 52 of grid(2, 3) have
        # a nonzero Moebius value, so each is ranked.
        d = grid(2, 3)
        unions = len(self.nonzero_unions(d, flow=True))
        expected = nl_flow_polynomial(d)
        monkeypatch.setattr(nl, "_BATCH_MIN_UNIONS", unions + above)
        calls = self.spy(monkeypatch)
        assert nl_flow_polynomial(d) == expected
        assert calls == ([unions] if batched else [])

    @pytest.mark.parametrize("n, batched", [(63, True), (64, True), (65, False)])
    def test_vertex_width(self, monkeypatch, n, batched):
        # K*4 on the last four of n vertices: 1688 unions, the top vertex
        # bit in every row.
        d = Digraph(n, tuple((n - 4 + a, n - 4 + b) for a, b in complete_symmetric(4).arcs))
        calls = self.spy(monkeypatch)
        assert nl_coflow_polynomial(d) == IntPolynomial({3: 1, 2: -6, 1: 11, 0: -6})
        assert bool(calls) == batched

    @pytest.mark.parametrize("m, batched", [(63, True), (64, True), (65, False)])
    def test_arc_width(self, monkeypatch, m, batched):
        # m - 10 loops, then the 2x4 grid's 10 arcs in the top bits: 272
        # unions.  Each loop adds one to every exponent.
        loops = m - 10
        d = Digraph(8, ((0, 0),) * loops + grid(2, 4).arcs)
        expected = nl_flow_polynomial(grid(2, 4)) * IntPolynomial({loops: 1})
        calls = self.spy(monkeypatch)
        assert nl_flow_polynomial(d) == expected
        assert bool(calls) == batched


@st.composite
def digraphs(draw):
    """Small digraphs with loops and parallel arcs allowed."""
    n = draw(st.integers(1, 5))
    vertex = st.integers(0, n - 1)
    arcs = draw(st.lists(st.tuples(vertex, vertex), max_size=8))
    return Digraph(n, tuple(arcs))


@settings(max_examples=80, deadline=None)
@given(digraphs())
def test_random_digraphs_match_reference(d):
    phi, psi = nl_flow_polynomial(d), nl_coflow_polynomial(d)
    assert phi == reference_flow_polynomial(d)
    assert psi == reference_coflow_polynomial(d)
    # Every lattice ranked in one batch as well.
    with patch.object(nl, "_BATCH_MIN_UNIONS", 0):
        assert (nl_flow_polynomial(d), nl_coflow_polynomial(d)) == (phi, psi)


@settings(max_examples=80, deadline=None)
@given(digraphs(), st.data())
def test_random_batched_ranks(d, data):
    masks = data.draw(st.lists(st.integers(0, (1 << d.m) - 1), max_size=20))
    assert nl._batch_ranks(d, masks) == [rank(d, b) for b in masks]
