"""NL-flow and NL-coflow polynomials: worked small cases, the oracle
identities on the small catalog (the full sweeps live in the acceptance
suite), the crosscut engine against the explicit-lattice reference, and
its two ways to compute the Moebius values against each other.
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
from nlflow.digraphs import num_weak_components, rank
from nlflow.errors import LatticeSizeError
from nlflow.posets import FinitePoset


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
        family = [0b0011, 0b1100, 0b0101]
        unions = union_closure(family, cap=10**6)
        poset = FinitePoset(list(unions), lambda a, b: a & b == a)
        mu = nl._signed_unions(family, cap=len(unions))
        assert mu == {c: poset.mobius(0, c) for c in unions}
        assert mu[0b1111] == 0
        with pytest.raises(LatticeSizeError):
            nl._signed_unions(family, cap=len(unions) - 1)

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
        mu = nl._signed_unions(family, cap=10**6)
        flip = d.all_arcs if flow else 0
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
                assert nl._batch_ranks(d, masks).tolist() == [rank(d, b) for b in masks], (d, flow)

    @pytest.mark.parametrize("extra", [0, 1])
    def test_one_batch_and_one_more_mask(self, extra):
        # Loops, parallel and antiparallel arcs, and an isolated vertex.
        d = Digraph(6, ((0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 4), (0, 1), (1, 0), (3, 2)))
        rng = random.Random(extra)
        masks = [rng.getrandbits(d.m) for _ in range(nl._RANK_BATCH + extra)]
        assert nl._batch_ranks(d, masks).tolist() == [rank(d, b) for b in masks]

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


def tournament6() -> Digraph:
    """The transitive tournament on 6 vertices with 0 -> 3 and 0 -> 4
    reversed: 9 dicycles over 10 arcs, like the benchmark's tournament psi
    jobs.
    """
    arcs = [(i, j) for i in range(6) for j in range(i + 1, 6)]
    return Digraph(6, tuple((j, i) if (i, j) in ((0, 3), (0, 4)) else (i, j) for i, j in arcs))


def family_of(d, flow):
    return enumerate_dicuts(d) if flow else enumerate_directed_cycles(d)


def nonzero(mu: dict) -> dict:
    return {u: s for u, s in mu.items() if s}


class TestMobiusPaths:
    """The two ways to compute mu: the subset transform over the covered
    arcs against the dict sweep, and the rule that picks one.
    """

    @staticmethod
    def spy(monkeypatch):
        """The names of the mu engines called from here on."""
        calls = []
        for name in ("_signed_unions", "_subset_transform"):
            engine = getattr(nl, name)
            monkeypatch.setattr(nl, name, lambda *a, engine=engine, name=name: calls.append(name) or engine(*a))
        return calls

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.integers(1, (1 << 12) - 1), max_size=2 * nl._TRANSFORM_MIN_MEMBERS),
    )
    def test_random_families(self, family):
        # Bitmasks over at most 12 arcs, on both sides of the member count
        # at which the transform takes over.
        cover = 0
        for a in family:
            cover |= a
        unions, mu = nl._subset_transform(family, cover)
        assert unions.tolist() == sorted(unions.tolist())
        assert dict(zip(unions.tolist(), mu.tolist())) == nonzero(nl._signed_unions(family, cap=1 << 12))

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(1, (1 << 12) - 1), max_size=2 * nl._TRANSFORM_MIN_MEMBERS),
        st.booleans(),
    )
    def test_random_families_give_one_polynomial(self, family, flow):
        # K*4 has 12 arcs; the transform's unions, ranked in one batch,
        # against the swept lattice, ranked as _polynomial ranks it.
        d = complete_symmetric(4)
        rk_all, flip = (None, (1 << d.m) - 1) if flow else (rank(d, (1 << d.m) - 1), 0)
        cover = 0
        for a in family:
            cover |= a
        transformed = nl._batch_polynomial(d, *nl._subset_transform(family, cover), flip, rk_all)
        with patch.object(nl, "_TRANSFORM_MIN_MEMBERS", len(family) + 1):
            swept = nl._polynomial(d, family, 1 << 12, rk_all)
        assert transformed == swept

    @pytest.mark.parametrize(
        "d, flow, engine",
        [
            (grid(2, 5), True, "_subset_transform"),  # 19 dicuts over 13 arcs
            (complete_symmetric(4), False, "_subset_transform"),  # 20 dicycles over 12 arcs
            (tournament6(), False, "_signed_unions"),  # 9 dicycles over 10 arcs
        ],
    )
    def test_default_rule(self, monkeypatch, d, flow, engine):
        polynomial, reference = (
            (nl_flow_polynomial, reference_flow_polynomial)
            if flow
            else (nl_coflow_polynomial, reference_coflow_polynomial)
        )
        calls = self.spy(monkeypatch)
        assert polynomial(d) == reference(d)
        assert calls == [engine]

    @pytest.mark.parametrize("members, engine", [(11, "_signed_unions"), (12, "_signed_unions"), (13, "_subset_transform")])
    def test_members_against_covered_arcs(self, monkeypatch, members, engine):
        # Single arcs 0..members-2 of K*5 and one member on arcs 11 and
        # 12: 11 members are too few, 12 cover 13 arcs, 13 cover 13.
        d = complete_symmetric(5)
        family = [1 << j for j in range(members - 1)] + [0b11 << 11]
        with patch.object(nl, "_TRANSFORM_MIN_MEMBERS", members + 1):
            swept = nl._polynomial(d, family, 10**6, None)
        calls = self.spy(monkeypatch)
        assert nl._polynomial(d, family, 10**6, None) == swept
        assert calls == [engine]

    def test_catalog_is_swept(self, monkeypatch, catalog_full):
        # No catalog family has more than 9 members.
        calls = self.spy(monkeypatch)
        for d in catalog_full:
            nl_flow_polynomial(d)
            nl_coflow_polynomial(d)
        assert set(calls) == {"_signed_unions"}

    @pytest.mark.parametrize(
        "d, flow, engine",
        [
            # K*4 on the last four of n vertices.
            *[
                (Digraph(n, tuple((n - 4 + a, n - 4 + b) for a, b in complete_symmetric(4).arcs)), False, engine)
                for n, engine in ((64, "_subset_transform"), (65, "_signed_unions"))
            ],
            # The 2x5 grid beside a directed cycle, which adds no dicut:
            # 64 or 65 arcs in all, 62 or 63 vertices.
            *[
                (Digraph(10 + k, grid(2, 5).arcs + tuple(((10 + i), 10 + (i + 1) % k) for i in range(k))), True, engine)
                for k, engine in ((51, "_subset_transform"), (52, "_signed_unions"))
            ],
            # K*4 beside an acyclic path: 65 arcs, the dicycles on 12.
            (Digraph(57, complete_symmetric(4).arcs + tuple((i, i + 1) for i in range(3, 56))), False, "_signed_unions"),
        ],
    )
    def test_wide_digraphs_fall_back(self, monkeypatch, d, flow, engine):
        # Masks must fit uint64 and _batch_ranks must take the digraph, so
        # a family on few arcs of a wider digraph is swept.
        polynomial, reference = (
            (nl_flow_polynomial, reference_flow_polynomial)
            if flow
            else (nl_coflow_polynomial, reference_coflow_polynomial)
        )
        calls = self.spy(monkeypatch)
        assert polynomial(d) == reference(d)
        assert calls == [engine]

    @pytest.mark.parametrize(
        "d, polynomial, flow",
        [
            (grid(2, 5), nl_flow_polynomial, True),  # 1424 unions, 2^13 cells
            (complete_symmetric(4), nl_coflow_polynomial, False),  # 1688 unions, 2^12 cells
        ],
    )
    def test_cap_below_the_cells_is_swept(self, monkeypatch, d, polynomial, flow):
        # The transform runs only when all 2^m' cells fit the cap, so no
        # lattice on its path can pass the cap; below that the sweep
        # raises at the union count, as it always did.
        family = family_of(d, flow)
        cover = 0
        for a in family:
            cover |= a
        cells, unions = 1 << cover.bit_count(), len(nl._signed_unions(family, cap=10**6))
        expected = polynomial(d)
        calls = self.spy(monkeypatch)
        assert polynomial(d, cap=cells) == expected
        assert polynomial(d, cap=cells - 1) == expected
        assert polynomial(d, cap=unions) == expected
        with pytest.raises(LatticeSizeError):
            polynomial(d, cap=unions - 1)
        assert calls == ["_subset_transform"] + ["_signed_unions"] * 3

    def test_many_members_sum_in_python_ints(self, monkeypatch):
        # K*5 has 84 dicycles over 20 arcs: 2^20 cells pass the cap, so the
        # lattice is swept, and with 63 or more members the |mu| could sum
        # past int64, so the scatter-add runs on Python ints.
        dtypes = []
        batch = nl._batch_polynomial
        monkeypatch.setattr(
            nl, "_batch_polynomial", lambda d, u, values, *a: dtypes.append(values.dtype) or batch(d, u, values, *a)
        )
        calls = self.spy(monkeypatch)
        assert nl_coflow_polynomial(complete_symmetric(5)) == IntPolynomial({4: 1, 3: -10, 2: 35, 1: -50, 0: 24})
        assert calls == ["_signed_unions"]
        assert dtypes == [object]

    @pytest.mark.parametrize("d", [Digraph(0, ()), Digraph(1, ()), grid(2, 3), Digraph(2, ((0, 0), (0, 1)))])
    def test_empty_family_and_digraph(self, monkeypatch, d):
        # An empty family (no dicuts, or no dicycles) has the one union 0
        # on either path.  With no minimum, each family here has at least
        # as many members as covered arcs, so it takes the transform.
        expected = (nl_flow_polynomial(d), nl_coflow_polynomial(d))
        assert expected == (reference_flow_polynomial(d), reference_coflow_polynomial(d))
        monkeypatch.setattr(nl, "_TRANSFORM_MIN_MEMBERS", 0)
        calls = self.spy(monkeypatch)
        assert (nl_flow_polynomial(d), nl_coflow_polynomial(d)) == expected
        assert calls == ["_subset_transform"] * 2


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
    assert nl._batch_ranks(d, masks).tolist() == [rank(d, b) for b in masks]
