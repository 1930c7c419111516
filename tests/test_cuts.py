"""Dicuts, directed cycles, dijoins, and the union-closed lattices they
generate (built by the test-side reference in reference_lattice).
"""

import time
import tracemalloc
import pytest
from hypothesis import given, settings, strategies as st
from reference_lattice import build_cut_lattice, build_cycle_lattice

from nlflow import (
    Digraph,
    IntPolynomial,
    enumerate_dicuts,
    enumerate_directed_cycles,
    is_dijoin,
    nl_flow_polynomial,
)
from nlflow.errors import LatticeSizeError
from nlflow.tournaments import complete_acyclic_digraph


def brute_force_dicuts(d):
    """Every nonempty delta(U) over all 2^n vertex sets U with no arc
    entering U, as an increasing list of arc bitmasks.
    """
    cuts = set()
    for u in range(1 << d.n):
        if any(u >> h & 1 and not u >> t & 1 for t, h in d.arcs):
            continue
        cut = sum(1 << j for j, (t, h) in enumerate(d.arcs) if u >> t & 1 and not u >> h & 1)
        if cut:
            cuts.add(cut)
    return sorted(cuts)


def brute_force_cycles(d):
    """Every arc set that is one elementary directed cycle: each vertex it
    touches has one arc in and one arc out, and from any of its arcs the
    successor arcs come back around through all of them.  The masks are
    tried in increasing order, so the list is increasing.
    """
    cycles = []
    for mask in range(1, 1 << d.m):
        arcs = [j for j in range(d.m) if mask >> j & 1]
        out = {d.arcs[j][0]: j for j in arcs}
        heads = [d.arcs[j][1] for j in arcs]
        if len(out) != len(arcs) or sorted(heads) != sorted(out):
            continue
        j, seen = arcs[0], 0
        while True:
            j = out[d.arcs[j][1]]
            seen += 1
            if j == arcs[0]:
                break
        if seen == len(arcs):
            cycles.append(mask)
    return cycles


def doubled_path(n, doubled, offset=0):
    """Arcs of the path offset -> ... -> offset+n-1, with the steps whose
    index is in doubled taken twice."""
    arcs = []
    for i in range(n - 1):
        arcs += [(offset + i, offset + i + 1)] * (2 if i in doubled else 1)
    return arcs


class TestDicuts:
    def test_k3_acyclic(self, k3_acyclic):
        cuts = enumerate_dicuts(k3_acyclic)
        assert cuts == [0b011, 0b110]  # {ab,ac},{ac,bc}
        assert len(cuts) == k3_acyclic.n - 1

    def test_cycle_has_none(self, cycle3):
        assert enumerate_dicuts(cycle3) == []

    def test_figure_digraph_has_d_minus_1(self):
        d = Digraph(
            6,
            (
                (0, 1), (0, 2), (0, 3), (0, 4),
                (1, 2), (2, 3), (3, 4), (4, 1),
                (1, 5), (2, 5), (3, 5), (4, 5),
            ),
        )
        assert len(enumerate_dicuts(d)) == 2

    def test_complete_acyclic_count(self):
        for n in range(1, 7):
            assert len(enumerate_dicuts(complete_acyclic_digraph(n))) == n - 1

    def test_every_dicut_is_a_dicut(self, catalog_full):
        # The defining property, over all 2^n vertex sets: no condensation.
        for d in catalog_full:
            assert enumerate_dicuts(d) == brute_force_dicuts(d), d

    @pytest.mark.parametrize(
        "d, count",
        [
            (Digraph(18, tuple(doubled_path(18, (0, 4, 9, 16)))), 17),
            (Digraph(16, tuple(doubled_path(5, (1,)) + doubled_path(11, (3, 7), offset=5))),
             5 * 11 - 1),
        ],
    )
    def test_workload_shapes_match_brute_force(self, d, count):
        cuts = enumerate_dicuts(d)
        assert len(cuts) == count
        assert cuts == brute_force_dicuts(d)


class TestDicutCap:
    def test_arcless_digraph_beyond_30_components(self):
        d = Digraph(31, ())
        assert enumerate_dicuts(d) == []
        assert nl_flow_polynomial(d) == IntPolynomial.one()

    def test_path_beyond_30_components(self):
        d = Digraph(31, tuple((i, i + 1) for i in range(30)))
        assert enumerate_dicuts(d) == [1 << j for j in range(30)]

    def test_cap_is_exact(self):
        d = Digraph(6, ((0, 1), (1, 2), (3, 4), (4, 5)))  # 3 * 3 - 1 dicuts
        assert len(enumerate_dicuts(d, cap=8)) == 8
        with pytest.raises(LatticeSizeError):
            enumerate_dicuts(d, cap=7)

    def test_product_raises_before_allocating(self):
        # 21 disjoint three-vertex paths have 3^21 - 1 dicuts.
        d = Digraph(63, tuple(a for c in range(21) for a in ((3 * c, 3 * c + 1), (3 * c + 1, 3 * c + 2))))
        tracemalloc.start()
        try:
            with pytest.raises(LatticeSizeError):
                enumerate_dicuts(d)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10**5

    def test_flow_polynomial_passes_its_cap(self):
        d = Digraph(4, ((0, 1), (1, 2), (2, 3)))  # 3 dicuts, 8 unions
        with pytest.raises(LatticeSizeError, match="dicuts"):
            nl_flow_polynomial(d, cap=2)


class TestCycles:
    def test_cycle3(self, cycle3):
        assert enumerate_directed_cycles(cycle3) == [0b111]

    def test_k3_acyclic_empty(self, k3_acyclic):
        assert enumerate_directed_cycles(k3_acyclic) == []

    def test_digon(self):
        d = Digraph(2, ((0, 1), (1, 0)))
        assert enumerate_directed_cycles(d) == [0b11]

    def test_loop_is_one_cycle(self):
        d = Digraph(1, ((0, 0),))
        assert enumerate_directed_cycles(d) == [0b1]

    def test_parallel_arcs_distinct_cycles(self):
        d = Digraph(2, ((0, 1), (0, 1), (1, 0)))
        cycles = enumerate_directed_cycles(d)
        assert cycles == [0b101, 0b110]

    def test_catalog_equals_brute_force(self, catalog_full):
        for d in catalog_full:
            assert enumerate_directed_cycles(d) == brute_force_cycles(d), d

    def test_long_cycle_and_path_need_no_recursion(self):
        # Far deeper than the interpreter's recursion limit (1000).
        n = 1500
        cycle = Digraph(n, tuple((i, (i + 1) % n) for i in range(n)))
        assert enumerate_directed_cycles(cycle) == [cycle.all_arcs]
        assert enumerate_directed_cycles(Digraph(n, cycle.arcs[:-1])) == []

    def test_layered_dag_in_linear_time(self):
        # 30 layers of 3 vertices, each joined to the next by all 9 arcs:
        # 3^29 paths from the first layer, and no cycle.
        w, layers = 3, 30
        d = Digraph(w * layers, tuple(
            (i * w + a, (i + 1) * w + b) for i in range(layers - 1) for a in range(w) for b in range(w)
        ))
        times = []
        for _ in range(3):
            start = time.perf_counter()
            assert enumerate_directed_cycles(d) == []
            times.append(time.perf_counter() - start)
        assert min(times) < 0.05, times

    def test_cap_is_exact(self):
        # The complete symmetric digraph on 4 vertices has 6 + 8 + 6 = 20
        # directed cycles (lengths 2, 3 and 4).
        d = Digraph(4, tuple((i, j) for i in range(4) for j in range(4) if i != j))
        assert len(enumerate_directed_cycles(d, cap=20)) == 20
        with pytest.raises(LatticeSizeError, match="directed cycles"):
            enumerate_directed_cycles(d, cap=19)


class TestDijoin:
    def test_k3_examples(self, k3_acyclic):
        assert is_dijoin(k3_acyclic, 0b010)  # {ac}
        assert not is_dijoin(k3_acyclic, 0)

    def test_cycle_empty_set(self, cycle3):
        assert is_dijoin(cycle3, 0)

    def test_dijoin_iff_meets_every_dicut(self, catalog_full):
        # Both characterizations implemented independently; they must
        # agree on every subset of every catalog digraph with m <= 5.
        for d in catalog_full:
            if d.m > 5:
                continue
            cuts = enumerate_dicuts(d)
            for s in range(1 << d.m):
                meets = all(s & c for c in cuts)
                assert is_dijoin(d, s) == meets


class TestLattices:
    def test_k3_cut_lattice(self, k3_acyclic):
        lat = build_cut_lattice(k3_acyclic)
        assert set(lat.elements) == {
            0b111,
            0b100,  # A minus {ab,ac}
            0b001,  # A minus {ac,bc}
            0,
        }
        assert lat.top == k3_acyclic.all_arcs
        assert lat.elements[0] == lat.top

    def test_cycle_cut_lattice_trivial(self, cycle3):
        lat = build_cut_lattice(cycle3)
        assert lat.elements == [cycle3.all_arcs]

    def test_complete_acyclic_boolean(self):
        for n in range(1, 6):
            lat = build_cut_lattice(complete_acyclic_digraph(n))
            assert len(lat.elements) == 2 ** max(n - 1, 0)

    def test_cycle3_cycle_lattice(self, cycle3):
        lat = build_cycle_lattice(cycle3)
        assert set(lat.elements) == {cycle3.all_arcs, 0}

    def test_k3_cycle_lattice(self, k3_acyclic):
        assert build_cycle_lattice(k3_acyclic).elements == [k3_acyclic.all_arcs]

    def test_digon_plus_pendant(self):
        d = Digraph(3, ((0, 1), (1, 0), (1, 2)))
        lat = build_cycle_lattice(d)
        assert set(lat.elements) == {d.all_arcs, 0b100}

    def test_complement_closure(self, catalog_small):
        # Lattice is closed under "complement of union": meet of any two
        # elements is again an element, and A is always present.
        for d in catalog_small:
            if d.m > 5:
                continue
            lat = build_cut_lattice(d)
            elems = set(lat.elements)
            assert lat.top in elems
            for a in elems:
                for b in elems:
                    assert a & b in elems

    def test_size_guard(self, cycle3):
        with pytest.raises(LatticeSizeError):
            build_cycle_lattice(cycle3, cap=1)


@st.composite
def digraphs_up_to_10(draw):
    """Digraphs with n <= 10, loops and parallel arcs allowed; many are
    disconnected."""
    n = draw(st.integers(1, 10))
    vertex = st.integers(0, n - 1)
    return Digraph(n, tuple(draw(st.lists(st.tuples(vertex, vertex), max_size=14))))


@settings(max_examples=150, deadline=None)
@given(digraphs_up_to_10())
def test_random_dicuts_match_brute_force(d):
    assert enumerate_dicuts(d) == brute_force_dicuts(d)


@settings(max_examples=60, deadline=None)
@given(digraphs_up_to_10())
def test_random_cycles_match_brute_force(d):
    assert enumerate_directed_cycles(d) == brute_force_cycles(d)


@settings(max_examples=40)
@given(st.integers(1, 5), st.data())
def test_mobius_rows_sum_to_zero(n, data):
    d = complete_acyclic_digraph(n)
    lat = build_cut_lattice(d)
    b = data.draw(st.sampled_from(lat.elements))
    total = sum(lat.poset.mobius(lat.top, c) for c in lat.elements if c & b == b)
    assert total == (1 if b == lat.top else 0)
