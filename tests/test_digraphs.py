"""Structural primitives: components, rank, the condensation and the
answers read from it (acyclicity, total cyclicity), contraction, and the
text format.  The condensation is checked against mutual reachability
computed by closure.
"""

import re
import time

import pytest
from hypothesis import given, strategies as st

from nlflow import (
    Digraph,
    contract,
    incidence_matrix,
    is_acyclic,
    is_totally_cyclic,
    rank,
    read_digraph,
    weak_components,
    write_digraph,
)
from nlflow.digraphs import arc_mask, condensation_labels, mask_arcs, num_weak_components


def small_digraphs(max_n=5, max_m=8):
    @st.composite
    def build(draw):
        n = draw(st.integers(1, max_n))
        m = draw(st.integers(0, max_m))
        arcs = tuple(
            (draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)))
            for _ in range(m)
        )
        return Digraph(n, arcs)

    return build()


def reachable(d):
    """reach[v]: the vertices that a walk of one or more arcs from v ends
    at, as a bitmask, by Warshall's closure of the arc relation.
    """
    reach = [0] * d.n
    for t, h in d.arcs:
        reach[t] |= 1 << h
    for u in range(d.n):
        for v in range(d.n):
            if reach[v] >> u & 1:
                reach[v] |= reach[u]
    return reach


def assert_condensation_is_reachability(d):
    # Same label iff mutually reachable, labels 0..k-1, no arc to a lower
    # label; acyclic iff no vertex reaches itself; totally cyclic iff
    # every arc's tail is reachable from its head.
    reach = reachable(d)
    label, k = condensation_labels(d)
    assert sorted(set(label)) == list(range(k))
    for u in range(d.n):
        for v in range(d.n):
            mutual = u == v or reach[u] >> v & 1 and reach[v] >> u & 1
            assert (label[u] == label[v]) == bool(mutual)
    assert all(label[t] <= label[h] for t, h in d.arcs)
    assert is_acyclic(d) == (not any(reach[v] >> v & 1 for v in range(d.n)))
    assert is_totally_cyclic(d) == all(reach[h] >> t & 1 for t, h in d.arcs)


class TestDigraphType:
    def test_arc_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Digraph(2, ((0, 2),))
        with pytest.raises(ValueError):
            Digraph(1, ((-1, 0),))

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            Digraph(-1, ())

    def test_parallel_antiparallel_loops_allowed(self):
        d = Digraph(2, ((0, 1), (0, 1), (1, 0), (1, 1)))
        assert d.m == 4

    def test_arc_mask_checks_outside_lists(self, k3_acyclic):
        assert arc_mask(k3_acyclic, [2, 0, 2]) == 0b101
        assert arc_mask(k3_acyclic, []) == 0
        assert k3_acyclic.all_arcs == 0b111 and Digraph(2, ()).all_arcs == 0
        for arcs, shown in (([3], "[3]"), ([2, -1, 2], "[-1, 2]"), ([0, 3, 0], "[0, 3]")):
            with pytest.raises(ValueError, match=rf"^arc set {re.escape(shown)} is not a subset of 0\.\.2$"):
                arc_mask(k3_acyclic, arcs)
        with pytest.raises(ValueError, match=r"^arc set \[0\] is not a subset of 0\.\.-1$"):
            arc_mask(Digraph(1, ()), [0])


class TestIncidenceMatrix:
    def test_k3(self, k3_acyclic):
        assert incidence_matrix(k3_acyclic) == [
            [1, 1, 0],
            [-1, 0, 1],
            [0, -1, -1],
        ]

    def test_loop_column_is_zero(self):
        mat = incidence_matrix(Digraph(2, ((0, 0), (0, 1))))
        assert [row[0] for row in mat] == [0, 0]

    @given(small_digraphs())
    def test_nonloop_columns_sum_to_zero(self, d):
        mat = incidence_matrix(d)
        for j in range(d.m):
            col = [mat[i][j] for i in range(d.n)]
            assert sum(col) == 0
            assert all(x in (-1, 0, 1) for x in col)


class TestWeakComponentsAndRank:
    def test_isolated_vertices(self):
        assert num_weak_components(Digraph(2, ()), 0) == 2

    def test_single_arc_joined(self, single_arc):
        assert num_weak_components(single_arc, 0b1) == 1

    def test_k3_one_arc(self, k3_acyclic):
        # B = {bc} leaves {a} and {b, c}.
        assert num_weak_components(k3_acyclic, 0b100) == 2

    def test_rank_empty_is_zero(self, k3_acyclic, cycle3):
        for d in (k3_acyclic, cycle3):
            assert rank(d, 0) == 0

    def test_rank_full(self, k3_acyclic, cycle3):
        assert rank(k3_acyclic, k3_acyclic.all_arcs) == 2
        assert rank(cycle3, cycle3.all_arcs) == 2

    @given(small_digraphs(), st.data())
    def test_rank_reads_masks(self, d, data):
        arcs = data.draw(st.lists(st.sampled_from(range(d.m)))) if d.m else []
        b = arc_mask(d, arcs)
        assert mask_arcs(b) == sorted(set(arcs))
        assert rank(d, b) == d.n - num_weak_components(d, b)
        assert num_weak_components(d, d.all_arcs) == num_weak_components(d)

    @given(small_digraphs(), st.data())
    def test_rank_monotone(self, d, data):
        b2 = data.draw(st.integers(0, d.all_arcs))
        b1 = b2 & data.draw(st.integers(0, d.all_arcs))
        assert rank(d, b1) <= rank(d, b2)
        assert 0 <= rank(d, b2) <= max(d.n - 1, 0)


class TestSCCs:
    def test_cycle_is_one_scc(self, cycle3):
        assert condensation_labels(cycle3) == ([0, 0, 0], 1)

    def test_k3_unique_topological_order(self, k3_acyclic):
        assert condensation_labels(k3_acyclic) == ([0, 1, 2], 3)

    def test_figure_condensation_sizes(self):
        # 6 vertices: source 0, strong middle {1,2,3,4}, sink 5.
        d = Digraph(
            6,
            (
                (0, 1), (0, 2), (0, 3), (0, 4),
                (1, 2), (2, 3), (3, 4), (4, 1),
                (1, 5), (2, 5), (3, 5), (4, 5),
            ),
        )
        assert condensation_labels(d) == ([0, 1, 1, 1, 1, 2], 3)

    @given(small_digraphs(max_n=7, max_m=12))
    def test_condensation_order_and_acyclicity(self, d):
        assert_condensation_is_reachability(d)

    def test_catalog_equals_reachability(self, catalog_full):
        for d in catalog_full:
            assert_condensation_is_reachability(d)

    @pytest.mark.parametrize("closed", [False, True])
    def test_long_path_and_cycle_without_recursion(self, closed):
        # 10^5 vertices, far beyond the interpreter's recursion limit.
        n = 10**5
        d = Digraph(n, tuple((i, (i + 1) % n) for i in range(n if closed else n - 1)))
        times = []
        for _ in range(3):
            start = time.perf_counter()
            label, k = condensation_labels(d)
            times.append(time.perf_counter() - start)
        assert (label, k) == (([0] * n, 1) if closed else (list(range(n)), n))
        assert is_acyclic(d) != closed and is_totally_cyclic(d) == closed
        assert min(times) < 1, times


class TestTotallyCyclic:
    def test_cycle_true(self, cycle3):
        assert is_totally_cyclic(cycle3)

    def test_single_arc_false(self, single_arc):
        assert not is_totally_cyclic(single_arc)

    def test_arcless_true(self):
        assert is_totally_cyclic(Digraph(2, ()))

    def test_loop_only_true(self):
        assert is_totally_cyclic(Digraph(1, ((0, 0),)))

    @given(small_digraphs())
    def test_contract_all_arcs_totally_cyclic(self, d):
        assert is_totally_cyclic(contract(d, d.all_arcs))

    @given(small_digraphs(max_n=4, max_m=5), st.data())
    def test_contraction_monotone(self, d, data):
        s = data.draw(st.integers(0, d.all_arcs))
        if is_totally_cyclic(contract(d, s)):
            extra = data.draw(st.integers(0, d.all_arcs))
            assert is_totally_cyclic(contract(d, s | extra))


class TestContractDelete:
    def test_contract_k3_middle_arc(self, k3_acyclic):
        # Contract {ac}: vertices {a,c} and {b}; arcs ab and bc survive
        # as a digon, so the result is strongly connected.
        c = contract(k3_acyclic, 0b010)
        assert c.n == 2
        assert c.m == 2
        assert is_totally_cyclic(c)

    def test_contract_empty_identity(self, k3_acyclic):
        assert contract(k3_acyclic, 0) == k3_acyclic

    def test_contract_all_arcless(self, k3_acyclic):
        c = contract(k3_acyclic, k3_acyclic.all_arcs)
        assert c.n == 1 and c.m == 0

    def test_contract_keeps_new_loops(self):
        d = Digraph(2, ((0, 1), (0, 1)))
        c = contract(d, 0b01)
        assert c.n == 1 and c.arcs == ((0, 0),)


class TestTopologicalOrder:
    # An acyclic digraph's condensation labels are a topological order.
    def test_k3_order_unique(self, k3_acyclic):
        assert is_acyclic(k3_acyclic)
        assert condensation_labels(k3_acyclic)[0] == [0, 1, 2]

    def test_cycle_absent(self, cycle3):
        assert not is_acyclic(cycle3)

    def test_loop_is_cyclic(self):
        # A loop leaves its vertex a component of its own.
        d = Digraph(1, ((0, 0),))
        assert condensation_labels(d) == ([0], 1)
        assert not is_acyclic(d)

    def test_k5_order(self):
        d = Digraph(5, tuple((i, j) for i in range(5) for j in range(i + 1, 5)))
        assert is_acyclic(d)
        assert condensation_labels(d)[0] == [0, 1, 2, 3, 4]

    @given(small_digraphs())
    def test_order_is_valid_when_present(self, d):
        label, k = condensation_labels(d)
        if is_acyclic(d):
            assert k == d.n and sorted(label) == list(range(d.n))
            assert all(label[t] < label[h] for t, h in d.arcs)


class TestTextFormat:
    def test_round_trip_exact(self, k3_acyclic):
        text = write_digraph(k3_acyclic)
        assert text == "3 3\n0 1\n0 2\n1 2\n"
        assert read_digraph(text) == k3_acyclic

    def test_comments_and_blank_lines(self):
        text = "# header\n\n2 1\n# arc\n0 1\n"
        assert read_digraph(text) == Digraph(2, ((0, 1),))

    def test_bad_inputs(self):
        for bad in ("", "x y\n", "2 2\n0 1\n"):
            with pytest.raises(ValueError):
                read_digraph(bad)

    @given(small_digraphs())
    def test_round_trip_property(self, d):
        assert read_digraph(write_digraph(d)) == d
        assert write_digraph(read_digraph(write_digraph(d))) == write_digraph(d)
