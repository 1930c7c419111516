"""Structural primitives: components, rank, SCCs, contraction,
topological order, and the text format.
"""

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
    strongly_connected_components,
    topological_order,
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

    def test_check_arc_subset(self, k3_acyclic):
        assert k3_acyclic.check_arc_subset([0, 2]) == frozenset({0, 2})
        with pytest.raises(ValueError):
            k3_acyclic.check_arc_subset({3})


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
        assert num_weak_components(Digraph(2, ()), frozenset()) == 2

    def test_single_arc_joined(self, single_arc):
        assert num_weak_components(single_arc, frozenset({0})) == 1

    def test_k3_one_arc(self, k3_acyclic):
        # B = {bc} leaves {a} and {b, c}.
        assert num_weak_components(k3_acyclic, frozenset({2})) == 2

    def test_rank_empty_is_zero(self, k3_acyclic, cycle3):
        for d in (k3_acyclic, cycle3):
            assert rank(d, frozenset()) == 0

    def test_rank_full(self, k3_acyclic, cycle3):
        assert rank(k3_acyclic, k3_acyclic.all_arcs) == 2
        assert rank(cycle3, cycle3.all_arcs) == 2

    @given(small_digraphs(), st.data())
    def test_rank_reads_masks(self, d, data):
        b = frozenset(data.draw(st.sets(st.sampled_from(range(d.m)))) if d.m else set())
        assert mask_arcs(arc_mask(b)) == sorted(b)
        assert rank(d, arc_mask(b)) == rank(d, b) == d.n - num_weak_components(d, b)

    @given(small_digraphs(), st.data())
    def test_rank_monotone(self, d, data):
        b2 = frozenset(data.draw(st.sets(st.sampled_from(range(d.m)))) if d.m else set())
        b1 = frozenset(data.draw(st.sets(st.sampled_from(sorted(b2)))) if b2 else set())
        assert rank(d, b1) <= rank(d, b2)
        assert 0 <= rank(d, b2) <= max(d.n - 1, 0)


class TestSCCs:
    def test_cycle_is_one_scc(self, cycle3):
        assert strongly_connected_components(cycle3) == [[0, 1, 2]]

    def test_k3_unique_topological_order(self, k3_acyclic):
        assert strongly_connected_components(k3_acyclic) == [[0], [1], [2]]

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
        sizes = tuple(len(c) for c in strongly_connected_components(d))
        assert sizes == (1, 4, 1)

    @given(small_digraphs())
    def test_condensation_order_and_acyclicity(self, d):
        label, k = condensation_labels(d)
        for t, h in d.arcs:
            assert label[t] <= label[h]
        cond_arcs = {(label[t], label[h]) for t, h in d.arcs if label[t] != label[h]}
        assert is_acyclic(Digraph(k, tuple(cond_arcs)))


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
        s = frozenset(data.draw(st.sets(st.sampled_from(range(d.m)))) if d.m else set())
        if is_totally_cyclic(contract(d, s)):
            extra = frozenset(
                data.draw(st.sets(st.sampled_from(range(d.m)))) if d.m else set()
            )
            assert is_totally_cyclic(contract(d, s | extra))


class TestContractDelete:
    def test_contract_k3_middle_arc(self, k3_acyclic):
        # Contract {ac}: vertices {a,c} and {b}; arcs ab and bc survive
        # as a digon, so the result is strongly connected.
        c = contract(k3_acyclic, frozenset({1}))
        assert c.n == 2
        assert c.m == 2
        assert is_totally_cyclic(c)

    def test_contract_empty_identity(self, k3_acyclic):
        assert contract(k3_acyclic, frozenset()) == k3_acyclic

    def test_contract_all_arcless(self, k3_acyclic):
        c = contract(k3_acyclic, k3_acyclic.all_arcs)
        assert c.n == 1 and c.m == 0

    def test_contract_keeps_new_loops(self):
        d = Digraph(2, ((0, 1), (0, 1)))
        c = contract(d, frozenset({0}))
        assert c.n == 1 and c.arcs == ((0, 0),)


class TestTopologicalOrder:
    def test_k3_order_unique(self, k3_acyclic):
        assert topological_order(k3_acyclic) == [0, 1, 2]

    def test_cycle_absent(self, cycle3):
        assert topological_order(cycle3) is None
        assert not is_acyclic(cycle3)

    def test_loop_is_cyclic(self):
        assert topological_order(Digraph(1, ((0, 0),))) is None

    def test_k5_order(self):
        d = Digraph(5, tuple((i, j) for i in range(5) for j in range(i + 1, 5)))
        assert topological_order(d) == [0, 1, 2, 3, 4]

    @given(small_digraphs())
    def test_order_is_valid_when_present(self, d):
        order = topological_order(d)
        if order is not None:
            pos = {v: i for i, v in enumerate(order)}
            assert sorted(order) == list(range(d.n))
            assert all(pos[t] < pos[h] for t, h in d.arcs)


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
