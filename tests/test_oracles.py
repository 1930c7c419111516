"""Brute-force oracles: group flows, integer flows (one-pass half-box
enumerator vs the full-box reference), the folded walk (rows of equal
state merged) vs the plain one, acyclic colorings, equivalence, and
polynomiality fits.
"""

import re
import tracemalloc
from functools import lru_cache, partial
from itertools import product
from math import prod

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from reference_counters import (
    _support_cyclic,
    count_acyclic_colorings_naive,
    count_nl_group_flows_naive,
    count_nl_integer_kflows_naive,
    dense_group_flow_count,
    full_box_histogram,
    is_group_flow,
)
from reference_equivalence import check_equivalence_theorem

from nlflow import (
    BudgetExceededError,
    Digraph,
    IntPolynomial,
    count_acyclic_colorings,
    count_nl_group_flows,
    count_nl_integer_kflows,
    cyclic,
    fit_integer_flow_polynomial,
    is_totally_cyclic,
)
from nlflow.cuts import enumerate_dicuts, is_dijoin
from nlflow.digraphs import incidence_matrix, rank
from nlflow.groups import AbelianGroup
from nlflow.matroids import (
    TUMatrix,
    _support_contraction_cyclic,
    count_nl_group_flows_matroid,
    cyclic_supports,
    fit_integer_flow_polynomial_matroid,
    write_matrix,
)
from nlflow import cli, oracles
from nlflow.oracles import kernel_height_histogram, kernel_nullity


@pytest.fixture
def built(monkeypatch):
    """The sizes of the coordinate grids a fresh _coord_grid cache builds,
    each checked against min(_FOLD_ROWS, _CHUNK) in force when it is built.
    """
    sizes = []
    build = oracles._coord_grid.__wrapped__

    def record(key, n):
        grid = build(key, n)
        sizes.append(grid[1].shape[1])
        assert sizes[-1] <= min(oracles._FOLD_ROWS, oracles._CHUNK)
        return grid

    monkeypatch.setattr(oracles, "_coord_grid", lru_cache(maxsize=128)(record))
    return sizes


@pytest.fixture
def merges(monkeypatch):
    """(rows in, states out) of every merge the walker makes, each checked
    to keep int64 weights.
    """
    seen = []
    merge = oracles._merge

    def spy(box, *args):
        out = merge(box, *args)
        assert out[3].dtype == np.int64
        seen.append((len(box[1]), len(out[1])))
        return out

    monkeypatch.setattr(oracles, "_merge", spy)
    return seen


class TestIsGroupFlow:
    def test_cycle_constants(self, cycle3):
        g = cyclic(5)
        for v in range(5):
            assert is_group_flow(cycle3, g, {0: (v,), 1: (v,), 2: (v,)})

    def test_single_arc_nonzero(self, single_arc):
        assert not is_group_flow(single_arc, cyclic(2), {0: (1,)})
        assert is_group_flow(single_arc, cyclic(2), {0: (0,)})

    def test_k3_all_ones_mod2(self, k3_acyclic):
        assert is_group_flow(k3_acyclic, cyclic(2), {0: (1,), 1: (1,), 2: (1,)})

    def test_loop_never_violates(self):
        d = Digraph(1, ((0, 0),))
        assert is_group_flow(d, cyclic(3), {0: (2,)})


class TestCountGroupFlows:
    def test_cycle3_z2(self, cycle3):
        assert count_nl_group_flows(cycle3, cyclic(2)) == 2

    def test_k3_z2(self, k3_acyclic):
        assert count_nl_group_flows(k3_acyclic, cyclic(2)) == 1

    def test_single_arc_any_group(self, single_arc):
        for g in (cyclic(2), cyclic(3), AbelianGroup((2, 2))):
            assert count_nl_group_flows(single_arc, g) == 0

    def test_trivial_group(self, k3_acyclic, cycle3):
        assert count_nl_group_flows(cycle3, cyclic(1)) == 1
        assert count_nl_group_flows(k3_acyclic, cyclic(1)) == 0

    def test_budget_guard(self, cycle3):
        # Nullity 1: the walk is 3 points, but the histogram has 2^3 cells.
        with pytest.raises(BudgetExceededError):
            count_nl_group_flows(cycle3, cyclic(3), budget=7)
        assert count_nl_group_flows(cycle3, cyclic(3), budget=8) == 3

    def test_supports_are_exactly_dijoins(self, catalog_small):
        # Prop: an assignment counts iff it is a flow whose support is a
        # dijoin; re-filter the enumeration through is_dijoin.
        from itertools import product

        g = cyclic(2)
        for d in catalog_small:
            if d.m > 4:
                continue
            brute = 0
            for vals in product(range(2), repeat=d.m):
                f = {j: (v,) for j, v in enumerate(vals)}
                if is_group_flow(d, g, f):
                    supp = sum(1 << j for j, v in enumerate(vals) if v)
                    if is_dijoin(d, supp):
                        brute += 1
            assert brute == count_nl_group_flows(d, g)


class TestGroupCountsAgainstNaive:
    # The cotree walker against a tuple-by-tuple walk of G^m.
    GROUPS = [cyclic(1), cyclic(2), cyclic(3), cyclic(4), AbelianGroup((2, 2))]

    @staticmethod
    def naive(d, g):
        return count_nl_group_flows_naive(TUMatrix.from_digraph(d), g, partial(_support_cyclic, d))

    @pytest.mark.parametrize("g", GROUPS, ids=lambda g: g.spec())
    def test_catalog(self, catalog_small, g):
        for d in catalog_small:
            assert count_nl_group_flows(d, g) == self.naive(d, g), (d, g.spec())

    def test_catalog_z2xz3(self, catalog_small):
        g = AbelianGroup((2, 3))
        for d in catalog_small:
            if d.m <= 4:
                assert count_nl_group_flows(d, g) == self.naive(d, g), d

    def test_arcless(self):
        # One empty assignment, of support mask 0: an arcless digraph is
        # totally cyclic, so it has exactly one NL-G-flow.
        for d in (Digraph(1, ()), Digraph(3, ())):
            for g in self.GROUPS + [AbelianGroup((2, 3))]:
                assert count_nl_group_flows(d, g) == self.naive(d, g) == 1, (d, g.spec())

    @pytest.mark.parametrize("chunk", [1, 4, 20])
    def test_chunks(self, monkeypatch, catalog_small, chunk):
        # Small chunks cut both walks into batches of leading rows; the
        # integer one ends in the batch that holds the centre row.
        monkeypatch.setattr(oracles, "_CHUNK", chunk)
        for d in catalog_small[::50]:
            for g in (cyclic(3), AbelianGroup((2, 2))):
                assert count_nl_group_flows(d, g) == self.naive(d, g), (d, g.spec())
            for k in (2, 3):
                assert count_nl_integer_kflows(d, k) == count_nl_integer_kflows_naive(d, k)

    @pytest.mark.parametrize("g", GROUPS[1:] + [AbelianGroup((2, 3))], ids=lambda g: g.spec())
    def test_catalog_full_equals_dense(self, catalog_full, g):
        # The dense |G|^m reference, on every 12th digraph with n <= 4.
        for d in catalog_full[::12]:
            dense = dense_group_flow_count(
                incidence_matrix(d), d.m, g, partial(_support_cyclic, d)
            )
            assert count_nl_group_flows(d, g) == dense, (d, g.spec())


class TestCountIntegerFlows:
    def test_cycle3(self, cycle3):
        for k in (1, 2, 3, 4):
            assert count_nl_integer_kflows(cycle3, k) == max(2 * k - 1, 0)
        assert count_nl_integer_kflows(cycle3, 3) == 5

    def test_k3_k2(self, k3_acyclic):
        assert count_nl_integer_kflows(k3_acyclic, 2) == 2

    def test_single_arc(self, single_arc):
        for k in (1, 2, 5):
            assert count_nl_integer_kflows(single_arc, k) == 0

    def test_k_below_one_rejected(self, cycle3):
        with pytest.raises(ValueError):
            count_nl_integer_kflows(cycle3, 0)

    def test_cotree_equals_naive(self, catalog_small):
        # The fast cotree enumeration and the full-box reference must
        # agree everywhere.
        for d in catalog_small:
            for k in (1, 2, 3):
                assert count_nl_integer_kflows(d, k) == count_nl_integer_kflows_naive(
                    d, k
                ), (d, k)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4), st.integers(0, 5), st.data())
    def test_cotree_equals_naive_random(self, n, m, data):
        arcs = tuple(
            (data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1)))
            for _ in range(m)
        )
        d = Digraph(n, arcs)
        k = data.draw(st.integers(1, 3))
        assert count_nl_integer_kflows(d, k) == count_nl_integer_kflows_naive(d, k)


class TestKernelHeightHistogram:
    # The half box, rows below the centre twice and the centre row once,
    # must reproduce the full box exactly, by support mask and height.
    EDGE_CASES = (
        Digraph(1, ()),  # m = 0
        Digraph(3, ()),
        Digraph(3, ((0, 1), (1, 2))),  # nullity 0: only the zero flow
        Digraph(2, ((0, 1),)),
        Digraph(1, ((0, 0),)),  # loops
        Digraph(1, ((0, 0), (0, 0), (0, 0))),
        Digraph(2, ((0, 0), (0, 1), (1, 0), (1, 1))),
    )

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_edge_cases_equal_full_box(self, k):
        for d in self.EDGE_CASES:
            inc = incidence_matrix(d)
            assert (
                kernel_height_histogram(inc, d.m, k) == full_box_histogram(inc, d.m, k)
            ).all(), (d, k)

    def test_catalog_equals_full_box(self, catalog_small):
        for d in catalog_small[::3]:
            inc = incidence_matrix(d)
            for k in (1, 2, 3):
                assert (
                    kernel_height_histogram(inc, d.m, k) == full_box_histogram(inc, d.m, k)
                ).all(), (d, k)

    @pytest.mark.parametrize("chunk", [1, 4, 20])
    def test_batches_equal_full_box(self, monkeypatch, catalog_small, chunk):
        # Small chunks split the box into leading-coordinate batches and,
        # below 2k-1 points, force a one-coordinate trailing block.
        monkeypatch.setattr(oracles, "_CHUNK", chunk)
        for d in catalog_small[::5] + self.EDGE_CASES:
            inc = incidence_matrix(d)
            for k in (1, 2, 3):
                assert (
                    kernel_height_histogram(inc, d.m, k) == full_box_histogram(inc, d.m, k)
                ).all(), (d, k)

    PATH = ((1, -1, 0), (0, 1, -1))  # nullity 1
    TRIANGLE = ((1, 1, -1),)  # nullity 2

    @pytest.mark.parametrize(
        "rows, k, chunk, fold_rows, batches",
        [
            # Nullity 0: the box is the zero flow, which is its centre row.
            (((1, 0), (0, 1)), 3, 1, 1 << 62, [(0, 1)]),
            # No low block: rows 0 .. centre in batches of _CHUNK.
            (PATH, 3, 1, 1 << 62, [(0, 1), (1, 2), (2, 3)]),
            (PATH, 3, 2, 1 << 62, [(0, 2), (2, 3)]),
            (PATH, 4, 2, 1 << 62, [(0, 2), (2, 4)]),
            (PATH, 3, 8, 1 << 62, [(0, 3)]),
            # A low block of the trailing coordinate, 2k-1 rows, broadcast
            # with _CHUNK // (2k-1) high rows per batch.
            (TRIANGLE, 2, 3, 0, [(0, 1), (1, 2)]),
            (TRIANGLE, 2, 6, 0, [(0, 2)]),
            (TRIANGLE, 3, 10, 0, [(0, 2), (2, 3)]),
            (TRIANGLE, 4, 14, 0, [(0, 2), (2, 4)]),
            # _CHUNK would hold the whole box, but the leading coordinate
            # stays high, so the walk still halves.
            (TRIANGLE, 2, 9, 0, [(0, 2)]),
        ],
    )
    def test_centre_row_anywhere_in_a_batch(self, monkeypatch, rows, k, chunk, fold_rows, batches):
        # The centre row ends the walk, so it is last in its batch: alone
        # in it, after other rows, or in the one batch; with a low block or
        # without.  Its weight 1 against 2 below it must hold wherever.
        # Every batch takes its points from _points, cached or not; with
        # a low block (the TRIANGLE cases), its one axis and its seed of no
        # coordinate take theirs first.
        seen = []
        points = oracles._points

        def spy(key, n, lo, hi):
            seen.append((lo, hi))
            return points(key, n, lo, hi)

        monkeypatch.setattr(oracles, "_points", spy)
        monkeypatch.setattr(oracles, "_CHUNK", chunk)
        monkeypatch.setattr(oracles, "_FOLD_ROWS", fold_rows)
        ncols = len(rows[0])
        assert (kernel_height_histogram(rows, ncols, k) == full_box_histogram(rows, ncols, k)).all()
        low = [(0, 2 * k - 1), (0, 1)] if rows == self.TRIANGLE else []
        assert seen == low + batches

    def test_non_unimodular_matrix_is_exact(self):
        # The cotree expression of this matrix has denominator 2, so only
        # the even free values give integer kernel points.
        rows = ((1, 1, 0), (1, -1, 1))
        for k in (1, 2, 3, 4):
            assert (kernel_height_histogram(rows, 3, k) == full_box_histogram(rows, 3, k)).all()

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 3), st.integers(0, 5), st.data())
    def test_random_matrices_equal_full_box(self, p, q, data):
        rows = tuple(
            tuple(data.draw(st.integers(-1, 1)) for _ in range(q)) for _ in range(p)
        )
        k = data.draw(st.integers(1, 3))
        assert (kernel_height_histogram(rows, q, k) == full_box_histogram(rows, q, k)).all()

    def test_budget_bounds_the_histogram(self):
        # Nullity 0: the box is one point, but the histogram has k * 2^m cells.
        path = Digraph(41, tuple((i, i + 1) for i in range(40)))
        with pytest.raises(BudgetExceededError):
            count_nl_integer_kflows(path, 2)
        with pytest.raises(BudgetExceededError):
            count_nl_group_flows(path, cyclic(1))
        assert count_nl_integer_kflows(Digraph(5, path.arcs[:4]), 2) == 0

    def test_wide_coordinate_is_walked_in_slices(self, cycle3):
        # 2k-1 = 999999 values of one free coordinate, about 4 * _CHUNK:
        # the walk takes them in slices of _CHUNK, builds each slice's
        # columns from its own values, and adds it into the one k * 2^3
        # cell histogram (32 MB), which is summed in place.  Besides it
        # only one slice's columns and temporaries are allocated, 59 MB in
        # all; the columns of all values built up front (88 MB), a
        # histogram per batch or a copy of the accepted rows passes 2.5
        # times it.
        k = 500_000
        assert 2 * k - 1 > 3 * oracles._CHUNK
        tracemalloc.start()
        try:
            assert count_nl_integer_kflows(cycle3, k) == 2 * k - 1
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * 8 * (k << cycle3.m), peak

    def test_masks_wider_than_62_bits_are_refused(self):
        # int64 support masks: no budget admits more than 62 columns.
        assert oracles._cotree(((0,) * 62,), 62).free_bits[-1] == 1 << 61
        with pytest.raises(BudgetExceededError, match="support masks of 63 columns exceed 62 bits"):
            oracles._cotree(((0,) * 63,), 63)

    def test_wide_supports_are_refused_before_any_elimination(self, monkeypatch, tmp_path, capsys):
        # The width needs only ncols: the 300 x 300 incidence matrix of a
        # directed 300-cycle is never row-reduced, whoever asks.
        def refuse(mat):
            raise AssertionError("int_rref ran before the width check")

        monkeypatch.setattr(oracles, "int_rref", refuse)
        d = Digraph(300, tuple((i, (i + 1) % 300) for i in range(300)))
        counts = [
            partial(count_nl_group_flows, d, cyclic(2)),
            partial(count_nl_integer_kflows, d, 2),
            partial(kernel_nullity, incidence_matrix(d), d.m),
            partial(fit_integer_flow_polynomial, d, range(2, 5)),
            partial(fit_integer_flow_polynomial_matroid, TUMatrix.from_digraph(d), range(2, 5)),
        ]
        for count in counts:
            with pytest.raises(BudgetExceededError, match="support masks of 300 columns exceed 62 bits"):
                count()
        path = tmp_path / "c300.tu"
        path.write_text(write_matrix(TUMatrix.from_digraph(d)))
        for k_range in ([], ["--k-range", "2,3,4"]):
            assert cli.main(["matroid", "poly-fit", "--matrix", str(path), *k_range]) == 1
            assert capsys.readouterr().err == "error: budget: support masks of 300 columns exceed 62 bits\n"


class TestPreparedKernel:
    # oracles._cotree gives one cached, read-only record per input (per
    # digraph, and per row tuple), which every count of it reads, and the
    # walks take small digit grids' coordinate values from one cache.
    GROUPS = [cyclic(1), cyclic(2), cyclic(3), cyclic(4), AbelianGroup((2, 2))]
    ONE_SLOT = ("_kernel", "_digraph_kernel", "_dijoin_table", "_arc_components")

    def test_one_slot_per_input_and_read_only(self, cycle3):
        for name in self.ONE_SLOT:
            assert getattr(oracles, name).cache_info().maxsize == 1, name
            getattr(oracles, name).cache_clear()  # no earlier test's input
        kernel = oracles._cotree(cycle3, 3)
        assert oracles._cotree(cycle3, 3) is kernel
        assert oracles._cotree(incidence_matrix(cycle3), 3) is kernel
        assert oracles._cotree(TUMatrix.from_digraph(cycle3).rows, 3) is kernel
        non_tu = oracles._cotree(((1, 1), (1, -1)), 2)
        for record in (kernel, non_tu, non_tu.checked):
            for a in (record.expr, record.pivot_bits, record.free_bits):
                assert a.dtype == np.int64 and not a.flags.writeable
            assert record.expr.tolist() == list(map(list, record.exact))
            assert record.pivot_bits.tolist() == [1 << c for c in record.pivots]
            assert record.free_bits.tolist() == [1 << c for c in record.free]
            assert record.top == max((abs(x) for row in record.exact for x in row), default=0)
        pivots, free, expr, denom, unimodular = oracles._cotree_expression(((1, 1, 0), (0, 1, 1)), 3)
        record = oracles._cotree(((1, 1, 0), (0, 1, 1)), 3)
        assert (record.pivots, record.free, record.exact, record.denom, record.unimodular) == (
            pivots, free, expr, denom, unimodular
        )
        assert kernel.checked is None and non_tu.checked.pivots == []
        assert non_tu.checked.exact == ((1, 1), (1, -1)) and list(non_tu.checked.free) == [0, 1]
        with pytest.raises(ValueError):
            kernel.free_bits[0] = 0

    def test_arrays_left_out_where_they_do_not_fit(self):
        # The Farkas certificates read the exact ints at any width; the
        # bits of a 70-column matrix and an expr entry of 2^63 are not
        # int64, and the walks refuse both before reading them.
        cycle = Digraph(70, tuple((i, (i + 1) % 70) for i in range(70)))
        wide = oracles._kernel(TUMatrix.from_digraph(cycle).rows, 70)
        assert wide.pivot_bits is None and wide.free_bits is None and wide.expr is not None
        assert len(wide.free) == 1
        huge = oracles._prepare([0], [1], [[1 << 63]])
        assert huge.expr is None and huge.top == 1 << 63
        message = f"cotree sums of 2 values times 1*{1 << 63} exceed int64"
        with pytest.raises(BudgetExceededError, match=re.escape(message)):
            oracles._walk_matrix("box", 2, huge, 1, 2, 1 << 62)
        with pytest.raises(BudgetExceededError, match=re.escape(message)):
            oracles.nl_group_flow_count(((1, 1 << 63),), 2, cyclic(2), lambda masks: np.ones(len(masks), dtype=bool))

    def test_coordinate_grids_are_read_only_and_cached(self):
        for key, radix in (((4,), 4), ((2, 2), 4), ((), 1), (5, 5)):
            grid = oracles._coord_grid(key, 3)
            assert oracles._coord_grid(key, 3) is grid
            values, nonzero, height = grid
            assert all(not a.flags.writeable and a.dtype == np.int64 for a in grid)
            assert values.shape == (len(key) if isinstance(key, tuple) else 1, 3, radix**3)
            assert nonzero.shape == (3, radix**3) and height.shape == (radix**3,)
        values, nonzero, height = oracles._coord_grid(5, 2)
        points = [tuple(p) for p in product(range(-2, 3), repeat=2)]
        assert list(map(tuple, values[0].T)) == points
        assert height.tolist() == [max(map(abs, p)) for p in points]
        assert list(map(tuple, nonzero.T)) == [tuple(int(x != 0) for x in p) for p in points]
        # Z2 x Z2 element v has residues (v // 2, v % 2).
        values, nonzero, _ = oracles._coord_grid((2, 2), 1)
        assert values[:, 0].T.tolist() == [[0, 0], [0, 1], [1, 0], [1, 1]] and nonzero.tolist() == [[0, 1, 1, 1]]
        assert oracles._coord_grid.cache_info().maxsize >= 64

    @pytest.mark.parametrize("chunk, fold_rows", [(8, 1 << 62), (1 << 18, 16), (64, 1 << 10), (1 << 18, 1 << 10)])
    def test_no_cached_coordinate_grid_exceeds_a_batch_or_the_fold(self, monkeypatch, built, chunk, fold_rows):
        # A fresh cache records each grid it builds: none has more than
        # min(_FOLD_ROWS, _CHUNK) columns, and the counts are unchanged.
        monkeypatch.setattr(oracles, "_CHUNK", chunk)
        monkeypatch.setattr(oracles, "_FOLD_ROWS", fold_rows)
        digon, multi = Digraph(2, ((0, 1), (1, 0))), Digraph(2, ((0, 1),) * 4 + ((1, 0),) * 3)
        for d in (digon, multi, Digraph(3, ((0, 1), (1, 2), (2, 0), (0, 2), (2, 0)))):
            inc = incidence_matrix(d)
            for g in (cyclic(3), AbelianGroup((2, 2))):
                dense = dense_group_flow_count(inc, d.m, g, partial(_support_cyclic, d))
                assert count_nl_group_flows(d, g) == dense, (d, g.spec())
            assert count_nl_integer_kflows(d, 2) == count_nl_integer_kflows_naive(d, 2), d
        assert built and max(built) <= min(chunk, fold_rows)

    def test_group_counts_of_a_digraph_share_one_elimination_and_one_table(self, monkeypatch):
        # A sweep job: five group counts of one digraph, then its integer
        # counts.  One int_rref and one dijoin table serve them all.
        d = Digraph(4, ((0, 1), (1, 2), (2, 0), (0, 2), (2, 3), (3, 0)))
        rrefs, tables = [], []
        elim = oracles.int_rref
        build = oracles._dijoin_table.__wrapped__
        monkeypatch.setattr(oracles, "int_rref", lambda mat: rrefs.append(mat) or elim(mat))
        monkeypatch.setattr(oracles, "_dijoin_table", lru_cache(maxsize=1)(lambda d: tables.append(d) or build(d)))
        for name in ("_kernel", "_digraph_kernel"):
            getattr(oracles, name).cache_clear()
        counts = [count_nl_group_flows(d, g) for g in self.GROUPS]
        ints = [count_nl_integer_kflows(d, k) for k in (2, 3)]
        assert len(rrefs) == 1 and tables == [d]
        inc = incidence_matrix(d)
        assert counts == [dense_group_flow_count(inc, d.m, g, partial(_support_cyclic, d)) for g in self.GROUPS]
        assert ints == [count_nl_integer_kflows_naive(d, k) for k in (2, 3)]

    def test_catalog_counts_equal_references_with_inputs_interleaved(self, catalog_full):
        # Every catalog digraph, counted as a sweep job counts it, and
        # between its counts the previous digraph's matrix, so that each
        # one-slot cache changes hands: no count reads another input's
        # kernel, table or grid.
        prev = None
        for i, d in enumerate(catalog_full):
            inc = incidence_matrix(d)
            for g in self.GROUPS[1:]:
                assert count_nl_group_flows(d, g) == dense_group_flow_count(
                    inc, d.m, g, partial(_support_cyclic, d)
                ), (d, g.spec())
            if prev is not None:
                g = self.GROUPS[1 + i % 4]
                want = count_nl_group_flows(prev, g)
                assert count_nl_group_flows_matroid(TUMatrix.from_digraph(prev), g) == want, (prev, g.spec())
            assert count_nl_integer_kflows(d, 2) == count_nl_integer_kflows_naive(d, 2), d
            prev = d


class TestWalkRefusals:
    # oracles._walk_matrix runs every refusal of a kernel walk, in order,
    # before anything is allocated.  Each is tried at its bound and just
    # inside it, where the next refusal, if any, fires instead.
    LOOPS3 = Digraph(1, ((0, 0),) * 3)  # nullity 3: 3^3 points at |G| = 3 or k = 2
    NON_TU = TUMatrix(((1, 1, 0), (1, -1, 1)))  # pivot block of determinant -2
    BIG = 1 << 200  # a budget that admits every box and histogram below

    @pytest.mark.parametrize(
        "count, box",
        [
            (partial(count_nl_group_flows, LOOPS3, cyclic(3)), "|G|^nullity"),
            (partial(count_nl_integer_kflows, LOOPS3, 2), "(2k-1)^nullity"),
            (partial(count_nl_group_flows_matroid, NON_TU, cyclic(3)), "|G|^m"),
        ],
    )
    def test_box_over_the_budget(self, count, box):
        with pytest.raises(BudgetExceededError, match=re.escape(f"{box} = 3^3 exceeds budget 26")):
            count(budget=26)
        assert count(budget=27) == count() > 0

    @pytest.mark.parametrize(
        "radix, nullity, top, kmax, ncols, budget, message",
        [
            (3, 2, 1, 1, 0, 8, "box = 3^2 exceeds budget 8"),
            (3, 2, 1, 1, 0, 9, None),
            (2, 1, 1, 2, 3, 15, "support histogram of 2*2^3 cells exceeds budget 15"),
            (2, 1, 1, 2, 3, 16, None),
            (2, 1, 1, 2, 62, BIG, "support histogram of 2*2^62 cells exceeds int64 indices"),
            (2, 1, 1, (1 << 63) - 1, 0, BIG, f"support histogram of {(1 << 63) - 1}*2^0 cells exceeds 2^63 bytes"),
            (2, 1, 1, 1, 60, BIG, "support histogram of 1*2^60 cells exceeds 2^63 bytes"),
            (2, 1, 1, 1, 59, BIG, None),
            (2, 1, 1 << 62, 1, 0, BIG, f"cotree sums of 2 values times 1*{1 << 62} exceed int64"),
            (2, 1, (1 << 62) - 1, 1, 0, BIG, None),
            (2, 63, 1, 1, 0, BIG, "a box of 2^63 points exceeds int64 indices"),
            (2, 62, 1, 1, 0, BIG, None),
        ],
    )
    def test_each_refusal_at_its_bound(self, radix, nullity, top, kmax, ncols, budget, message):
        # The walk reads nullity and top from a prepared record of expr.
        expr = [[top] * nullity]
        record = oracles._prepare([], range(nullity), expr)
        assert (len(record.free), record.top) == (nullity, top if nullity else 0)
        walk = partial(oracles._walk_matrix, "box", radix, record, kmax, ncols, budget)
        if message is None:
            matrix = walk()
            assert matrix.dtype == np.int64 and matrix.tolist() == expr
        else:
            with pytest.raises(BudgetExceededError, match=f"^{re.escape(message)}$"):
                walk()


class TestFoldedWalk:
    # Rows of the low block with equal partial sums, support and height
    # are merged into one weighted row (oracles._fold).  The histograms
    # and counts must equal those of the walk over every point.
    PLAIN = 1 << 62  # a _FOLD_ROWS no box reaches: no merge at all

    def test_catalog_at_k_up_to_nullity_plus_4(self, monkeypatch, catalog_full, merges):
        # The sizes the fits use, k = nullity + 4 (k = 3 at nullity 6,
        # where the plain walk of k = 10 would take 19^6 points), against
        # the plain walk; digraphs with m <= 4 also against the full box.
        folded = []
        for d in catalog_full:
            inc = incidence_matrix(d)
            nullity = kernel_nullity(inc, d.m)
            k = nullity + 4 if nullity < 6 else 3
            hist = kernel_height_histogram(inc, d.m, k)
            assert hist.dtype == np.int64
            if d.m <= 4:
                assert (hist == full_box_histogram(inc, d.m, k)).all(), (d, k)
            folded.append((inc, d, k, hist))
        assert len(merges) > 1200 and all(states < rows for rows, states in merges)
        monkeypatch.setattr(oracles, "_FOLD_ROWS", self.PLAIN)
        for inc, d, k, hist in folded:
            assert (kernel_height_histogram(inc, d.m, k) == hist).all(), (d, k)

    def test_forced_merges_equal_full_box_and_dense(self, monkeypatch, catalog_full, merges):
        # With no row threshold a merge fires wherever the state-space
        # bound is below the rows, on small boxes too.
        monkeypatch.setattr(oracles, "_FOLD_ROWS", 0)
        for d in catalog_full[::3]:
            inc = incidence_matrix(d)
            for k in (1, 2, 3):
                assert (kernel_height_histogram(inc, d.m, k) == full_box_histogram(inc, d.m, k)).all(), (d, k)
            for g in (cyclic(3), cyclic(4), AbelianGroup((2, 2))):
                dense = dense_group_flow_count(inc, d.m, g, partial(_support_cyclic, d))
                assert count_nl_group_flows(d, g) == dense, (d, g.spec())
        assert len(merges) > 1000

    def test_divisibility_filter_after_a_merge(self, monkeypatch, merges):
        # 2 x_0 = -(x_1 + x_2 + x_3 + x_4): denom 2, and merged rows are
        # still tested for divisibility when their histogram cell is taken.
        # The leading coordinate is a high one, and from k = 7 the low
        # block of the other 3 outgrows its state-space bound.
        rows = ((2, 1, 1, 1, 1),)
        assert oracles._cotree_expression(rows, 5)[3] == 2
        monkeypatch.setattr(oracles, "_FOLD_ROWS", 0)
        for k in range(1, 9):
            assert (kernel_height_histogram(rows, 5, k) == full_box_histogram(rows, 5, k)).all(), k
        assert merges

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 3), st.integers(0, 6), st.data())
    def test_forced_merges_on_random_matrices(self, p, q, data):
        # Entries in -2..2 give non-TU matrices, with denominators above 1
        # and pivot blocks without the determinant certificate.
        rows = tuple(tuple(data.draw(st.integers(-2, 2)) for _ in range(q)) for _ in range(p))
        k = data.draw(st.integers(1, 3))
        g = data.draw(st.sampled_from([cyclic(2), cyclic(3), cyclic(4), AbelianGroup((2, 2))]))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracles, "_FOLD_ROWS", 0)
            hist = kernel_height_histogram(rows, q, k)
            count = oracles.nl_group_flow_count(rows, q, g, lambda masks: np.ones(len(masks), dtype=bool))
        assert hist.dtype == np.int64
        assert (hist == full_box_histogram(rows, q, k)).all()
        assert count == dense_group_flow_count(rows, q, g, lambda mask: True)

    def test_rank_one_multi_arc_digraph_merges_a_group_walk(self, merges):
        # Nullity 6: Z4 walks 4^6 = 4096 rows, while one basic row of 19
        # possible partial sums times 2^6 supports bounds 1216 states.
        d = Digraph(2, ((0, 1),) * 4 + ((1, 0),) * 3)
        inc = incidence_matrix(d)
        for g in (cyclic(4), AbelianGroup((2, 2))):
            dense = dense_group_flow_count(inc, d.m, g, partial(_support_cyclic, d))
            assert count_nl_group_flows(d, g) == dense, g.spec()
        assert merges
        for k in (2, 3):
            assert count_nl_integer_kflows(d, k) == count_nl_integer_kflows_naive(d, k), k


class TestDigitGridBaseCase:
    # Every block takes its points from one source, oracles._points: views
    # of a cached grid for a box of at most min(_FOLD_ROWS, _CHUNK) points,
    # else computed from the point indices.  A box of at most _FOLD_ROWS
    # points is one block.
    @staticmethod
    def keys(radix):
        # The integer radix and the groups of that order.
        return [radix, (radix,) if radix > 1 else (), *([(2, 2)] if radix == 4 else [])]

    @staticmethod
    def check_points(key, n, lo, hi):
        # Points lo .. hi-1 are _coords of the digits in product order;
        # where the box is small enough, read-only views of the cached grid,
        # and elsewhere arrays of their own.
        radix = prod(key) if isinstance(key, tuple) else key
        digits = np.array(list(product(range(radix), repeat=n)), dtype=np.int64).reshape(radix**n, n).T
        got = oracles._points(key, n, lo, hi)
        for a, want in zip(got, oracles._coords(key, digits)):
            assert a.dtype == np.int64 and np.array_equal(a, want[..., lo:hi]), (key, n, lo, hi)
        if radix**n <= min(oracles._FOLD_ROWS, oracles._CHUNK):
            for a, grid in zip(got, oracles._coord_grid(key, n)):
                assert not a.flags.writeable and (a.size == 0 or np.shares_memory(a, grid))
        else:
            assert all(a.flags.writeable for a in got), (key, n, lo, hi)

    @pytest.mark.parametrize("radix, n", [(1, 0), (1, 3), (2, 0), (2, 3), (3, 1), (4, 3), (5, 2)])
    def test_digits_list_the_box_in_order_read_only(self, built, radix, n):
        for key in self.keys(radix):
            self.check_points(key, n, 0, radix**n)
        assert built

    @staticmethod
    def spy_batches(monkeypatch):
        # The sizes of the batches the counters add; _product and _merge
        # must not run.
        def refuse(*args):
            raise AssertionError("a small box was built from products or merged")

        batches = []
        accumulate = oracles._accumulate

        def spy(hist, index, *args, **kwargs):
            batches.append(len(index))
            accumulate(hist, index, *args, **kwargs)

        monkeypatch.setattr(oracles, "_product", refuse)
        monkeypatch.setattr(oracles, "_merge", refuse)
        monkeypatch.setattr(oracles, "_accumulate", spy)
        return batches

    def test_small_boxes_are_one_batch(self, monkeypatch, catalog_small):
        # Every group and integer box of a digraph with m <= 4 at |G| <= 4
        # and k <= 3 has at most 4^4 points: one batch, one product.
        batches = self.spy_batches(monkeypatch)
        for d in catalog_small:
            if d.m > 4:
                continue
            nullity = kernel_nullity(incidence_matrix(d), d.m)
            for g in (cyclic(3), cyclic(4), AbelianGroup((2, 2))):
                del batches[:]
                assert count_nl_group_flows(d, g) == count_nl_group_flows_naive(
                    TUMatrix.from_digraph(d), g, partial(_support_cyclic, d)
                ), (d, g.spec())
                assert batches == [g.order**nullity], (d, g.spec())
            for k in (2, 3):
                del batches[:]
                assert count_nl_integer_kflows(d, k) == count_nl_integer_kflows_naive(d, k), (d, k)
                half = (2 * k - 1) ** nullity // 2
                assert batches == [half + 1], (d, k)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_half_of_an_odd_small_box_is_a_grid_prefix(self, monkeypatch, catalog_small, k):
        # (2k-1)^nullity is odd: the walk adds the points up to and
        # including the centre, the zero flow, a prefix of the digit grid;
        # those below it weigh 2 and the centre 1.
        batches = self.spy_batches(monkeypatch)
        for d in catalog_small[::4]:
            inc = incidence_matrix(d)
            if (2 * k - 1) ** kernel_nullity(inc, d.m) > oracles._FOLD_ROWS:
                continue
            assert (kernel_height_histogram(inc, d.m, k) == full_box_histogram(inc, d.m, k)).all(), (d, k)
        assert batches

    def test_no_cached_grid_exceeds_a_batch(self, monkeypatch, built):
        # Without merges and with small batches, a nullity-6 walk is high
        # rows alone, built per batch: no grid, cached or computed, is
        # wider than _CHUNK columns, and none of its 729 points is built
        # whole.
        widths = []
        points = oracles._points

        def spy(*args):
            got = points(*args)
            widths.append(got[1].shape[1])
            return got

        monkeypatch.setattr(oracles, "_points", spy)
        monkeypatch.setattr(oracles, "_FOLD_ROWS", 1 << 62)
        monkeypatch.setattr(oracles, "_CHUNK", 8)
        d = Digraph(2, ((0, 1),) * 4 + ((1, 0),) * 3)
        inc = incidence_matrix(d)
        for g in (cyclic(2), cyclic(3)):
            del widths[:]
            dense = dense_group_flow_count(inc, d.m, g, partial(_support_cyclic, d))
            assert count_nl_group_flows(d, g) == dense, g.spec()
            assert widths and max(widths) <= 8, g.spec()
        del widths[:]
        assert (kernel_height_histogram(inc, d.m, 2) == full_box_histogram(inc, d.m, 2)).all()
        assert widths and max(widths) <= 8
        assert max(built, default=0) <= 8

    @pytest.mark.parametrize("chunk", [1 << 18, 0])
    @pytest.mark.parametrize(
        "radix, n, lo, hi",
        [(1, 0, 0, 1), (2, 0, 0, 1), (5, 0, 1, 1), (3, 3, 0, 27), (3, 3, 5, 27), (4, 2, 3, 9), (2, 4, 15, 16), (7, 1, 2, 7)],
    )
    def test_grid_lists_a_range_of_the_box(self, monkeypatch, built, chunk, radix, n, lo, hi):
        # _CHUNK above and below the box, _FOLD_ROWS at its size and just
        # under it: cached only with both at or above it, and either way
        # the points lo .. hi-1 of the box.
        monkeypatch.setattr(oracles, "_CHUNK", chunk)
        for fold_rows in (radix**n - 1, radix**n):
            monkeypatch.setattr(oracles, "_FOLD_ROWS", fold_rows)
            for key in self.keys(radix):
                self.check_points(key, n, lo, hi)
        assert bool(built) is (chunk > 0)

    def test_grid_of_a_wide_box_ends_at_its_last_point(self):
        # 3*10^9 values per coordinate: 2^62 < radix^2 < 2^63 points.
        radix = 3 * 10**9
        last = [[radix - 1] * 3, [radix - 3, radix - 2, radix - 1]]
        values, _, height = oracles._points(radix, 2, radix**2 - 3, radix**2)
        assert (values[0] + radix // 2).tolist() == last
        assert height.tolist() == [radix - 1 - radix // 2] * 3
        assert oracles._points((radix,), 2, radix**2 - 3, radix**2)[0][0].tolist() == last


class TestMonotoneSupportSkip:
    # matroids.cyclic_supports decides a mask from an accepted subset or a
    # rejected superset; it must agree with asking the predicate about
    # every mask, and ask it no more often.
    @staticmethod
    def compare(counts, predicate):
        calls = []

        def counting(mask):
            calls.append(mask)
            return predicate(mask)

        masks = np.flatnonzero(counts)
        got = cyclic_supports(masks, counting)
        assert got.dtype == bool
        assert got.tolist() == [predicate(mask) for mask in masks.tolist()]
        assert len(set(calls)) == len(calls) <= len(masks)
        return len(calls), len(masks)

    def test_catalog_equals_plain_filter(self, catalog_small):
        asked = plain = 0
        for d in catalog_small:
            supports = kernel_height_histogram(incidence_matrix(d), d.m, 3).sum(axis=1)
            predicates = (
                partial(_support_cyclic, d),
                partial(_support_contraction_cyclic, TUMatrix.from_digraph(d)),
            )
            for counts in (supports, np.ones(1 << d.m, dtype=np.int64)):
                for predicate in predicates:
                    a, p = self.compare(counts, predicate)
                    asked += a
                    plain += p
        assert asked < plain

    def test_superset_of_accepted_mask_needs_no_call(self):
        calls = []

        def has_bit_2(mask):
            calls.append(mask)
            return bool(mask & 4)

        masks = np.array([1, 4, 7], dtype=np.int64)
        assert cyclic_supports(masks, has_bit_2).tolist() == [False, True, True]
        assert calls == [1, 4]

    def test_subset_of_rejected_mask_needs_no_call(self):
        # Levels are walked bottom, top, then inward: 1, then 7, then 3.
        calls = []

        def reject(mask):
            calls.append(mask)
            return False

        masks = np.array([1, 3, 7], dtype=np.int64)
        assert cyclic_supports(masks, reject).tolist() == [False, False, False]
        assert calls == [1, 7]


@st.composite
def digraphs_in_parts(draw, max_n=10, max_m=16):
    """Digraphs whose arcs stay inside up to three vertex classes (v mod
    parts), so they may have several weak components, with loops,
    parallel arcs and isolated vertices.
    """
    n = draw(st.integers(1, max_n))
    parts = draw(st.integers(1, 3))
    tails = draw(st.lists(st.integers(0, n - 1), max_size=max_m))
    heads = [draw(st.sampled_from(range(t % parts, n, parts))) for t in tails]
    return Digraph(n, tuple(zip(tails, heads)))


class TestDijoinTable:
    # The digraph support filter accepts a support exactly when it meets
    # every dicut, whether from the dijoin table or by reachability.  The
    # oracles are the SCC test of the contraction (_support_cyclic, that is
    # cuts.is_dijoin) and, apart from it, the dicuts of cuts.enumerate_dicuts.
    def test_catalog_every_mask(self, catalog_full):
        for d in catalog_full:
            want = [_support_cyclic(d, mask) for mask in range(1 << d.m)]
            table = oracles._dijoin_table(d)
            assert table.shape == (1 << d.m,) and table.dtype == bool
            assert table.tolist() == want, d
            assert oracles._reach_dijoins(d, np.arange(1 << d.m)).tolist() == want, d

    @settings(max_examples=80, deadline=None)
    @given(digraphs_in_parts(), st.randoms(use_true_random=False))
    def test_equals_scc_oracle_and_dicut_listing(self, d, rng):
        table = oracles._dijoin_table(d)
        masks = range(1 << d.m) if d.m <= 10 else [rng.getrandbits(d.m) for _ in range(512)]
        reach = oracles._reach_dijoins(d, np.array(masks, dtype=np.int64))
        dicuts = enumerate_dicuts(d)
        for mask, by_reach in zip(masks, reach.tolist()):
            want = _support_cyclic(d, mask)
            assert bool(table[mask]) == by_reach == want, (d, mask)
            assert all(mask & cut for cut in dicuts) == want, (d, mask)

    def test_several_components_loops_and_isolated_vertices(self):
        # A 2-cycle, a one-way arc with a loop, and an isolated vertex:
        # the only dicut is {2}, so the dijoins are the masks with bit 2.
        d = Digraph(5, ((0, 1), (1, 0), (2, 3), (3, 3)))
        want = [bool(mask & 4) for mask in range(16)]
        assert oracles._dijoin_table(d).tolist() == want
        assert oracles._reach_dijoins(d, np.arange(16)).tolist() == want

    def test_read_only_and_shared_by_the_counts(self, monkeypatch, k3_acyclic):
        built = []
        build = oracles._dijoin_table.__wrapped__

        def spy(d):
            built.append(d)
            return build(d)

        # One slot, as in the module: the counts of one digraph run back to back.
        assert oracles._dijoin_table.cache_info().maxsize == 1
        monkeypatch.setattr(oracles, "_dijoin_table", lru_cache(maxsize=1)(spy))
        for g in (cyclic(2), cyclic(3), AbelianGroup((2, 2))):
            count_nl_group_flows(k3_acyclic, g)
        count_nl_integer_kflows(k3_acyclic, 3)
        fit_integer_flow_polynomial(k3_acyclic, range(1, 4))
        assert built == [k3_acyclic]
        with pytest.raises(ValueError):
            oracles._dijoin_table(k3_acyclic)[0] = True

    @staticmethod
    def refuse(d):
        raise AssertionError("the dijoin table was built")

    def test_refused_before_the_table_is_built(self, monkeypatch, cycle3):
        # The mask-width and histogram-budget checks come first: a 63-arc
        # path, and a 20-arc path (nullity 0, one box point) whose 2^20
        # histogram cells exceed the budget, never reach the filter.
        monkeypatch.setattr(oracles, "_dijoin_table", self.refuse)
        monkeypatch.setattr(oracles, "_reach_dijoins", self.refuse)
        wide = Digraph(64, tuple((i, i + 1) for i in range(63)))
        path = Digraph(21, wide.arcs[:20])
        counts = [
            partial(count_nl_group_flows, wide, cyclic(2)),
            partial(count_nl_integer_kflows, wide, 2),
            partial(fit_integer_flow_polynomial, wide, range(1, 3)),
            partial(count_nl_group_flows, path, cyclic(2), budget=(1 << 20) - 1),
            partial(count_nl_integer_kflows, path, 2, budget=(2 << 20) - 1),
            partial(fit_integer_flow_polynomial, path, range(1, 3), budget=(2 << 20) - 1),
            partial(count_nl_group_flows, cycle3, cyclic(3), budget=7),
        ]
        for count in counts:
            with pytest.raises(BudgetExceededError):
                count()
        # At the histogram's 2^3 cells the 3-cycle's table is built.
        with pytest.raises(AssertionError, match="dijoin table"):
            count_nl_group_flows(cycle3, cyclic(3), budget=8)

    def test_few_supports_are_tested_without_the_table(self, monkeypatch):
        # A long path, cycle or out-star reaches one or two supports; its
        # table would cost m * 2^m and more, so it is never built.
        monkeypatch.setattr(oracles, "_dijoin_table", self.refuse)
        path = Digraph(21, tuple((i, i + 1) for i in range(20)))
        cycle = Digraph(20, tuple((i, (i + 1) % 20) for i in range(20)))
        star = Digraph(21, tuple((0, i) for i in range(1, 21)))
        for d, flows in ((path, 0), (cycle, 1), (star, 0)):
            assert count_nl_group_flows(d, cyclic(3)) == 3 * flows
            assert count_nl_integer_kflows(d, 2) == 3 * flows
            assert fit_integer_flow_polynomial(d, range(1, 4)) == IntPolynomial({1: 2 * flows, 0: -flows})

    def test_table_or_reachability_at_the_boundary(self, monkeypatch):
        # A 12-arc path's table costs 12 * 2^13 + 12 * 2^12 <= _CHUNK: it is
        # built even for one support.  A 13-arc path's costs 13 * 2^14 +
        # 13 * 2^13 = 319488, and testing a mask 14 * (14 + 13) = 378: 845
        # masks (319410) are tested, 846 (319788) read the table.
        tables = []
        build = oracles._dijoin_table.__wrapped__
        monkeypatch.setattr(oracles, "_dijoin_table", lambda d: tables.append(d.m) or build(d))
        for m, nonzero, table in ((12, 1, True), (13, 845, False), (13, 846, True)):
            d = Digraph(m + 1, tuple((i, i + 1) for i in range(m)))
            masks = np.arange((1 << m) - nonzero, 1 << m)
            tables.clear()
            accepted = oracles._dijoins(d, masks)
            assert tables == ([m] if table else []), (m, nonzero)
            # Only the full mask meets every dicut of a path.
            assert accepted.dtype == bool and masks[accepted].tolist() == [d.all_arcs]


class TestAcyclicColorings:
    def test_cycle3_k2(self, cycle3):
        assert count_acyclic_colorings(cycle3, 2) == 6

    def test_k3_k2(self, k3_acyclic):
        assert count_acyclic_colorings(k3_acyclic, 2) == 8

    def test_k1_iff_acyclic(self, catalog_small):
        for d in catalog_small:
            if any(t == h for t, h in d.arcs):
                continue
            from nlflow import is_acyclic

            assert count_acyclic_colorings(d, 1) == (1 if is_acyclic(d) else 0)

    def test_loop_rejected(self):
        with pytest.raises(ValueError):
            count_acyclic_colorings(Digraph(1, ((0, 0),)), 2)

    def test_catalog_matches_naive(self, catalog_full):
        for d in catalog_full:
            if any(t == h for t, h in d.arcs):
                continue
            for k in range(5):
                assert count_acyclic_colorings(d, k) == count_acyclic_colorings_naive(d, k), (d, k)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 7), st.data())
    def test_random_digraphs_match_naive(self, n, data):
        pairs = [(t, h) for t in range(n) for h in range(n) if t != h]
        arcs = data.draw(st.lists(st.sampled_from(pairs), max_size=14)) if pairs else []
        d = Digraph(n, tuple(arcs))
        for k in range(5):
            assert count_acyclic_colorings(d, k) == count_acyclic_colorings_naive(d, k)

    @pytest.mark.parametrize("k", range(6))
    @pytest.mark.parametrize("n", [0, 1, 4, 6])
    def test_budget_charges_min_k_3_to_the_n(self, n, k):
        d = Digraph(n, tuple((i, (i + 1) % n) for i in range(n)) if n > 1 else ())
        charge = min(k, 3) ** n
        assert charge <= k**n  # every (d, k) the k^n charge admitted still is
        assert count_acyclic_colorings(d, k, budget=charge) == count_acyclic_colorings_naive(d, k)
        with pytest.raises(BudgetExceededError):
            count_acyclic_colorings(d, k, budget=charge - 1)

    def test_k1_needs_no_subset_table(self):
        path = Digraph(60, tuple((i, i + 1) for i in range(59)))
        assert count_acyclic_colorings(path, 1, budget=1) == 1
        cycle = Digraph(60, path.arcs + ((59, 0),))
        assert count_acyclic_colorings(cycle, 1, budget=1) == 0

    def test_subset_table_memory_at_n_20(self):
        # The sinks of 2^20 vertex subsets take 4 bytes each (4 MB) beside
        # the 1 MB acyclic table; as Python ints in a list they took 41 MB.
        # A directed 20-cycle is acyclic in every colouring but the two
        # constant ones.
        n = 20
        d = Digraph(n, tuple((i, (i + 1) % n) for i in range(n)))
        tracemalloc.start()
        try:
            assert count_acyclic_colorings(d, 2) == 2**n - 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20, peak


class TestEquivalence:
    def test_k3_k2(self, k3_acyclic):
        assert check_equivalence_theorem(k3_acyclic, 2)

    def test_single_arc_k3(self, single_arc):
        assert check_equivalence_theorem(single_arc, 3)

    def test_positive_phi_implies_integer_flow(self, catalog_small):
        from nlflow import nl_flow_polynomial

        for d in catalog_small:
            phi = nl_flow_polynomial(d)
            for k in (2, 3):
                assert (phi(k) > 0) == (count_nl_integer_kflows(d, k) > 0), (d, k)


class TestPolynomialityFit:
    def test_cycle3(self, cycle3):
        assert fit_integer_flow_polynomial(cycle3, [2, 3, 4]) == IntPolynomial(
            {1: 2, 0: -1}
        )

    def test_k3(self, k3_acyclic):
        assert fit_integer_flow_polynomial(k3_acyclic, [2, 3, 4]) == IntPolynomial(
            {1: 2, 0: -2}
        )

    def test_arcless(self):
        d = Digraph(2, ())
        assert fit_integer_flow_polynomial(d, [2, 3]) == IntPolynomial.one()

    def test_insufficient_points(self, cycle3):
        with pytest.raises(ValueError, match="degree bound 1 plus a held-out witness"):
            fit_integer_flow_polynomial(cycle3, [2, 3][:1])

    def test_degree_bound_is_the_nullity(self, catalog_small):
        for d in catalog_small:
            assert kernel_nullity(incidence_matrix(d), d.m) == d.m - rank(d, d.all_arcs), d

    def test_one_pass_fit_equals_counts(self, catalog_small):
        for d in catalog_small:
            bound = d.m - rank(d, d.all_arcs)
            if bound > 4:
                continue
            ks = list(range(2, bound + 4))
            poly = fit_integer_flow_polynomial(d, ks)
            for k in ks:
                assert poly(k) == count_nl_integer_kflows(d, k), (d, k)

    def test_matroid_fit_equals_digraph_fit(self, catalog_small):
        for d in catalog_small[::9]:
            bound = d.m - rank(d, d.all_arcs)
            if bound > 4:
                continue
            ks = list(range(2, bound + 4))
            assert fit_integer_flow_polynomial_matroid(
                TUMatrix.from_digraph(d), ks
            ) == fit_integer_flow_polynomial(d, ks), d

    def test_rational_coefficients_possible(self):
        # Four parallel arcs: the count is integer-valued but the cubic
        # interpolant has non-integer coefficients.
        d = Digraph(2, ((0, 1), (0, 1), (0, 1), (0, 1)))
        poly = fit_integer_flow_polynomial(d, [2, 3, 4, 5, 6, 7])
        assert not isinstance(poly, IntPolynomial)
        for k in range(2, 8):
            assert poly(k) == count_nl_integer_kflows(d, k)


def test_totally_cyclic_digraphs_have_positive_counts(catalog_small):
    for d in catalog_small:
        if is_totally_cyclic(d) and d.m <= 4:
            assert count_nl_group_flows(d, cyclic(2)) >= 1
            assert count_nl_integer_kflows(d, 2) >= 1
