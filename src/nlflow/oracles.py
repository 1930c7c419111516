"""Exhaustive ground-truth counters: group flows, integer flows, acyclic
colorings, and polynomiality fits.

These stay independent of the Moebius-inversion formulas they validate.
A digraph's NL-flows are those of its incidence matrix, so every count
is taken over an integer matrix and a support filter, which maps the
reached support masks, an int64 array, to boolean flags aligned with it
once the count exists: accepted or not.
The digraph path passes the incidence matrix and a dijoin filter: a
support's contraction is totally cyclic exactly when the support meets
every dicut, so one boolean array over the 2^m masks, built from its own
brute-force dicuts, is indexed by the reached masks.  Where that table
costs more than testing the few reached masks by reachability, as on a
long path or cycle, those masks are tested instead.  The table
is closed downward by _hitting_table.  The matroid path (nlflow.matroids)
passes a TU matrix and its own support filter.  There is one kernel
walker, over the free (cotree) coordinates of the kernel, under one group
counter and one integer counter, and one polynomial fit:

- nl_group_flow_count walks G^nullity, exact when a pivot block has
  determinant +-1, as in every TU matrix; other matrices walk G^ncols.
- nl_integer_kflow_counts walks half of {-(K-1), ..., K-1}^nullity into
  a histogram by support and max |x_j|: x and -x share support and
  height, so the rows of the leading coordinates below the centre count
  twice and the centre row once.  The count for every k <= K is a
  cumulative sum of it.
- fit_nl_integer_polynomial interpolates those counts to a polynomial of
  degree at most the kernel nullity, with held-out witnesses.

The walker folds.  A point's histogram cell depends only on its state:
the partial sums of the basic coordinates (or checked rows), the support
bits and the height.  So the trailing coordinates are multiplied in one
at a time, and where the states they can reach are fewer than their
points, points of equal state become one row with an exact int64
multiplicity: the 17^4 points of a nullity-5 digraph's low block at k = 9
fold to about a thousand rows.  No merge fires below _FOLD_ROWS rows, so
only a box of more than _FOLD_ROWS points has a low block: its trailing
coordinates (never the leading one in the integer walk), at most _CHUNK
points, whose last ones up to _FOLD_ROWS points seed the fold.  Every
block is one integer product expr @ x over the values x of its points,
and the leading (high) coordinates are built per batch from their
indices, so there is one batch loop, and no walker array is wider than
one batch (_CHUNK points) whatever the budget.  Boxes that could hold
more states than points (R10) are walked point by point.  Every batch is
added into one int64 histogram per call.

The walk reads every point from one source, _points: the fold's seed
and axes, each batch of high rows, and the cocircuit table's {-1, 0, 1}^r
seeds in nlflow.matroids.  The values of a box's points, their nonzero
pattern and their heights depend only on the key (the group's factors,
or the integer radix) and the number of coordinates, so those of every
box of at most min(_FOLD_ROWS, _CHUNK) points are cached, read-only
(_coord_grid), and _points gives views of them.  A warm count of a box
that small is one product, one bincount and one filter lookup.

Acyclic colorings are counted apart from the kernel, by a DP over vertex
subsets (count_acyclic_colorings) that shares no code with the coflow
formula it checks.

The counters, and kernel_nullity, which the fit asks first, get the
input's prepared kernel through _cotree: one read-only record per input,
kept per digraph (no incidence matrix is rebuilt) and per row tuple,
holding the pivot and free columns, expr as int64 and as exact ints,
denom, the unimodularity certificate, the pivot and free support bits
and max|expr|, so every count of one input shares one elimination and
one set of arrays.  Each kind of per-input work has one one-slot cache:
_kernel per row tuple, _digraph_kernel per digraph, and, for the dijoin
filter, _arc_components (the components and both work estimates) and
_dijoin_table.  _cotree refuses more than 62 arcs or columns, whose
support masks would not fit in int64, whatever the budget and before any
elimination.  After it one check, _walk_matrix, runs every refusal of
the walk before anything is allocated, on the numbers the record holds:
the points walked (|G|^nullity or |G|^ncols, or (2K-1)^nullity) or the
cells of the support histogram (2^m, or K * 2^m) over the budget, and
walks whose histogram cells, sums or point indices would leave int64, or
whose histogram takes 2^63 bytes or more.  The support filter runs only
after it, so no table of an over-budget input is ever built.  The
digraph filter's work is the cheaper of the table's, at most a few
passes per arc over 2^m bytes, and a reachability test per mask with a
count, so it is bounded by the histogram cells and the points walked
times the digraph's size.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import chain
from math import gcd, prod

import numpy as np

from .digraphs import Digraph, incidence_matrix, is_acyclic, weak_components
from .errors import DEFAULT_BUDGET, BudgetExceededError, WitnessMismatchError
from .groups import AbelianGroup
from .linalg import int_rref
from .polynomials import interpolate_rational

_CHUNK = 1 << 18
_FOLD_ROWS = 1 << 10
MAX_MASK_BITS = 62


@lru_cache(maxsize=1)
def _arc_components(d: Digraph) -> tuple:
    """(parts, table_work, mask_work): the weak components of d that have
    an arc other than a loop, each as its vertex count and the arrays of
    the index, local tail and local head of those arcs, and the work of
    d's dijoin table and that of the reachability test of one mask, as
    _dijoins weighs them.  A loop lies on a directed cycle and in no
    dicut, so it is left out.  One slot: the counts of one digraph run
    back to back.
    """
    labels = weak_components(d)
    size = [0] * (max(labels, default=-1) + 1)
    local = []  # each vertex's index within its component
    for c in labels:
        local.append(size[c])
        size[c] += 1
    arcs = {}
    for j, (t, h) in enumerate(d.arcs):
        if t != h:
            arcs.setdefault(labels[t], []).append((j, local[t], local[h]))
    parts = tuple(
        (size[c], *(np.array(col, dtype=np.int64) for col in zip(*arcs[c]))) for c in sorted(arcs)
    )
    table_work = sum(len(index) << n_c for n_c, index, _, _ in parts) + (d.m << d.m)
    return parts, table_work, sum(n_c * (n_c + len(index)) for n_c, index, _, _ in parts)


@lru_cache(maxsize=1)
def _dijoin_table(d: Digraph) -> np.ndarray:
    """accepted[mask] for every arc bitmask of d: does the support meet
    every dicut?  Exactly then is its contraction totally cyclic, since
    the dicuts of d/S are the dicuts of d that miss S.

    The dicuts are found here, not by cuts.enumerate_dicuts, which phi
    uses, so the counts stay an independent check on phi.  In each weak
    component every vertex set X, 2^(n_c) <= 2^(m_c + 1) of them, is
    tested in numpy for an entering arc; one with none and with a leaving
    arc gives the dicut delta+(X).  _hitting_table then marks the masks
    that miss a dicut; the rest are the dijoins.

    The table is 2^m bytes, an eighth of the group counter's histogram,
    and read-only.  One slot keeps it for the counts of one digraph.
    """

    def dicuts():
        for n_c, index, tails, heads in _arc_components(d)[0]:
            bits = 1 << index
            step = max(1, _CHUNK // len(index))
            for lo in range(0, 1 << n_c, step):
                sets = np.arange(lo, min(lo + step, 1 << n_c), dtype=np.int64)[:, None]
                t_in, h_in = sets >> tails & 1, sets >> heads & 1
                leaving = ((t_in > h_in) * bits).sum(axis=1)
                yield leaving[(leaving != 0) & ~(h_in > t_in).any(axis=1)]

    return _hitting_table(d.m, dicuts())


def _hitting_table(width: int, blockers) -> np.ndarray:
    """hits[mask] for every bitmask of `width` bits: does the mask meet
    every mask of blockers, an iterable of int64 arrays?  A mask inside
    the complement of a blocker misses it, so the complements are marked
    and closed downward by an OR over supersets, one pass per bit; the
    unmarked masks meet them all.  The table is 2^width bytes, read-only.
    """
    full = (1 << width) - 1
    rejected = np.zeros(full + 1, dtype=bool)
    for masks in blockers:
        rejected[masks ^ full] = True
    for j in range(width):
        pairs = rejected.reshape(-1, 2, 1 << j)
        pairs[:, 0] |= pairs[:, 1]
    hits = ~rejected
    hits.flags.writeable = False
    return hits


def _reach_dijoins(d: Digraph, masks: np.ndarray) -> np.ndarray:
    """accepted[i]: does the support masks[i] meet every dicut of d, that
    is, does every arc lie on a directed cycle once the support is
    contracted?  Contracting an arc joins its ends, which for reachability
    is the arc made usable both ways.  So in each component, per mask, the
    row reach[:, v] (the vertices reachable from v, as a bitmask) starts
    at v, its out-neighbours and the tails of its in-arcs in the mask, is
    closed by Warshall's algorithm, one pass per pivot vertex, and every
    arc (t, h) needs t reachable from h.  The masks are taken in blocks of
    at most _CHUNK vertex rows.
    """
    ok = np.ones(len(masks), dtype=bool)
    for n_c, index, tails, heads in _arc_components(d)[0]:
        step = max(1, _CHUNK // n_c)
        for lo in range(0, len(masks), step):
            block = masks[lo : lo + step]
            reach = np.tile(1 << np.arange(n_c, dtype=np.int64), (len(block), 1))
            for j, t, h in zip(index.tolist(), tails.tolist(), heads.tolist()):
                reach[:, t] |= 1 << h
                reach[:, h] |= (block >> j & 1) << t
            for v in range(n_c):
                reach |= np.where(reach & 1 << v != 0, reach[:, v, None], 0)
            ok[lo : lo + step] &= (reach[:, heads] >> tails & 1).all(axis=1)
    return ok


def _dijoins(d: Digraph, masks: np.ndarray) -> np.ndarray:
    """The digraph support filter: accepted[i], does the reached support
    masks[i] meet every dicut of d?

    The dijoin table decides all 2^m masks in one lookup, but its work, a
    test of each vertex set against each arc of its component and a pass
    over its 2^m bytes per arc, does not shrink with the supports that
    have a count.  When it is more than one batch (_CHUNK) and more than
    the reachability test of the reached masks, about n_c * (n_c + m_c)
    per mask and component, those masks are tested instead: on a long
    path or cycle the walk reaches one or two supports.
    """
    _, table_work, mask_work = _arc_components(d)
    if table_work > _CHUNK and len(masks) * mask_work < table_work:
        return _reach_dijoins(d, masks)
    return _dijoin_table(d)[masks]


def _cotree(rows, ncols: int) -> _Kernel:
    """The prepared kernel of an integer matrix.  More than MAX_MASK_BITS
    columns, whose support masks would not fit in int64, are refused first:
    that needs only ncols, so no wider matrix is ever row-reduced.  rows
    is the matrix as integer rows, or a Digraph standing for its incidence
    matrix (ncols its m), whose kernel is kept per digraph, so a warm
    count builds neither the matrix nor its row-tuple key.
    """
    if ncols > MAX_MASK_BITS:
        raise BudgetExceededError(f"support masks of {ncols} columns exceed {MAX_MASK_BITS} bits")
    if isinstance(rows, Digraph):
        return _digraph_kernel(rows)
    return _kernel(tuple(map(tuple, rows)), ncols)


@dataclass(frozen=True, eq=False)
class _Kernel:
    """The read-only record a kernel walk reads, built once per input: the
    basic (pivot) and free columns, expr (denom * x_basic = -expr @ x_free)
    as int64 and as the exact ints of _cotree_expression, denom and its
    unimodularity certificate, the support bit of each pivot and free
    column, and top = max|expr|, which _walk_matrix bounds.  The int64
    expr is None when top does not fit, and the bits when a column does
    not fit in an int64 mask; the walk refuses both before it reads them.
    checked is the walk of a matrix without the certificate: no pivot,
    every column free, and its rows checked mod each factor.
    """

    pivots: list
    free: list
    expr: np.ndarray | None
    exact: list
    denom: int
    unimodular: bool
    pivot_bits: np.ndarray | None
    free_bits: np.ndarray | None
    top: int
    checked: _Kernel | None = None


def _prepare(pivots, free, expr, denom: int = 1, unimodular: bool = True, checked=None) -> _Kernel:
    """The _Kernel of an exact cotree expression, its arrays read-only."""
    top = max(map(abs, chain.from_iterable(expr)), default=0)
    matrix = None
    if top < 1 << 63:
        matrix = np.array(expr, dtype=np.int64).reshape(len(expr), len(free))
        matrix.flags.writeable = False
    pivot_bits = free_bits = None
    if max(chain(pivots, free), default=0) <= MAX_MASK_BITS:
        pivot_bits, free_bits = (np.array([1 << c for c in cols], dtype=np.int64) for cols in (pivots, free))
        pivot_bits.flags.writeable = free_bits.flags.writeable = False
    return _Kernel(pivots, free, matrix, expr, denom, unimodular, pivot_bits, free_bits, top, checked)


@lru_cache(maxsize=1)
def _kernel(rows: tuple[tuple[int, ...], ...], ncols: int) -> _Kernel:
    """The prepared kernel of a matrix given as a tuple of row tuples, with
    no width check: the matroid contraction predicate reads its kernel
    basis at any width.  One slot: the counts of one matrix run back to
    back.
    """
    pivots, free, expr, denom, unimodular = _cotree_expression(rows, ncols)
    checked = None if unimodular else _prepare([], range(ncols), rows)
    return _prepare(pivots, free, expr, denom, unimodular, checked)


@lru_cache(maxsize=1)
def _digraph_kernel(d: Digraph) -> _Kernel:
    """The prepared kernel of d's incidence matrix; one slot, as _kernel."""
    return _kernel(tuple(map(tuple, incidence_matrix(d))), d.m)


def _walk_matrix(box: str, radix: int, walk: _Kernel, kmax: int, ncols: int, budget: int) -> np.ndarray:
    """The one refusal check of a kernel walk: radix^nullity points (the
    walk's free columns), named box in the message, into a support
    histogram of kmax * 2^ncols int64 cells.  Refused, in this order and
    before anything is allocated:

    - more points, or more cells, than the budget;
    - 2^63 cells or more, whose indices would leave int64, and 2^63
      bytes or more, which numpy cannot allocate as one array;
    - row sums that could leave int64: the value indices are below radix,
      so a sum is at most radix * nullity * max|expr|;
    - 2^63 points or more, whose indices would leave int64.

    Then the walk's expr, the int64 array of nullity columns it multiplies.
    """
    nullity, top = len(walk.free), walk.top
    points, cells = radix**nullity, kmax << ncols
    if points > budget:
        raise BudgetExceededError(f"{box} = {radix}^{nullity} exceeds budget {budget}")
    if cells > budget:
        raise BudgetExceededError(f"support histogram of {kmax}*2^{ncols} cells exceeds budget {budget}")
    if cells >= 1 << 63:
        raise BudgetExceededError(f"support histogram of {kmax}*2^{ncols} cells exceeds int64 indices")
    if 8 * cells >= 1 << 63:
        raise BudgetExceededError(f"support histogram of {kmax}*2^{ncols} cells exceeds 2^63 bytes")
    if nullity and radix * nullity * max(top, 1) >= 1 << 63:
        raise BudgetExceededError(f"cotree sums of {radix} values times {nullity}*{top} exceed int64")
    if points >= 1 << 63:
        raise BudgetExceededError(f"a box of {radix}^{nullity} points exceeds int64 indices")
    return walk.expr


def nl_group_flow_count(rows, ncols: int, g: AbelianGroup, supports, budget: int = DEFAULT_BUDGET) -> int:
    """Number of x in G^ncols with rows @ x = 0 in G whose support mask
    the support filter accepts; rows as _cotree takes them.  Each free
    coordinate takes all |G| values, element v having the residue v //
    (|G| / (f_1 ... f_i)) mod f_i in cyclic factor i; a basic one, -expr @
    x_free in each factor f, is in the support when nonzero mod f.
    Without the certificate of _cotree_expression every column is free
    and every row is checked mod each factor.
    """
    kernel = _cotree(rows, ncols)
    walk = kernel if kernel.unimodular else kernel.checked
    box = "|G|^nullity" if kernel.unimodular else "|G|^m"
    expr = _walk_matrix(box, g.order, walk, 1, ncols, budget)
    factors = np.array(g.factors, dtype=np.int64)[:, None, None]
    counts = np.zeros(1 << ncols, dtype=np.int64)

    def add(box):
        scaled, mask, _, weight = box
        nonzero = (scaled.reshape(len(factors), len(expr), len(mask)) % factors != 0).any(axis=0)
        if kernel.unimodular:
            _accumulate(counts, mask | walk.pivot_bits @ nonzero, weight, slice(None))
        else:
            _accumulate(counts, mask, weight, ~nonzero.any(axis=0))

    _box_sum(expr, walk.free_bits, g.factors, False, add)
    masks = np.flatnonzero(counts)
    return int(counts[masks[supports(masks)]].sum())


def count_nl_group_flows(d: Digraph, g: AbelianGroup, budget: int = DEFAULT_BUDGET) -> int:
    """Number of assignments A -> G that are flows with totally cyclic
    support contraction.
    """
    return nl_group_flow_count(d, d.m, g, partial(_dijoins, d), budget)


def _cotree_expression(rows: tuple[tuple[int, ...], ...], ncols: int):
    """Basic (pivot) and free (cotree) columns of an integer matrix, the
    integer matrix expr with denom * x_basic = -expr @ x_free on its
    kernel, and whether it also holds over every Z_f.

    One int_rref gives E, d times the reduced rows: with g = gcd(d, free
    entries of E), denom = |d| / g and expr = sign(d) * E / g.  Total
    unimodularity makes denom 1; other matrices keep exact counts through
    the divisibility test in kernel_height_histogram.  It holds over Z_f
    when |d| = 1, d being up to sign the determinant of the pivot block.
    Only _kernel calls it, and keeps what it builds.
    """
    reduced, pivots, d = int_rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    g = gcd(d, *(row[c] for row in reduced for c in free)) * (1 if d > 0 else -1)
    expr = [[row[c] // g for c in free] for row in reduced]
    return pivots, free, expr, d // g, abs(d) == 1


def kernel_nullity(rows, ncols: int) -> int:
    """Dimension of the rational kernel of an integer matrix: the number
    of its free (cotree) columns, and the degree bound of the fit.
    """
    return len(_cotree(rows, ncols).free)


def _accumulate(hist, index, weight, keep) -> None:
    """hist[index[keep]] += weight[keep], or += 1 with no weight column, in
    place.  An unweighted batch into a histogram of at most _CHUNK cells is
    counted by bincount; any other by np.add.at, which allocates nothing of
    the histogram's size and writes only the cells it adds to.
    """
    index = index[keep]
    if weight is None and len(hist) <= _CHUNK:
        hist += np.bincount(index, minlength=len(hist))
    else:
        np.add.at(hist, index, 1 if weight is None else weight[keep])


def _coords(key, digits: np.ndarray):
    """The coordinate values of the points of a digit grid, as (values,
    nonzero, height): values holds one n x points block per group factor
    (or one for the integers), nonzero is 1 where a coordinate's value is
    nonzero (int64, for the support-bit product), and height is each
    point's max |x_j|.  key is a group's cyclic factors, whose element v
    has the residue v // (|G| / (f_1 ... f_i)) mod f_i in factor i (height
    0), or an integer radix 2K-1, whose value index v is v - (K-1).
    """
    if isinstance(key, tuple):
        factors = np.array(key, dtype=np.int64)[:, None, None]
        weights = prod(key) // np.cumprod(factors).reshape(factors.shape)
        values = digits // weights % factors
        height = np.zeros(digits.shape[1], dtype=np.int64)
    else:
        values = (digits - key // 2)[None]
        height = np.abs(values[0]).max(axis=0, initial=0)
    return values, values.any(axis=0).astype(np.int64), height


def _radix(key) -> int:
    """The values one coordinate takes over key: |G|, or the radix 2K-1."""
    return prod(key) if isinstance(key, tuple) else key


@lru_cache(maxsize=128)
def _coord_grid(key, n: int):
    """_coords of all points of the box of n coordinates over key, cached
    and read-only; _points asks it only for boxes of at most
    min(_FOLD_ROWS, _CHUNK) points.  The slots hold the five catalog groups
    and the integer radices at every nullity up to 6 with room to spare; on
    the catalog inputs of the benchmark's sweep, intfit and matroid jobs
    they fill 45 slots, about 0.5 MB.
    """
    radix = _radix(key)
    arrays = _coords(key, np.indices((radix,) * n, dtype=np.int64).reshape(n, radix**n))
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _points(key, n: int, lo: int, hi: int):
    """Points lo .. hi-1 of the box of n coordinates over key, in
    itertools.product order with the first coordinate leading, as _coords
    gives them.  The one source of a walk's points: the fold's seed and
    axes, every batch of high rows, and the cocircuit table's seeds.  A box
    of at most min(_FOLD_ROWS, _CHUNK) points gives views of the cached
    _coord_grid; a larger one the _coords of the digits of np.arange(lo,
    hi), computed in int64 (the counters refuse a box of 2^63 points or
    more).
    """
    radix = _radix(key)
    if radix**n <= min(_FOLD_ROWS, _CHUNK):
        values, nonzero, height = _coord_grid(key, n)
        return values[..., lo:hi], nonzero[:, lo:hi], height[lo:hi]
    places = radix ** np.arange(n - 1, -1, -1, dtype=np.int64)
    return _coords(key, np.arange(lo, hi, dtype=np.int64) // places[:, None] % radix)


def _product(high, low):
    """The box of all pairs (x, y), x from high (the leading coordinates)
    and y from low, in mixed-radix order.  A box is a tuple (scaled, mask,
    height, weight) of per-point columns: the free coordinates' sums in
    each basic coordinate or checked row, the free support bits, max
    |x_free|, and the number of points each row stands for (None: one
    each).  A pair stands for the product of its rows' weights.
    """
    (s_hi, m_hi, h_hi, w_hi), (s_lo, m_lo, h_lo, w_lo) = high, low
    mask = np.add.outer(m_hi, m_lo).ravel()
    scaled = (s_hi[:, :, None] + s_lo[:, None, :]).reshape(len(s_hi), len(mask))
    if w_lo is None:
        weight = None if w_hi is None else np.repeat(w_hi, len(m_lo))
    else:
        weight = np.tile(w_lo, len(m_hi)) if w_hi is None else np.multiply.outer(w_hi, w_lo).ravel()
    return scaled, mask, np.maximum.outer(h_hi, h_lo).ravel(), weight


def _merge(box, lows, spans, bits, levels: int):
    """The rows of a box with equal state merged into one, weighted by
    their total.  The state of a row is its scaled rows (row r lies in
    lows[r] + [0, spans[r])), the support bit of each free column in
    bits, and the height, below levels; its mixed-radix key is below the
    product of those radices, so one dense np.add.at sums the weights.
    """
    scaled, mask, height, weight = box
    key = np.zeros(len(mask), dtype=np.int64)
    for row, low, span in zip(scaled, lows, spans):
        key *= span
        key += row - low
    for bit in bits:
        key <<= 1
        key |= mask & bit != 0
    key *= levels
    key += height
    total = np.zeros(prod(spans) * levels << len(bits), dtype=np.int64)
    np.add.at(total, key, 1 if weight is None else weight)
    states = np.flatnonzero(total)
    first = np.empty(len(total), dtype=np.intp)
    first[key] = np.arange(len(key))
    pick = first[states]
    return scaled[:, pick], mask[pick], height[pick], total[states]


def _fold(axes, seed, bits):
    """The box of the axes (one coordinate each, the first leading) times
    the seed box of the trailing coordinates, with rows of equal state
    merged where that shrinks it; bits lists the support bit of every
    coordinate, the seed's last.

    From the last axis to the first, each axis is multiplied onto the box
    so far.  A product of more than _FOLD_ROWS rows is merged when its
    state-space bound is smaller: the values each scaled row can take
    (one plus its range over the box, the sum of its ranges over the
    axes and the seed), times 2 per support bit, times the heights.
    """
    box = seed
    for i in reversed(range(len(axes))):
        box = _product(axes[i], box)
        rows = len(box[1])
        if rows <= _FOLD_ROWS:
            continue
        parts = [*axes[i:], seed]
        lows = sum(a[0].min(axis=1) for a in parts).tolist()
        spans = (1 + sum(np.ptp(a[0], axis=1) for a in parts)).tolist()
        levels = 1 + max(int(a[2].max()) for a in parts)
        if (prod(spans) * levels << (len(bits) - i)) < rows:
            box = _merge(box, lows, spans, bits[i:], levels)
    return box


def _box_sum(expr, free_bits, key, half: bool, add) -> None:
    """Pass the cotree box, in mixed-radix order with the first free
    coordinate leading, to add(box) batch by batch.  Each coordinate j
    (support bit free_bits[j]) takes the value indices 0 .. radix-1 that
    key fixes (_radix), whose values and heights _points gives.  A point
    x adds expr @ x to the rows of its box (one block per factor), has the
    support bit of each coordinate whose value is nonzero, and the largest
    height.

    Every block is one product expr @ x over the values x of a digit grid
    of its coordinates.  A box of more than _FOLD_ROWS points has a low
    block: its trailing coordinates, at most _CHUNK points, whose last
    ones up to _FOLD_ROWS points are one product that seeds the fold of
    the others (see _fold), so that points of equal state are one
    weighted row.  The leading coordinates give the high rows, built per
    batch from their indices, each batch broadcast with the low block.
    With no low block the high rows are added as they are, _CHUNK at a
    time; with no high coordinate the low block is.  A box of at most
    min(_FOLD_ROWS, _CHUNK) points is so one product of cached values and
    one add.

    With half, value index radix-1-v is the negative of v, so high row
    radix^n_high - 1 - i negates row i, and only the rows up to the
    centre row (every high index in the middle) are walked: those below
    it weigh 2, the centre row 1.  The leading coordinate is then always
    a high one, so that the rows halve every box.
    """
    n, radix = len(free_bits), _radix(key)

    def block(first, points, weight=None):
        # The points of the coordinates first, first+1, ...
        values, nonzero, height = points
        last = first + len(nonzero)
        scaled = (expr[:, first:last] @ values).reshape(-1, nonzero.shape[1])
        return scaled, free_bits[first:last] @ nonzero, height, weight

    n_low = 0
    if radix**n > _FOLD_ROWS:
        while n_low < n - half and radix ** (n_low + 1) <= _CHUNK:
            n_low += 1
    n_high = n - n_low
    low = None
    if n_low:
        n_seed = 0
        while n_seed < n_low and radix ** (n_seed + 1) <= _FOLD_ROWS:
            n_seed += 1
        axes = [block(j, _points(key, 1, 0, radix)) for j in range(n_high, n - n_seed)]
        seed = block(n - n_seed, _points(key, n_seed, 0, radix**n_seed))
        low = _fold(axes, seed, free_bits[n_high:].tolist())
        if n_high == 0:
            add(low)
            return

    centre = radix**n_high // 2
    stop = centre + 1 if half else radix**n_high
    step = _CHUNK // (1 if low is None else len(low[1]))
    for lo in range(0, stop, step):
        hi = min(lo + step, stop)
        weight = None
        if half:
            weight = np.full(hi - lo, 2, dtype=np.int64)
            weight[centre - lo :] = 1  # the centre row, if in this batch
        high = block(0, _points(key, n_high, lo, hi), weight)
        add(high if low is None else _product(high, low))


def kernel_height_histogram(rows, ncols: int, kmax: int, budget: int = DEFAULT_BUDGET):
    """hist[mask, h]: the number of integer x with rows @ x = 0 whose
    support bitmask is mask and whose max_j |x_j| is h, for h < kmax;
    rows as _cotree takes them.

    One pass over the cotree box {-(kmax-1), ..., kmax-1}^nullity, which
    is symmetric about its centre, the zero flow, so the rows of its
    leading coordinates below the centre row count twice and the centre
    row once (see _box_sum); value index v of a coordinate is v -
    (kmax-1), of height |v - (kmax-1)|.  Points of the low block with
    equal partial sums, support and height are counted once with their
    multiplicity (see _fold), and every batch is added into one int64
    histogram; cells that no point reaches are never written, so a wide
    histogram's untouched pages take no memory.  The budget bounds the box
    and the kmax * 2^ncols cells before anything is allocated.
    """
    if kmax < 1:
        raise ValueError("k must be >= 1")
    kernel = _cotree(rows, ncols)
    base = 2 * kmax - 1
    expr = _walk_matrix("(2k-1)^nullity", base, kernel, kmax, ncols, budget)
    denom, bits = kernel.denom, kernel.pivot_bits
    hist = np.zeros(kmax << ncols, dtype=np.int64)

    def add(box):
        scaled, mask, height, weight = box
        size = np.abs(scaled)
        ok = (size <= denom * (kmax - 1)).all(axis=0)
        if denom > 1:
            ok &= (scaled % denom == 0).all(axis=0)
        height = np.maximum(height, size.max(axis=0, initial=0) // denom)
        mask = mask + bits @ (scaled != 0)
        _accumulate(hist, mask * kmax + height, weight, ok)

    _box_sum(expr, kernel.free_bits, base, True, add)
    return hist.reshape(1 << ncols, kmax)


def nl_integer_kflow_counts(rows, ncols: int, ks, supports, budget: int = DEFAULT_BUDGET):
    """For each k in ks, the number of integer kernel elements of rows with
    entries in {0, +-1, ..., +-(k-1)} whose support mask the support
    filter accepts; one histogram pass at max(ks) serves every k.  The
    rows of the accepted reached masks are summed and cumulated over the
    heights.  The rows are summed by einsum, which on short rows takes a
    third of the time of sum(axis=1).
    """
    ks = list(ks)
    if min(ks) < 1:
        raise ValueError("k must be >= 1")
    hist = kernel_height_histogram(rows, ncols, max(ks), budget)
    masks = np.flatnonzero(np.einsum("ij->i", hist))
    at_most = hist[masks[supports(masks)]].sum(axis=0).cumsum()
    return [int(at_most[k - 1]) for k in ks]


def count_nl_integer_kflows(d: Digraph, k: int, budget: int = DEFAULT_BUDGET) -> int:
    """Number of integer flows with entries in {0, +-1, ..., +-(k-1)}
    (exact conservation over the integers) whose support contraction is
    totally cyclic.
    """
    return nl_integer_kflow_counts(d, d.m, [k], partial(_dijoins, d), budget)[0]


def _acyclic_subsets(d: Digraph) -> bytearray:
    """acyclic[S] for every vertex bitmask S: does S induce an acyclic
    subdigraph?  A nonempty S is acyclic iff it has sinks and stays
    acyclic without them.  The sinks of S follow in O(1) from those of S
    less its highest vertex h: in-neighbours of h stop being sinks, and h
    is one when it has no out-neighbour below it.  The sinks are vertex
    bitmasks in a typed array of the narrowest width that holds n bits,
    so more than 64 vertices are refused whatever the budget, before
    anything is allocated.
    """
    if d.n > 64:
        raise BudgetExceededError(f"vertex bitmasks of {d.n} vertices exceed 64 bits")
    out = [0] * d.n
    into = [0] * d.n
    for t, h in d.arcs:
        out[t] |= 1 << h
        into[h] |= 1 << t
    typecode = next(c for c in "IQ" if array(c).itemsize * 8 >= d.n)
    sinks = array(typecode, [0]) * (1 << d.n)
    acyclic = bytearray(1 << d.n)
    acyclic[0] = 1
    for h in range(d.n):
        bit, not_into, out_h = 1 << h, ~into[h], out[h]
        for rest in range(bit):
            t = sinks[rest] & not_into
            if not rest & out_h:
                t |= bit
            sinks[rest | bit] = t
            acyclic[rest | bit] = t != 0 and acyclic[(rest | bit) ^ t]
    return acyclic


def count_acyclic_colorings(d: Digraph, k: int, budget: int = DEFAULT_BUDGET) -> int:
    """Number of maps V -> {1..k} where every color class induces an
    acyclic subdigraph.  Requires a loopless digraph.

    With a_j the partitions of V into j nonempty acyclic classes, the
    count is the sum of a_j * k!/(k-j)! over j <= k.  The a_j come from a
    DP over vertex bitmasks: peel off the acyclic class that holds the
    lowest vertex of the rest, memoized on the rest.  A class count is
    packed into one int per rest, a field of `width` bits per number of
    classes, so one peel is one addition.  That is 3^n work for k >= 3;
    for k = 2 the second class is the rest itself, 2^n work, and k <= 1
    needs no table.  The budget is charged min(k, 3)^n.
    """
    if any(t == h for t, h in d.arcs):
        raise ValueError("acyclic colorings are only defined for loopless digraphs")
    if k < 0:
        raise ValueError("k must be >= 0")
    n = d.n
    if min(k, 3) ** n > budget:
        raise BudgetExceededError(f"min(k, 3)^n = {min(k, 3)}^{n} exceeds budget {budget}")
    if k <= 1 or n == 0:
        return int(n == 0 or k == 1 and is_acyclic(d))
    acyclic = _acyclic_subsets(d)
    full = (1 << n) - 1
    if k == 2:
        # One class: V.  Two: the class of vertex 0 and the rest.
        split = sum(acyclic[s] and acyclic[full ^ s] for s in range(1, full, 2))
        return 2 * acyclic[full] + 2 * split
    width = n * n.bit_length() + 1  # n^n >= Bell(n) bounds every a_j
    memo = {0: 1}

    def classes(rest):
        if rest not in memo:
            low = rest & -rest
            others = rest ^ low
            total, sub = 0, others
            while True:
                if acyclic[low | sub]:
                    total += classes(others ^ sub)
                if not sub:
                    break
                sub = (sub - 1) & others
            memo[rest] = total << width
        return memo[rest]

    packed, field = classes(full), (1 << width) - 1
    falling, count = 1, 0
    for j in range(1, min(k, n) + 1):
        falling *= k - j + 1
        count += (packed >> j * width & field) * falling
    return count


def fit_nl_integer_polynomial(rows, ncols: int, k_range, supports, budget: int = DEFAULT_BUDGET):
    """Interpolate the integer NL-k-flow counts of rows (support masks
    filtered by the support filter) over k_range to a polynomial of degree at
    most the kernel nullity; at least one extra point must be supplied and
    must match the interpolant exactly.

    Returns an IntPolynomial when the coefficients come out integral,
    otherwise the exact RationalPolynomial (the counts are Ehrhart-like:
    always integer-valued, not always integer-coefficient).
    """
    k_range = list(k_range)
    bound = kernel_nullity(rows, ncols)
    if len(k_range) < bound + 2:
        raise ValueError(
            f"need at least {bound + 2} evaluation points (degree bound {bound} "
            f"plus a held-out witness), got {len(k_range)}"
        )
    counts = nl_integer_kflow_counts(rows, ncols, k_range, supports, budget)
    try:
        poly = interpolate_rational(list(zip(k_range, counts)), bound)
    except WitnessMismatchError as exc:
        raise WitnessMismatchError(f"polynomiality violated: {exc}") from None
    return poly.to_int_polynomial() if poly.is_integral() else poly


def fit_integer_flow_polynomial(d: Digraph, k_range, budget: int = DEFAULT_BUDGET):
    """Interpolate the integer NL-k-flow counts of d over k_range to a
    polynomial of degree <= m - rk(A), with held-out witnesses.
    """
    return fit_nl_integer_polynomial(d, d.m, k_range, partial(_dijoins, d), budget)
