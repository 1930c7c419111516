"""NL-flow theory over regular oriented matroids given by totally
unimodular matrices: TU-matrix I/O, the TU check, total cyclicity via
exact Farkas certificates, and the contraction predicate (is M/S
totally cyclic?), which is the support predicate of the counting oracles.

The oriented matroid is represented linear-algebraically: flows are the
rational kernel of the matrix, coflows its row space.  All feasibility
decisions are exact; no floating point.  The group and integer counts and
the polynomial fit are the shared ones of nlflow.oracles, called with the
matrix and its support filter, which maps the reached support masks to
aligned accepted flags as every filter does: a table of the masks that
meet every positive cocircuit, indexed by them, or, where that table
would cost more than one batch, the up-set walk over the Farkas
contraction predicate (cyclic_supports).  Column sets are int bitmasks,
bit c for column c, as arc sets are in nlflow.digraphs.
The integer kernel basis behind the Farkas certificates and that
predicate, the rows the table combines and the filter's choice all read
the matrix's prepared kernel (nlflow.oracles._kernel, one read-only
record per row tuple) that those counters walk, so each matrix is
row-reduced once and its arrays built once for all its counts.  The
counters and the table's seeds read their points from the one source
the digraph counts use (nlflow.oracles._points).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import combinations
from math import comb

import numpy as np

from .digraphs import Digraph, incidence_matrix
from .errors import BudgetExceededError
from .groups import AbelianGroup
from .linalg import farkas_nonneg_solve, int_rref
from .oracles import (
    _CHUNK,
    DEFAULT_BUDGET,
    _hitting_table,
    _kernel,
    _points,
    fit_nl_integer_polynomial,
    nl_group_flow_count,
    nl_integer_kflow_counts,
)

DEFAULT_TU_CHECK_BOUND = 8


@dataclass(frozen=True)
class TUMatrix:
    """Integer matrix with entries in {0, +-1}; rows are stored as tuples
    so instances are hashable and safely cacheable.
    """

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(int(x) for x in row) for row in self.rows)
        object.__setattr__(self, "rows", rows)
        widths = {len(r) for r in rows}
        if len(widths) > 1:
            raise ValueError("ragged matrix")
        for row in rows:
            for x in row:
                if x not in (-1, 0, 1):
                    raise ValueError(f"entry {x} outside {{0, +-1}}")

    @property
    def p(self) -> int:
        return len(self.rows)

    @property
    def q(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    @classmethod
    def from_digraph(cls, d: Digraph) -> "TUMatrix":
        return cls(tuple(tuple(row) for row in incidence_matrix(d)))


def read_matrix(text: str) -> TUMatrix:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("empty matrix file")
    try:
        p, q = (int(x) for x in lines[0].split())
    except Exception as exc:
        raise ValueError(f"bad header line {lines[0]!r}") from exc
    if p < 0 or q < 0:
        raise ValueError(f"negative dimension in header line {lines[0]!r}")
    if p == 0 and q > 0:
        # TUMatrix keeps only rows, so it has no 0 x q matrix.
        raise ValueError(f"a matrix with 0 rows cannot have {q} columns")
    if q == 0 and len(lines) == 1:
        # The p empty rows of a p x 0 matrix are blank lines.
        return TUMatrix(((),) * p)
    if len(lines) - 1 != p:
        raise ValueError(f"expected {p} rows, found {len(lines) - 1}")
    rows = []
    for ln in lines[1:]:
        entries = [int(x) for x in ln.split()]
        if len(entries) != q:
            raise ValueError(f"row {ln!r} does not have {q} entries")
        rows.append(tuple(entries))
    return TUMatrix(tuple(rows))


def write_matrix(m: TUMatrix) -> str:
    lines = [f"{m.p} {m.q}"]
    lines.extend(" ".join(str(x) for x in row) for row in m.rows)
    return "\n".join(lines) + "\n"


def is_totally_unimodular(m: TUMatrix, max_dim: int = DEFAULT_TU_CHECK_BOUND) -> bool:
    """Brute-force certificate: every square submatrix determinant is in
    {0, +-1}, read off int_rref: fewer pivots than rows is singular, and
    otherwise d is the determinant up to sign.  Refuses min(p, q) > max_dim.
    """
    if min(m.p, m.q) > max_dim:
        raise BudgetExceededError(
            f"TU certificate limited to min dimension {max_dim}, got {min(m.p, m.q)}"
        )
    for size in range(1, min(m.p, m.q) + 1):
        for rsel in combinations(range(m.p), size):
            for csel in combinations(range(m.q), size):
                _, pivots, d = int_rref([[m.rows[i][j] for j in csel] for i in rsel])
                if len(pivots) == size and abs(d) != 1:
                    return False
    return True


def _kernel_basis(m: TUMatrix):
    """An integer kernel basis, one vector per free (cotree) column, read
    off the prepared kernel the counters walk (its exact ints, at any
    width): vector j is denom at column free[j] and -expr[r][j] at
    pivots[r].
    """
    kernel = _kernel(m.rows, m.q)
    basis = []
    for j, fc in enumerate(kernel.free):
        v = [0] * m.q
        v[fc] = kernel.denom
        for r, pc in enumerate(kernel.pivots):
            v[pc] = -kernel.exact[r][j]
        basis.append(v)
    return basis


# --- total cyclicity and the Farkas alternative ---------------------------


def positive_span_certificate(vectors, q: int):
    """Given spanning vectors of a subspace of Q^q, return either
    ("positive", x) with x in the span and x >= 1 componentwise, or
    ("obstruction", g) with g >= 0, g != 0, orthogonal to the span.

    Exactly one side exists (Farkas); validity of either excludes the
    other because g . x would have to be both 0 and >= sum(g) > 0.
    """
    if q == 0:
        return "positive", []
    r = len(vectors)
    # Feasibility of K lam >= 1 with lam free: columns [K, -K, -I].
    a = []
    for i in range(q):
        row = [v[i] for v in vectors]
        row += [-x for x in row]
        row += [-int(i == t) for t in range(q)]
        a.append(row)
    status, sol = farkas_nonneg_solve(a, [1] * q)
    if status == "feasible":
        lam = [sol[j] - sol[r + j] for j in range(r)]
        x = [sum(lam[j] * vectors[j][i] for j in range(r)) for i in range(q)]
        return "positive", x
    return "obstruction", sol


def farkas_certificate(m: TUMatrix):
    """Alternative for total cyclicity of the matroid of m: a strictly
    positive kernel vector, or a nonnegative nonzero row-space vector.
    """
    return positive_span_certificate(_kernel_basis(m), m.q)


def is_totally_cyclic_matroid(m: TUMatrix) -> bool:
    return farkas_certificate(m)[0] == "positive"


@lru_cache(maxsize=4096)
def _support_contraction_cyclic(m: TUMatrix, mask: int) -> bool:
    """Is M/S totally cyclic, S the support of mask?  Its flows are M's off S."""
    keep = [c for c in range(m.q) if not mask >> c & 1]
    vectors = [[v[c] for c in keep] for v in _kernel_basis(m)]
    return positive_span_certificate(vectors, len(keep))[0] == "positive"


@lru_cache(maxsize=1)
def _cocircuit_table(m: TUMatrix) -> np.ndarray:
    """accepted[mask] for every column bitmask of m: does the support S
    meet every positive cocircuit?  Exactly then is M/S totally cyclic: by
    Farkas, otherwise a nonzero y >= 0 of the row space vanishes on S, and
    such a y is a conformal sum of positive cocircuits.

    The rows of the cotree expression (denom on the pivots, expr on the
    free columns) span the row space.  Every y = lam @ rows with lam in
    {0, +-1}^r, the points of _points over the radix 3, is one numpy
    product, and each nonzero y >= 0 rejects the complement of its
    support.  In a TU matrix every cocircuit is such a y.  In another, a
    cocircuit may have other entries; its hyperplane is spanned by some
    r - 1 columns, and where no nonzero seed y vanishes on them, the y that
    does comes from one int_rref of their r x (r - 1) block and is added
    when it has one sign.  A set of rank below r - 1
    has none; the hyperplanes through it have bases of their own.
    _hitting_table closes the rejected masks downward.

    The table is 2^q bytes and read-only.  One slot keeps it for the
    counts of one matrix.
    """
    kernel = _kernel(m.rows, m.q)
    r, q = len(kernel.pivots), m.q
    rows = np.zeros((r, q), dtype=np.int64)
    rows[range(r), kernel.pivots] = kernel.denom
    rows[:, kernel.free] = kernel.expr
    bits = 1 << np.arange(q, dtype=np.int64)
    seeds = _points(3, r, 0, 3**r)[0][0].T @ rows
    supports = (seeds != 0) @ bits
    positive = [supports[(seeds >= 0).all(axis=1) & (supports != 0)]]
    if r:
        # The (r - 1)-sets of columns on which no nonzero seed vanishes.
        spanning = _hitting_table(q, [supports[supports != 0]])
        for s in np.flatnonzero(spanning & (np.bitwise_count(np.arange(1 << q)) == r - 1)).tolist():
            block, piv, d = int_rref(rows[:, [c for c in range(q) if s >> c & 1]].T.tolist())
            if len(piv) < r - 1:
                continue
            f = next(i for i in range(r) if i not in piv)
            lam = np.zeros(r, dtype=np.int64)
            lam[f] = d
            lam[piv] = [-row[f] for row in block]
            y = lam @ rows
            if (y >= 0).all() or (y <= 0).all():
                positive.append((y != 0) @ bits)
    return _hitting_table(q, positive)


def cyclic_supports(masks, predicate) -> np.ndarray:
    """accepted[i]: does the support predicate accept the contraction of
    masks[i], for an int64 array of distinct support bitmasks; with the
    Farkas predicate bound, the support filter where the cocircuit table
    would cost too much (_supports).

    The accepted supports form an up-set, since contracting more of a
    totally cyclic contraction keeps it totally cyclic: M/T = (M/S)/(T-S).
    So a mask that contains an accepted mask is accepted, and one that is
    contained in a rejected mask is rejected, without a predicate call.
    The masks are walked by popcount level, alternately from the bottom
    and from the top, so that both rules fire.
    """
    masks = masks.tolist()
    levels = {}
    for i, mask in enumerate(masks):
        levels.setdefault(mask.bit_count(), []).append(i)
    sizes = sorted(levels)
    # Bottom, top, second from the bottom, second from the top, ...
    order = [size for pair in zip(sizes, reversed(sizes)) for size in pair][: len(sizes)]
    good, bad, accepted = [], [], [False] * len(masks)
    for size in order:
        for i in levels[size]:
            mask = masks[i]
            if any(mask & g == g for g in good):
                accepted[i] = True
            elif not any(mask & b == mask for b in bad):
                accepted[i] = predicate(mask)
                (good if accepted[i] else bad).append(mask)
    return np.array(accepted, dtype=bool)


def _supports(m: TUMatrix, masks):
    """The support filter of the counters: accepted[i], is the contraction
    of the reached support masks[i] totally cyclic?

    The cocircuit table decides all 2^q masks in one lookup.  Its work,
    about 3^r * q for the seeds, C(q, r - 1) column sets and q passes over
    2^q bytes per closure, grows fast with the rank r: a 20-arc directed
    cycle would need 3^19 seeds.  Where it is over one batch (_CHUNK), the
    reached masks are walked as an up-set instead (cyclic_supports),
    asking the Farkas contraction test where no accepted subset or
    rejected superset decides.
    """
    r, q = len(_kernel(m.rows, m.q).pivots), m.q
    if 3**r * q + comb(q, max(r - 1, 0)) + (q << q) > _CHUNK:
        return cyclic_supports(masks, partial(_support_contraction_cyclic, m))
    return _cocircuit_table(m)[masks]


def count_nl_group_flows_matroid(m: TUMatrix, g: AbelianGroup, budget: int = DEFAULT_BUDGET) -> int:
    """Kernel elements over G whose support contraction is totally cyclic."""
    return nl_group_flow_count(
        m.rows, m.q, g, partial(_supports, m), budget
    )


def count_nl_integer_kflows_matroid(m: TUMatrix, k: int, budget: int = DEFAULT_BUDGET) -> int:
    """Integer kernel elements with entries in {0, +-1, ..., +-(k-1)} and
    totally cyclic support contraction; exact integer arithmetic.  The
    budget bounds the (2k-1)^nullity cotree box, not (2k-1)^q.
    """
    return nl_integer_kflow_counts(
        m.rows, m.q, [k], partial(_supports, m), budget
    )[0]


def fit_integer_flow_polynomial_matroid(m: TUMatrix, k_range, budget: int = DEFAULT_BUDGET):
    """Interpolate integer NL-k-flow counts of the matroid, degree bound
    q - rank(M), with held-out witnesses.  Integer coefficients when they
    exist, exact rational ones otherwise.
    """
    return fit_nl_integer_polynomial(
        m.rows, m.q, k_range, partial(_supports, m), budget
    )
