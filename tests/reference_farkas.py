"""Test oracles for the Farkas LP and the certificates of total
cyclicity.

reference_farkas_nonneg_solve is the phase-1 revised simplex that
nlflow.linalg.farkas_nonneg_solve used before its fraction-free tableau.
It runs on fractions.Fraction and refactorizes the basis with a Gaussian
solve on every iteration, by the dense rref of tests/reference_linalg.py,
so it shares no elimination code with the tableau.  Its pivot rule
(Bland's, ties evicting the smallest basic index) is the tableau's, so
the two reach the same final basis and return identical (status, vector)
pairs.

positive_span_certificate is the kernel form of the certificate that
nlflow.matroids.farkas_certificate computed before it moved to the
matrix's rows: an LP over a spanning set K of the kernel with columns
[K, -K, -I].  It is solved by nlflow.linalg.farkas_nonneg_solve, which
the tests compare with the reference simplex on every LP shape, because
the reference simplex would take half a minute over the catalog.
reference_farkas_certificate applies it to the reference kernel basis of
tests/reference_linalg.py, and is_valid_certificate checks either side
of the alternative.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from reference_linalg import kernel_basis, matrix_rank, rref_dense

from nlflow.linalg import farkas_nonneg_solve


def _frac_rows(mat):
    return [[Fraction(x) for x in row] for row in mat]


def solve_upper(b_mat, rhs):
    """Solve the square system b_mat x = rhs by Gaussian elimination."""
    n = len(rhs)
    rows, pivots = rref_dense([list(row) + [rhs[i]] for i, row in enumerate(b_mat)])
    if pivots != list(range(n)):
        raise ValueError("singular basis matrix")
    return [rows[i][n] for i in range(n)]


def reference_farkas_nonneg_solve(a_mat, b_vec):
    """Decide {z >= 0 : A z = b} exactly.

    Returns ("feasible", z) with A z = b, z >= 0, or ("infeasible", y)
    with y A <= 0 componentwise and y . b > 0 (the Farkas certificate).

    Phase-1 revised simplex with Bland's rule; dimensions here are tiny,
    so each iteration refactorizes the basis from scratch.
    """
    a = _frac_rows(a_mat)
    b = [Fraction(x) for x in b_vec]
    p = len(b)
    q = len(a[0]) if a else 0
    signs = [1] * p
    for i in range(p):
        if b[i] < 0:
            signs[i] = -1
            b[i] = -b[i]
            a[i] = [-x for x in a[i]]

    # Columns 0..q-1 are the original variables (cost 0), q..q+p-1 the
    # artificials (cost 1).
    def column(j):
        if j < q:
            return [a[i][j] for i in range(p)]
        return [Fraction(1) if i == j - q else Fraction(0) for i in range(p)]

    def cost(j):
        return Fraction(0) if j < q else Fraction(1)

    basis = list(range(q, q + p))
    while True:
        b_cols = [column(j) for j in basis]
        b_mat = [[b_cols[j][i] for j in range(p)] for i in range(p)]
        x_b = solve_upper(b_mat, b) if p else []
        bt = [[b_mat[j][i] for j in range(p)] for i in range(p)]
        y = solve_upper(bt, [cost(j) for j in basis]) if p else []

        entering = None
        for j in range(q + p):
            if j in basis:
                continue
            reduced = cost(j) - sum(y[i] * column(j)[i] for i in range(p))
            if reduced < 0:
                entering = j
                break
        if entering is None:
            break
        d = solve_upper(b_mat, column(entering))
        ratios = [
            (x_b[i] / d[i], basis[i], i) for i in range(p) if d[i] > 0
        ]
        if not ratios:
            raise RuntimeError("phase-1 objective unbounded; cannot happen")
        best = min(r for r, _, _ in ratios)
        # Bland: among the tied rows, evict the smallest basic variable.
        leave = min((i for r, _, i in ratios if r == best), key=lambda i: basis[i])
        basis[leave] = entering

    objective = sum(x_b[i] for i in range(p) if basis[i] >= q)
    if objective == 0:
        z = [Fraction(0)] * q
        for i, j in enumerate(basis):
            if j < q:
                z[j] = x_b[i]
        return "feasible", z
    y_out = [signs[i] * y[i] for i in range(p)]
    return "infeasible", y_out


def positive_span_certificate(vectors, q: int):
    """Given spanning vectors of a subspace of Q^q, return either
    ("positive", x) with x in the span and x >= 1 componentwise, or
    ("obstruction", g) with g >= 0, g != 0, orthogonal to the span.

    Exactly one side exists (Farkas); validity of either excludes the
    other because g . x would have to be both 0 and >= sum(g) > 0.  Each
    vector is first scaled to integers by the lcm of its denominators,
    a positive multiple with the same span.
    """
    if q == 0:
        return "positive", []
    scales = (lcm(*(Fraction(x).denominator for x in v)) for v in vectors)
    vectors = [[int(x * scale) for x in v] for v, scale in zip(vectors, scales)]
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


def reference_farkas_certificate(rows, q: int):
    """The kernel-form certificate of the matroid of rows, over the
    reference kernel basis."""
    return positive_span_certificate(kernel_basis([list(r) for r in rows], q), q)


def is_valid_certificate(rows, q: int, cert) -> bool:
    """("positive", x): q entries, x >= 1 and every row orthogonal to x.
    ("obstruction", g): q entries, g >= 0, g != 0 and g in the row space
    (adding it leaves the rank unchanged).
    """
    kind, vec = cert
    rows = [list(r) for r in rows]
    if len(vec) != q:
        return False
    if kind == "positive":
        return all(x >= 1 for x in vec) and all(sum(a * x for a, x in zip(row, vec)) == 0 for row in rows)
    return (
        kind == "obstruction"
        and all(x >= 0 for x in vec)
        and any(x > 0 for x in vec)
        and matrix_rank(rows) == matrix_rank(rows + [list(vec)])
    )
