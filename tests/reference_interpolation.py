"""Slow reference interpolation: the Lagrange form, expanded into
monomial coefficients over Fractions in O(n^3).

nlflow.polynomials interpolates by Newton's divided differences, which
shares none of this, so its coefficients are checked against these.
Test-side only.
"""

from fractions import Fraction


def lagrange_coeffs(points):
    """Coefficients, lowest degree first, of the polynomial of degree
    below len(points) through the points, as Fractions.
    """
    coeffs = [Fraction(0)] * len(points)
    for i, (xi, yi) in enumerate(points):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, (xj, _) in enumerate(points):
            if j == i:
                continue
            denom *= xi - xj
            nxt = [Fraction(0)] * (len(basis) + 1)
            for e, c in enumerate(basis):
                nxt[e + 1] += c
                nxt[e] -= c * xj
            basis = nxt
        for e, c in enumerate(basis):
            coeffs[e] += yi * c / denom
    return coeffs
