"""Sparse univariate polynomials with arbitrary-precision integer
coefficients, plus exact interpolation over the rationals (Newton's
divided differences).
"""

from __future__ import annotations

from fractions import Fraction

from .errors import NonIntegerPolynomialError, WitnessMismatchError


def _render(coeffs) -> str:
    """Canonical text of an exponent -> nonzero coefficient map:
    descending exponents, `x^e` with x^1 -> x and x^0 omitted, unit
    coefficients dropped, e.g. `x^10-2x^6+x^3-x^2+2x-1`.
    """
    if not coeffs:
        return "0"
    parts = []
    for e in sorted(coeffs, reverse=True):
        c = coeffs[e]
        sign = "-" if c < 0 else ("+" if parts else "")
        mag = abs(c)
        if e == 0:
            body = str(mag)
        else:
            var = "x" if e == 1 else f"x^{e}"
            body = var if mag == 1 else f"{mag}{var}"
        parts.append(sign + body)
    return "".join(parts)


class IntPolynomial:
    """Exponent -> coefficient map in canonical form (no zero entries).

    Immutable; equality is structural; degree of the zero polynomial is None.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs=()):
        items = dict(coeffs)
        clean = {}
        for e, c in items.items():
            e = int(e)
            c = int(c)
            if e < 0:
                raise ValueError(f"negative exponent {e}")
            if c != 0:
                clean[e] = c
        object.__setattr__(self, "_coeffs", clean)

    def __setattr__(self, *args):
        raise AttributeError("IntPolynomial is immutable")

    # --- constructors ---

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({0: 1})

    @classmethod
    def monomial(cls, exponent: int, coefficient: int = 1):
        return cls({exponent: coefficient})

    # --- structure ---

    @property
    def coeffs(self) -> dict[int, int]:
        return dict(self._coeffs)

    @property
    def degree(self):
        return max(self._coeffs) if self._coeffs else None

    def coefficient(self, exponent: int) -> int:
        return self._coeffs.get(exponent, 0)

    def __eq__(self, other):
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self):
        return hash(frozenset(self._coeffs.items()))

    # --- arithmetic ---

    def __add__(self, other):
        out = dict(self._coeffs)
        for e, c in other._coeffs.items():
            out[e] = out.get(e, 0) + c
        return IntPolynomial(out)

    def __neg__(self):
        return IntPolynomial({e: -c for e, c in self._coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out = {}
        for e1, c1 in self._coeffs.items():
            for e2, c2 in other._coeffs.items():
                out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
        return IntPolynomial(out)

    def __call__(self, k: int) -> int:
        return sum(c * k**e for e, c in self._coeffs.items())

    # --- rendering ---

    def to_text(self) -> str:
        return _render(self._coeffs)

    def __str__(self):
        return self.to_text()

    def __repr__(self):
        return f"IntPolynomial({self.to_text()!r})"

    def to_json_dict(self) -> dict:
        """JSON form with string coefficients so consumers never overflow."""
        return {"coeffs": {str(e): str(c) for e, c in sorted(self._coeffs.items())}}

    @classmethod
    def from_json_dict(cls, data: dict):
        return cls({int(e): int(c) for e, c in data["coeffs"].items()})


class RationalPolynomial:
    """Polynomial with exact Fraction coefficients; shows up as the result
    of Ehrhart-style count interpolation, where the counts are integers at
    every integer argument but the coefficients need not be.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs=()):
        clean = {}
        for e, c in dict(coeffs).items():
            c = Fraction(c)
            if c != 0:
                clean[int(e)] = c
        object.__setattr__(self, "_coeffs", clean)

    @property
    def coeffs(self):
        return dict(self._coeffs)

    @property
    def degree(self):
        return max(self._coeffs) if self._coeffs else None

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self._coeffs.values())

    def to_int_polynomial(self) -> IntPolynomial:
        if not self.is_integral():
            raise NonIntegerPolynomialError(f"non-integral coefficients in {self}")
        return IntPolynomial({e: int(c) for e, c in self._coeffs.items()})

    def __call__(self, k):
        val = sum(c * Fraction(k) ** e for e, c in self._coeffs.items())
        return int(val) if val.denominator == 1 else val

    def __eq__(self, other):
        if isinstance(other, IntPolynomial):
            other = RationalPolynomial(other.coeffs)
        if not isinstance(other, RationalPolynomial):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self):
        return hash(frozenset(self._coeffs.items()))

    def to_text(self) -> str:
        return _render(self._coeffs)

    def __str__(self):
        return self.to_text()

    def __repr__(self):
        return f"RationalPolynomial({self.to_text()!r})"

    def to_json_dict(self) -> dict:
        return {"coeffs": {str(e): str(c) for e, c in sorted(self._coeffs.items())}}


def _newton_coeffs(points):
    """Coefficients, lowest degree first, of the polynomial of degree
    below len(points) through the points, by Newton's divided differences
    turned into monomial form by Horner's rule.  Exact: a difference that
    divides stays an int, any other becomes a Fraction.
    """
    xs = [x for x, _ in points]
    diffs = [y for _, y in points]
    for j in range(1, len(points)):
        for i in range(len(points) - 1, j - 1, -1):
            num, den = diffs[i] - diffs[i - 1], xs[i] - xs[i - j]
            diffs[i] = num // den if type(num) is int and num % den == 0 else Fraction(num, den)
    coeffs = [diffs[-1]]
    for x, c in zip(xs[-2::-1], diffs[-2::-1]):
        # coeffs * (t - x) + c
        shifted = [a - x * b for a, b in zip(coeffs, coeffs[1:])]
        coeffs = [c - x * coeffs[0], *shifted, coeffs[-1]]
    return coeffs


def interpolate_rational(points, degree_bound: int) -> RationalPolynomial:
    """Unique rational polynomial of degree <= degree_bound through the
    first degree_bound+1 points; remaining points are held-out witnesses.
    """
    points = [(int(k), int(v)) for k, v in points]
    if degree_bound < 0:
        raise ValueError("degree_bound must be >= 0")
    need = degree_bound + 1
    if len(points) < need:
        raise ValueError(f"need at least {need} points, got {len(points)}")
    if len({k for k, _ in points}) != len(points):
        raise ValueError("interpolation points must have distinct abscissae")
    poly = RationalPolynomial(dict(enumerate(_newton_coeffs(points[:need]))))
    for k, v in points[need:]:
        got = poly(k)
        if got != v:
            raise WitnessMismatchError(
                f"held-out point k={k}: interpolant gives {got}, expected {v}"
            )
    return poly
