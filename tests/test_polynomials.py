"""Exact polynomial arithmetic, canonical rendering, JSON round-trip, and
interpolation (Newton's divided differences, against the Lagrange
reference) with held-out witnesses.
"""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st
from reference_interpolation import lagrange_coeffs

from nlflow import (
    IntPolynomial,
    NonIntegerPolynomialError,
    RationalPolynomial,
    WitnessMismatchError,
    interpolate_rational,
)
from nlflow.polynomials import _newton_coeffs

polys = st.dictionaries(st.integers(0, 8), st.integers(-50, 50), max_size=6).map(
    IntPolynomial
)


class TestArithmetic:
    def test_table_row_n3_eval(self):
        p = IntPolynomial({1: 1, 0: -1})  # x - 1
        assert p(2) == 1

    def test_zero_eval(self):
        assert IntPolynomial.zero()(12345) == 0
        assert IntPolynomial.zero().degree is None

    def test_table_row_n6_at_one(self):
        p = IntPolynomial({10: 1, 6: -2, 3: 1, 2: -1, 1: 2, 0: -1})
        assert p(1) == 0

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            IntPolynomial({-1: 1})

    def test_canonical_no_zero_coeffs(self):
        assert IntPolynomial({3: 0, 1: 2}).coeffs == {1: 2}

    @given(polys, polys, polys)
    def test_ring_laws(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        assert a + (-a) == IntPolynomial.zero()
        assert a * IntPolynomial.one() == a

    @given(polys, polys, st.integers(-5, 5))
    def test_evaluation_is_ring_hom(self, a, b, k):
        assert (a + b)(k) == a(k) + b(k)
        assert (a * b)(k) == a(k) * b(k)


class TestRendering:
    def test_table_style(self):
        p = IntPolynomial({10: 1, 6: -2, 3: 1, 2: -1, 1: 2, 0: -1})
        assert p.to_text() == "x^10-2x^6+x^3-x^2+2x-1"

    def test_small_cases(self):
        assert IntPolynomial.zero().to_text() == "0"
        assert IntPolynomial.one().to_text() == "1"
        assert IntPolynomial({1: 1}).to_text() == "x"
        assert IntPolynomial({1: -1, 0: 1}).to_text() == "-x+1"
        assert IntPolynomial({2: 3}).to_text() == "3x^2"

    def test_json_round_trip(self):
        p = IntPolynomial({21: 1, 4: 6, 0: -1})
        data = p.to_json_dict()
        assert data == {"coeffs": {"0": "-1", "4": "6", "21": "1"}}
        assert IntPolynomial.from_json_dict(data) == p

    @given(polys)
    def test_json_round_trip_property(self, p):
        assert IntPolynomial.from_json_dict(p.to_json_dict()) == p


class TestInterpolateExact:
    # Integer interpolation: interpolate_rational, then to_int_polynomial.
    def test_linear_flow_count(self):
        poly = interpolate_rational([(2, 3), (3, 5), (4, 7)], 1)
        assert poly.to_int_polynomial() == IntPolynomial({1: 2, 0: -1})

    def test_constant(self):
        poly = interpolate_rational([(2, 5), (3, 5)], 1)
        assert poly.to_int_polynomial() == IntPolynomial({0: 5})

    def test_square(self):
        poly = interpolate_rational([(1, 1), (2, 4), (3, 9)], 2)
        assert poly.to_int_polynomial() == IntPolynomial({2: 1})

    def test_non_integral_rejected(self):
        # k(k+1)/2 has coefficient 1/2.
        with pytest.raises(NonIntegerPolynomialError):
            interpolate_rational([(1, 1), (2, 3), (3, 6)], 2).to_int_polynomial()

    def test_witness_mismatch(self):
        with pytest.raises(WitnessMismatchError):
            interpolate_rational([(1, 1), (2, 2), (3, 99)], 1)

    def test_error_messages(self):
        with pytest.raises(
            NonIntegerPolynomialError, match=r"^non-integral coefficients in 1/2x\^2\+1/2x$"
        ):
            interpolate_rational([(1, 1), (2, 3), (3, 6)], 2).to_int_polynomial()
        with pytest.raises(
            NonIntegerPolynomialError,
            match=r"^non-integral coefficients in -149/1080x\^3\+221/135x\^2-1201/360x$",
        ):
            interpolate_rational([(0, 0), (3, 1), (5, 7), (9, 2)], 3).to_int_polynomial()
        with pytest.raises(
            WitnessMismatchError, match=r"^held-out point k=3: interpolant gives 3, expected 99$"
        ):
            interpolate_rational([(1, 1), (2, 2), (3, 99)], 1)

    def test_insufficient_points(self):
        with pytest.raises(ValueError):
            interpolate_rational([(1, 1)], 1)

    def test_duplicate_abscissae(self):
        with pytest.raises(ValueError):
            interpolate_rational([(1, 1), (1, 2)], 1)

    @given(st.lists(st.integers(-20, 20), min_size=1, max_size=4))
    def test_reproduces_all_points(self, coeffs):
        p = IntPolynomial(dict(enumerate(coeffs)))
        bound = len(coeffs) - 1
        points = [(k, p(k)) for k in range(bound + 3)]
        assert interpolate_rational(points, bound).to_int_polynomial() == p


class TestNewtonAgainstLagrange:
    # Divided differences against the O(n^3) Lagrange reference, on
    # distinct abscissae in any order, with or without integer results.
    @given(st.lists(st.integers(-30, 30), min_size=1, max_size=8, unique=True), st.data())
    def test_coefficients_equal(self, xs, data):
        points = [(x, data.draw(st.integers(-(10**6), 10**6))) for x in xs]
        assert _newton_coeffs(points) == lagrange_coeffs(points)

    @given(polys, st.integers(-5, 5))
    def test_integer_polynomials_on_consecutive_k(self, p, start):
        points = [(k, p(k)) for k in range(start, start + 9)]
        assert _newton_coeffs(points) == lagrange_coeffs(points)
        assert IntPolynomial(dict(enumerate(_newton_coeffs(points)))) == p


class TestInterpolateRational:
    def test_half_square(self):
        poly = interpolate_rational([(1, 1), (2, 3), (3, 6)], 2)
        assert poly.coeffs == {2: Fraction(1, 2), 1: Fraction(1, 2)}
        assert not poly.is_integral()
        assert poly(10) == 55

    def test_integral_detection(self):
        poly = interpolate_rational([(2, 3), (3, 5), (4, 7)], 1)
        assert poly.is_integral()
        assert poly.to_int_polynomial() == IntPolynomial({1: 2, 0: -1})
        assert poly == IntPolynomial({1: 2, 0: -1})

    def test_witness_checked(self):
        with pytest.raises(WitnessMismatchError):
            interpolate_rational([(1, 1), (2, 3), (3, 7)], 1)

    def test_to_int_rejects_fractions(self):
        poly = interpolate_rational([(1, 1), (2, 3), (3, 6)], 2)
        with pytest.raises(NonIntegerPolynomialError):
            poly.to_int_polynomial()
