"""Rational factorization on the raw polynomial layer, against sympy.

`fields.poly_factor_rational` must return what sympy's
`factor_list(..., domain="QQ")` returns: the same primitive integer
factors, multiplicities and order, since the order of the factors decides
the order of the field components in a report.  sympy is a test-only
reference here; the package itself does not import it.
"""

import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcunits.fields import (
    poly_divmod,
    poly_factor_rational,
    poly_inv_mod,
    poly_mul,
    poly_sub,
    rationals,
)

sympy = pytest.importorskip("sympy")
T = sympy.Symbol("t")

# every polynomial the rest of the suite factors (minimal polynomials over
# Q of the rational instances and unit tests), constant coefficient first
SUITE_POLYNOMIALS = [
    ("-1", "1"),
    ("-8/125", "0", "0", "1"),
    ("4/25", "2/5", "1"),
    ("-81", "0", "0", "0", "1"),
    ("27", "9", "3", "1"),
    ("9", "0", "1"),
    ("-1", "0", "0", "1"),
    ("1", "1", "1"),
    ("-1", "0", "0", "0", "0", "0", "0", "0", "0", "1"),
    ("1", "1", "1", "1", "1", "1", "1", "1", "1"),
    ("1", "0", "0", "1", "0", "0", "1"),
    ("-1", "0", "0", "0", "0", "0", "1"),
    ("1", "1", "1", "1", "1", "1"),
    ("1", "0", "1", "0", "1"),
    ("1", "-1", "1"),
]


def int_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def reference(coeffs):
    """sympy's factorization over QQ in the layout of poly_factor_rational."""
    expr = sum(sympy.Rational(str(c)) * T ** i for i, c in enumerate(coeffs))
    _, factors = sympy.factor_list(sympy.Poly(expr, T, domain="QQ"))
    return [(tuple(int(c) for c in reversed(f.all_coeffs())), e)
            for f, e in factors]


def coefficients(expr):
    return tuple(int(c) for c in reversed(sympy.Poly(expr, T).all_coeffs()))


def cyclotomic_product(*orders):
    return coefficients(sympy.prod(sympy.cyclotomic_poly(n, T)
                                   for n in orders))


@pytest.mark.parametrize("coeffs", SUITE_POLYNOMIALS,
                         ids=lambda c: "_".join(c))
def test_suite_polynomials_factor_like_sympy(coeffs):
    a = tuple(Fraction(c) for c in coeffs)
    assert poly_factor_rational(a) == reference(a)


# products of cyclotomic polynomials, many of them with many modular
# factors for every small prime: (Z/n)^* is far from cyclic for n = 24,
# 48, 120 and 240, so Phi_n splits into at least 4, 4, 8 and 16 factors
CYCLOTOMIC = {
    "phi24_phi48": (24, 48),
    "phi120_phi24_phi40": (120, 24, 40),
    "phi7_phi9_phi15_phi16_phi20": (7, 9, 15, 16, 20),
    "phi1_to_phi12": tuple(range(1, 13)),
    "phi60_squared_phi5": (60, 60, 5),
    "t63_minus_1": (1, 3, 7, 9, 21, 63),
    "t64_minus_1": (1, 2, 4, 8, 16, 32, 64),
}


@pytest.mark.parametrize("name", sorted(CYCLOTOMIC))
def test_cyclotomic_products_factor_like_sympy_within_a_second(name):
    a = cyclotomic_product(*CYCLOTOMIC[name])
    assert len(a) - 1 <= 64
    start = time.process_time()
    got = poly_factor_rational(a)
    elapsed = time.process_time() - start
    assert got == reference(a)
    assert elapsed < 1.0, f"{name} took {elapsed:.2f} s"


@pytest.mark.parametrize("n", [99, 120, 240])
def test_cyclotomic_polynomials_are_irreducible_within_a_second(n):
    # Phi_n is irreducible over Q, so the reference needs no sympy run;
    # Phi_240 (degree 64) has 16 factors modulo every small prime, which
    # makes recombination try every subset of up to 8 of them
    a = coefficients(sympy.cyclotomic_poly(n, T))
    start = time.process_time()
    got = poly_factor_rational(a)
    elapsed = time.process_time() - start
    assert got == [(a, 1)]
    assert elapsed < 1.0, f"Phi_{n} took {elapsed:.2f} s"


@pytest.mark.parametrize("expr", [
    T ** 3 - 2, T ** 3 + 2, 2 * T ** 3 - 3, T ** 4 - 2, T ** 6 + 3,
    T ** 5 - T - 1, (T ** 3 - 2) * (T ** 3 + 2), T ** 4 + 4,
    T ** 8 - 16, (T ** 2 - 2) ** 3 * (T ** 2 + 3), T ** 50 - 4,
], ids=str)
def test_non_abelian_and_binomial_cases_factor_like_sympy(expr):
    a = coefficients(expr)
    assert poly_factor_rational(a) == reference(a)


def test_constants_have_no_factors():
    assert poly_factor_rational(()) == []
    assert poly_factor_rational((Fraction(-3, 4),)) == []


small_polys = st.lists(st.integers(-6, 6), min_size=1, max_size=4).map(
    lambda c: tuple(c) + (1,))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(small_polys, st.integers(1, 3)), min_size=1,
                max_size=4),
       st.fractions(min_value=-5, max_value=5, max_denominator=6).filter(
           bool),
       st.integers(1, 3))
def test_products_with_repeated_factors_factor_like_sympy(parts, scale,
                                                          lead):
    a = (lead,)
    for f, e in parts:
        for _ in range(e):
            a = int_mul(a, f)
    a = tuple(scale * c for c in a)
    assert poly_factor_rational(a) == reference(a)


def test_factors_multiply_back():
    a = cyclotomic_product(3, 4, 8)
    a = int_mul(a, int_mul((-3, 2), (-3, 2)))
    product = (1,)
    for f, e in poly_factor_rational(a):
        product = int_mul(product, f)
        assert f[-1] > 0 and math.gcd(*f) == 1
        for _ in range(e - 1):
            product = int_mul(product, f)
    assert product == a


def test_inverse_modulo_over_q():
    Q = rationals()
    g = tuple(map(Fraction, (-2, 0, 1)))
    h = tuple(map(Fraction, (1, 1)))
    b = poly_inv_mod(Q, h, g)
    assert len(b) < len(g)
    one = (Q.raw_one,)
    assert poly_divmod(Q, poly_sub(Q, poly_mul(Q, b, h), one), g)[1] == ()
    assert poly_inv_mod(Q, g, poly_mul(Q, g, h)) is None


def test_order_is_degree_then_multiplicity_then_coefficients():
    a = coefficients((T - 1) ** 2 * (T + 1) * (T ** 2 + 1)
                     * (T ** 2 - 2) ** 3)
    expected = [((1, 1), 1), ((-1, 1), 2), ((1, 0, 1), 1), ((-2, 0, 1), 3)]
    assert reference(a) == expected
    assert poly_factor_rational(a) == expected
