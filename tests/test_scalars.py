"""Scalar layer: construction, arithmetic, root extraction.

Expected values here are frozen from independent derivations: brute-force
loops inside the tests, or hand calculations noted inline.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fcunits.errors import (
    DivisionByZero,
    FieldMismatch,
    InstanceFormatError,
    NonPrimeCharacteristic,
    ReducibleModulus,
    UnsupportedRationalDegree,
)
from fcunits import fields
from fcunits.algebra import TwistedGroupAlgebra
from fcunits.fields import (
    Scalar,
    gf,
    make_field,
    multiplicative_order,
    rationals,
    solve_power_equation,
)
from fcunits.groups import cyclic_table, make_group


def test_non_prime_characteristic_rejected():
    with pytest.raises(NonPrimeCharacteristic):
        gf(6)
    with pytest.raises(NonPrimeCharacteristic):
        gf(1)


def test_reducible_modulus_rejected():
    # x^2 + 2 = (x+1)(x+2) over GF(3)
    with pytest.raises(ReducibleModulus):
        gf(3, 2, [2, 0, 1])


def test_gf9_modulus_irreducible_by_exhaustion():
    # oracle: x^2 + 1 has no root mod 3, so it is irreducible (degree 2)
    assert all((x * x + 1) % 3 != 0 for x in range(3))
    field = gf(3, 2, [1, 0, 1])
    assert field.size() == 9
    x = field.scalar((0, 1))
    assert x * x == field.scalar(-1)


def test_non_integer_coefficients_rejected():
    f4 = gf(2, 2, [1, 1, 1])
    for modulus in ([1.9, 1, 1], ["1", True, 1], "111"):
        with pytest.raises(InstanceFormatError):
            gf(2, 2, modulus)
    for field, raw in ((f4, [0.5, 1.7]), (f4, (True, 0)), (f4, True),
                       (gf(3), True), (rationals(), True)):
        with pytest.raises(InstanceFormatError):
            field.scalar(raw)
    with pytest.raises(InstanceFormatError):
        make_field({"kind": "prime-power", "p": 3, "k": True})


def test_field_size_caps():
    with pytest.raises(InstanceFormatError):
        gf(2, 17, [1] * 18)
    with pytest.raises(InstanceFormatError):
        gf(65537)


def test_inverses_exhaustive_small_fields():
    # spec invariant: a * inv(a) == 1 for every nonzero a, |field| <= 81
    for field in (gf(2), gf(7), gf(3, 2, [1, 0, 1]), gf(3, 4, [2, 1, 0, 0, 1]),
                  gf(2, 4, [1, 1, 0, 0, 1])):
        assert field.size() <= 81
        for a in filter(None, field.elements()):
            assert a * a.inv() == field.one
    with pytest.raises(DivisionByZero):
        gf(5).zero.inv()


def test_frobenius_is_a_bijection():
    # spec invariant: x -> x^p permutes the field, fixing GF(p)
    for field in (gf(7), gf(3, 2, [1, 0, 1]), gf(2, 3, [1, 1, 0, 1])):
        p = field.characteristic
        image = {x ** p for x in field.elements()}
        assert len(image) == field.size()
        for n in range(p):
            assert field.from_int(n) ** p == field.from_int(n)


def test_pow_order_gf9():
    # every nonzero element of GF(9) satisfies x^8 = 1
    field = gf(3, 2, [1, 0, 1])
    for x in filter(None, field.elements()):
        assert x ** 8 == field.one


def test_squares_mod_3():
    field = gf(3)
    squares = {x * x for x in field.elements()}
    assert squares == {field.scalar(0), field.scalar(1)}
    assert solve_power_equation(field, 2, field.scalar(2)) == set()


def test_cube_roots_of_unity_gf7():
    field = gf(7)
    roots = solve_power_equation(field, 3, field.one)
    # oracle: brute force over GF(7)
    assert roots == {field.scalar(c) for c in range(7) if c ** 3 % 7 == 1}
    assert roots == {field.scalar(1), field.scalar(2), field.scalar(4)}


def test_solution_count_bounded_by_degree():
    # spec invariant: |solutions of x^n = t| <= n, checked exhaustively,
    # and the solutions are those a brute-force scan finds
    for field in (gf(5), gf(7), gf(3, 2, [1, 0, 1]), gf(2, 3, [1, 1, 0, 1])):
        for n in range(1, 13):
            for target in field.elements():
                roots = solve_power_equation(field, n, target)
                assert len(roots) <= max(n, 1)
                assert roots == {x for x in field.elements()
                                 if x ** n == target}


ROOT_FIELDS = [gf(2), gf(3), gf(257), gf(2, 2, [1, 1, 1]),
               gf(3, 2, [1, 0, 1]), gf(3, 4, [2, 1, 0, 0, 1])]


def ref_roots(field, a):
    """The raw roots of a, by Horner's rule at one element at a time."""
    roots = []
    for x in field.elements():
        acc = field.zero
        for c in reversed(a):
            acc = acc * x + Scalar(field, c)
        if not acc:
            roots.append(x.value)
    return roots


@st.composite
def root_cases(draw):
    """A field and a nonzero polynomial over it: dense, a binomial t^n - c,
    sparse with a zero constant term, or a constant."""
    field = draw(st.sampled_from(ROOT_FIELDS))
    value = st.integers(0, field.size() - 1)
    shape = draw(st.sampled_from(["dense", "binomial", "sparse", "constant"]))
    if shape == "dense":
        a = draw(st.lists(value, min_size=1, max_size=9))
    elif shape == "binomial":
        n = draw(st.integers(1, 20))
        c = Scalar(field, draw(value))
        a = [(-c).value] + [field.raw_zero] * (n - 1) + [field.raw_one]
    elif shape == "sparse":
        degrees = draw(st.sets(st.integers(1, 24), min_size=1, max_size=4))
        a = [field.raw_zero] * (max(degrees) + 1)
        for d in degrees:
            a[d] = draw(value)
    else:
        a = [draw(value)]
    a = list(fields.poly_trim(field, a)) or [field.raw_one]
    return field, tuple(a)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(root_cases())
def test_poly_roots_match_the_sweep_at_each_element(case):
    field, a = case
    assert fields.poly_roots(field, a) == ref_roots(field, a)


@pytest.mark.parametrize("p, g", [(2, 1), (3, 2), (7, 6), (257, 16),
                                  (65521, 16)])
def test_prime_power_vectors_match_the_square_and_multiply_loop(p, g):
    # the elementwise square-and-multiply that three-argument pow replaced
    ref = fields.power(list(range(p)), g,
                       lambda u, v: [a * b % p for a, b in zip(u, v)], None)
    assert gf(p).power_vector(g) == ref


def test_rational_roots():
    q = rationals()
    assert solve_power_equation(q, 1, q.scalar(Fraction(3, 7))) == {
        q.scalar(Fraction(3, 7))}
    assert solve_power_equation(q, 2, q.scalar(Fraction(9, 4))) == {
        q.scalar(Fraction(3, 2)), q.scalar(Fraction(-3, 2))}
    assert solve_power_equation(q, 2, q.scalar(2)) == set()
    assert solve_power_equation(q, 2, q.scalar(-1)) == set()
    assert solve_power_equation(q, 2, q.scalar(0)) == {q.scalar(0)}
    with pytest.raises(UnsupportedRationalDegree):
        solve_power_equation(q, 3, q.scalar(8))


def test_field_mismatch():
    with pytest.raises(FieldMismatch):
        gf(3).one + gf(5).one
    # equal specs give interoperable fields even as distinct objects
    assert gf(3).one + gf(3).scalar(2) == gf(3).zero


def test_scalar_operators_take_ints_and_defer_to_the_other_operand():
    F = gf(5)
    s = F.scalar(3)
    assert s + 1 == F.scalar(4) and 1 + s == F.scalar(4)
    assert s - 4 == F.scalar(4) and s * 2 == F.one and s / 3 == F.one
    assert s == 3 and s == 8 and s != 2 and not (s == "3")
    # Scalar.__mul__ declines an algebra element, and Python hands the
    # product to AlgebraElement.__rmul__
    G = make_group({"kind": "cayley", "table": cyclic_table(3)})
    alg = TwistedGroupAlgebra(G, F)
    x = alg.one + alg.basis_unit(G.element(t=1))
    assert s.__mul__(x) is NotImplemented
    assert s * x == x.scale(s) != x
    for op in (lambda: s + "a", lambda: s - "a", lambda: s * "a",
               lambda: s / "a", lambda: s ** 1.5):
        with pytest.raises(TypeError):
            op()
    with pytest.raises(AttributeError, match="immutable"):
        s.value = 1
    assert s.value == 3


def test_json_round_trip():
    for spec in ({"kind": "prime-power", "p": 5},
                 {"kind": "prime-power", "p": 3, "k": 2, "modulus": [1, 0, 1]},
                 {"kind": "rationals"}):
        field = make_field(spec)
        assert make_field(fields.field_to_json(field)) == field
    q = rationals()
    assert q.scalar("3/4").to_json() == "3/4"
    assert q.scalar("5").to_json() == "5"
    f9 = gf(3, 2, [1, 0, 1])
    assert f9.scalar((1, 2)).to_json() == [1, 2]
    assert gf(7).scalar(12).to_json() == 5


def test_make_field_schema_errors():
    for bad in ({}, {"kind": "float"}, {"kind": "prime-power"},
                {"kind": "prime-power", "p": 4, "k": 0}):
        with pytest.raises(InstanceFormatError):
            make_field(bad)


@given(st.integers(-40, 40), st.integers(-40, 40), st.integers(-40, 40))
def test_gf49_ring_axioms(a, b, c):
    field = gf(7, 2, [4, 0, 1])  # x^2 + 4: -4 = 3 is not a square mod 7
    xs = [field.scalar((x % 7, (x * 3 + 1) % 7)) for x in (a, b, c)]
    x, y, z = xs
    assert (x + y) * z == x * z + y * z
    assert (x * y) * z == x * (y * z)
    assert x * y == y * x


def test_multiplicative_generator_and_order():
    for field in (gf(7), gf(3, 2, [1, 0, 1]), gf(2, 4, [1, 1, 0, 0, 1])):
        n = field.size() - 1
        # the first element of order n generates F*: n distinct powers
        g = next(x for x in field.elements()
                 if x and multiplicative_order(x) == n)
        powers = set()
        acc = field.one
        for _ in range(n):
            powers.add(acc)
            acc = acc * g
        assert len(powers) == n


def test_negative_exponents():
    field = gf(5)
    a = field.scalar(3)
    assert a ** -1 == a.inv()
    assert a ** -3 == (a ** 3).inv()
    q = rationals()
    assert q.scalar(Fraction(2, 3)) ** -2 == q.scalar(Fraction(9, 4))
