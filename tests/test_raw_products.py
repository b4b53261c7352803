"""The raw-value cocycle layer against the Scalar loops it replaced.

`Cocycle` keeps its torsion table as one flat list of raw field values,
and the sparse product `AlgebraElement.__mul__`, `left_regular_matrix`
and the triple loop of `validate_cocycle` compute on raw values.  The
reference functions below are the plain Scalar implementations they
replaced, reading lambda from the Scalar dict the cocycle was built from
(`ref_lambda`), so they share no code with the raw table; they read the
coefficients of an element through `coeff`, the Scalar edge of the raw
terms.  Every raw result must equal the reference: products term by term,
with every term a nonzero canonical raw value, matrices as their canonical
raw values, validation results down to `checked_identities` and the
counterexample triple with its two sides.

The groups carry a central pairing, a bilinear twist of the free part
or a Pruefer part; the fields are GF(7), GF(4), GF(9) and Q; the
cocycles are coboundaries of drawn values with one drawn entry mutated
or not.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcunits import cocycles
from fcunits.algebra import TwistedGroupAlgebra, left_regular_matrix
from fcunits.cocycles import (
    Cocycle,
    coboundary,
    free_box,
    validate_cocycle,
)
from fcunits.errors import CertificateFailed
from fcunits.fields import Scalar, gf, rationals
from fcunits.groups import (
    Group,
    InvariantsTorsion,
    TableTorsion,
    bilinear_exponent,
    cyclic_table,
    finite_subgroup,
    symmetric_group_3_table,
)

FIELDS = [gf(7), gf(2, 2, [1, 1, 1]), gf(3, 2, [1, 0, 1]), rationals()]
RATIONAL_POOL = [1, 2, 3, -1, -2, Fraction(1, 2), Fraction(-3, 2),
                 Fraction(2, 5)]


GROUPS = {
    "pairing": Group(2, InvariantsTorsion((2, 2)),
                     pairing_matrix=[[0, 1], [0, 0]], pairing_target=(1, 0)),
    "pairing-c4": Group(2, InvariantsTorsion((4,)),
                        pairing_matrix=[[0, 1], [0, 0]], pairing_target=(1,)),
    "twist": Group(2, InvariantsTorsion((3,))),
    "prufer": Group(1, InvariantsTorsion((2,)), prufer=(2, 2)),
    "prufer-q3": Group(0, InvariantsTorsion((2,)), prufer=(3, 1)),
    "s3-free": Group(1, TableTorsion(symmetric_group_3_table())),
}


def nonzero_pool(field):
    if field.is_finite():
        return [s for s in field.elements() if s]
    return [field.scalar(Fraction(v)) for v in RATIONAL_POOL]


def pool(field):
    return [field.zero] + nonzero_pool(field)


def drawn_mu(data, group, field):
    """Nonzero values per torsion key, constant along the pairing image so
    the coboundary stays in the representable family."""
    tor = group.torsion
    mu = [data.draw(st.sampled_from(nonzero_pool(field))) for _ in tor.keys()]
    if group.pairing_content:
        shift = group._target_multiple(group.pairing_content)
        seen = set()
        for k in tor.keys():
            j = k
            while j not in seen:
                seen.add(j)
                mu[j] = mu[k]
                j = tor.mul_key(j, shift)
    return mu


def drawn_cocycle(data, group, field, normalized):
    """(cocycle, Scalar table, zeta, matrix): a coboundary, one entry
    possibly mutated, and for rank 2 a drawn bilinear twist."""
    table = dict(coboundary(group, field,
                            drawn_mu(data, group, field)).torsion_table)
    if data.draw(st.booleans()):
        low = 1 if normalized else 0
        i = data.draw(st.integers(low, group.torsion.size - 1))
        j = data.draw(st.integers(low, group.torsion.size - 1))
        factor = data.draw(st.sampled_from(nonzero_pool(field)))
        table[(i, j)] = table.get((i, j), field.one) * factor
    zeta, matrix = field.one, None
    if group.rank == 2:
        zeta = data.draw(st.sampled_from(nonzero_pool(field)))
        matrix = [[0, data.draw(st.integers(-2, 2))], [0, 0]]
    return Cocycle(group, field, table, zeta, matrix), table, zeta, matrix


def ref_lambda(table, zeta, matrix, field, g, h):
    val = table.get((g.t, h.t), field.one)
    if matrix is not None:
        val = val * zeta ** bilinear_exponent(matrix, g.u, h.u)
    return val


def ref_mul(algebra, lam, x, y):
    """The Scalar product loop of `AlgebraElement.__mul__`, on the
    coefficients read through `coeff`."""
    group, zero = algebra.group, algebra.field.zero
    out = {}
    for g in x.terms:
        for h in y.terms:
            gh = group.mul(g, h)
            out[gh] = out.get(gh, zero) + x.coeff(g) * y.coeff(h) * lam(g, h)
    return algebra.element(out.items())


def ref_left_regular_matrix(algebra, subgroup, lam, x):
    """The Scalar loop of `left_regular_matrix`."""
    n = len(subgroup)
    M = [[algebra.field.zero] * n for _ in range(n)]
    for g in x.terms:
        for j, w in enumerate(subgroup.elements):
            i = subgroup.index_of[algebra.group.mul(g, w)]
            M[i][j] = M[i][j] + x.coeff(g) * lam(g, w)
    return M


def ref_validate(group, tau, lam, box_radius):
    """The validator's Scalar triple loop on the torsion table ``tau`` over
    the offset pairs found by one `bilinear_exponent` call per pair of box
    points, the counterexample evaluated through ``lam``:
    (valid, checked, (g, h, k, lhs, rhs) or None)."""
    tor = group.torsion
    zero_u = (0,) * group.rank
    if group.rank == 0 or group.pairing_matrix is None:
        pairs = {(0, 0): (zero_u, zero_u, zero_u)}
    else:
        L, M = group.pairing_order, group.pairing_matrix
        box = free_box(group, box_radius)
        pairs = {}
        for v in box:
            c1_wit, c2_wit = {}, {}
            for u in box:
                c1_wit.setdefault(bilinear_exponent(M, u, v) % L, u)
                c2_wit.setdefault(bilinear_exponent(M, v, u) % L, u)
            for c1, uw in c1_wit.items():
                for c2, ww in c2_wit.items():
                    pairs.setdefault((c1, c2), (uw, v, ww))
    checked = 0
    for (c1, c2), (uw, vw, ww) in pairs.items():
        shift1 = group._target_multiple(c1)
        shift2 = group._target_multiple(c2)
        for x in tor.keys():
            for y in tor.keys():
                for z in tor.keys():
                    checked += 1
                    xy = tor.mul_key(tor.mul_key(x, y), shift1)
                    yz = tor.mul_key(tor.mul_key(y, z), shift2)
                    if tau(x, y) * tau(xy, z) != tau(y, z) * tau(x, yz):
                        g, h, k = (group.from_key(x, uw),
                                   group.from_key(y, vw),
                                   group.from_key(z, ww))
                        gh, hk = group.mul(g, h), group.mul(h, k)
                        return False, checked, (
                            g, h, k, lam(g, h) * lam(gh, k),
                            lam(h, k) * lam(g, hk))
    return True, checked, None


def drawn_element(data, algebra, elements):
    coeffs = pool(algebra.field)
    n = data.draw(st.integers(1, 4))
    return algebra.element(
        [(data.draw(st.sampled_from(elements)),
          data.draw(st.sampled_from(coeffs))) for _ in range(n)])


def box_elements(group):
    return [group.from_key(t, u, s)
            for u in free_box(group, 1) for t in group.torsion.keys()
            for s in range(group.prufer_modulus)]


def assert_canonical(field, values):
    """Each value is a canonical raw value of the field: an int in [0, q)
    over a finite field, a Fraction over Q."""
    for v in values:
        assert type(v) is type(field.raw_zero)
        assert not field.is_finite() or 0 <= v < field.size()


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_products_match_the_scalar_loop(data):
    group = GROUPS[data.draw(st.sampled_from(sorted(GROUPS)))]
    field = data.draw(st.sampled_from(FIELDS))
    coc, table, zeta, matrix = drawn_cocycle(data, group, field, True)
    algebra = TwistedGroupAlgebra(group, field, coc, validate=False)

    def lam(g, h):
        return ref_lambda(table, zeta, matrix, field, g, h)

    elements = box_elements(group)
    for _ in range(3):
        x = drawn_element(data, algebra, elements)
        y = drawn_element(data, algebra, elements)
        got = x * y
        assert got == ref_mul(algebra, lam, x, y)
        assert_canonical(field, got.terms.values())
        assert field.raw_zero not in got.terms.values()
        for g in elements:
            c = got.coeff(g)
            assert isinstance(c, Scalar) and c.field is field
            assert c.value == got.terms.get(g, field.raw_zero)
        g, h = (data.draw(st.sampled_from(elements)) for _ in range(2))
        assert coc(g, h) == lam(g, h)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_regular_matrices_match_the_scalar_loop(data):
    group = GROUPS[data.draw(st.sampled_from(sorted(GROUPS)))]
    field = data.draw(st.sampled_from(FIELDS))
    coc, table, zeta, matrix = drawn_cocycle(data, group, field, True)
    algebra = TwistedGroupAlgebra(group, field, coc, validate=False)
    W = finite_subgroup(group, group.torsion_elements())
    x = drawn_element(data, algebra, list(W.elements))

    def lam(g, h):
        return ref_lambda(table, zeta, matrix, field, g, h)

    # the matrix is raw values; wrapped, it must equal the Scalar loop's
    M = left_regular_matrix(algebra, W, x)
    assert_canonical(field, (v for row in M for v in row))
    got = [[Scalar(field, v) for v in row] for row in M]
    assert got == ref_left_regular_matrix(algebra, W, lam, x)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_validation_matches_the_scalar_loop(data):
    group = GROUPS[data.draw(st.sampled_from(sorted(GROUPS)))]
    field = data.draw(st.sampled_from(FIELDS))
    coc, table, zeta, matrix = drawn_cocycle(data, group, field, False)
    radius = data.draw(st.integers(1, 2))

    def lam(g, h):
        return ref_lambda(table, zeta, matrix, field, g, h)

    def tau(a, b):
        return table.get((a, b), field.one)

    valid, checked, triple = ref_validate(group, tau, lam, radius)
    res = validate_cocycle(group, coc, box_radius=radius)
    assert (res.valid, res.checked_identities) == (valid, checked)
    if not valid:
        ce = res.counterexample
        assert (ce.g, ce.h, ce.k, ce.lhs, ce.rhs) == triple


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_an_all_ones_table_counts_the_identities_of_the_scalar_loop(name):
    # no torsion triple is multiplied out, yet every one is counted, with
    # a bilinear twist on the free part where the rank allows one
    group, field = GROUPS[name], gf(7)
    zeta, matrix = field.one, None
    if group.rank == 2:
        zeta, matrix = field.scalar(3), [[0, 1], [0, 0]]
    coc = Cocycle(group, field, {}, zeta, matrix)

    def lam(g, h):
        return ref_lambda({}, zeta, matrix, field, g, h)

    for radius in (1, 2):
        res = validate_cocycle(group, coc, box_radius=radius)
        assert (res.valid, res.checked_identities) == ref_validate(
            group, lambda a, b: field.one, lam, radius)[:2]


def test_the_table_round_trips_through_scalars():
    field = gf(7)
    group = Group(0, TableTorsion(cyclic_table(3)))
    table = {(1, 2): field.scalar(3), (2, 2): field.one}
    coc = Cocycle(group, field, table)
    assert coc.raw_table == [1, 1, 1, 1, 1, 3, 1, 1, 1]
    assert coc.torsion_table == {(1, 2): field.scalar(3)}
    assert coc.to_json() == {"torsion_table": {"(1,2)": 3}}
    assert coc.is_normalized
    assert not Cocycle(group, field, {(0, 2): field.scalar(2)}).is_normalized
    assert not Cocycle(group, field, {(2, 0): field.scalar(2)}).is_normalized


# --- certificates of the cocycle layer can fire ------------------------------


def _constant_direct_values(monkeypatch):
    # direct evaluation that agrees on both sides of every identity
    monkeypatch.setattr(cocycles.Cocycle, "__call__",
                        lambda self, g, h: self.field.one)
    group = Group(0, TableTorsion(cyclic_table(6)))
    field = gf(7)
    validate_cocycle(group, Cocycle(group, field, {(2, 3): field.scalar(3)}))


def _transposed_coboundary(monkeypatch):
    # a coboundary formula that reads the product in the wrong order
    group = Group(0, TableTorsion(symmetric_group_3_table()))
    table = group.torsion.table
    monkeypatch.setattr(group.torsion, "mul_key", lambda a, b: table[b][a])
    field = gf(7)
    coboundary(group, field, [field.scalar(v) for v in (1, 2, 3, 4, 5, 6)])


@pytest.mark.parametrize("corrupt, message", [
    (_constant_direct_values, "a counterexample must fail the cocycle"),
    (_transposed_coboundary, "a coboundary must satisfy the cocycle"),
], ids=["counterexample", "coboundary"])
def test_broken_cocycle_data_fails_its_certificates(monkeypatch, corrupt,
                                                    message):
    with pytest.raises(CertificateFailed, match=message):
        corrupt(monkeypatch)

