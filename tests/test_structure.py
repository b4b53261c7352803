import itertools
import operator
import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcunits import structure
from fcunits.algebra import TwistedGroupAlgebra
from fcunits.cocycles import Cocycle, trivial_cocycle
from fcunits.errors import (
    CertificateFailed,
    ConditionsNotMet,
    DimensionTooLarge,
    IdealNotNilpotent,
    NotCommutative,
    SupportNotInSubgroup,
    TooLargeToCount,
)
from fcunits.fields import (
    gf,
    poly_divmod,
    poly_factor_rational,
    poly_inv_mod,
    poly_irreducible,
    poly_mul,
    rationals,
)
from fcunits.groups import (
    cyclic_table,
    finite_subgroup,
    make_group,
    symmetric_group_3_table,
)
from fcunits.structure import (
    FDAlgebra,
    FiniteSubalgebra,
    block_structure,
    characteristic_polynomial,
    corner_algebra,
    count_idempotents,
    count_units,
    fields_decomposition,
    jacobson_radical,
    lift_idempotents,
    linear_combination,
    minimal_polynomial,
    primitive_idempotents,
    quotient_algebra,
    span_of,
)


def cayley(table):
    return make_group({"kind": "cayley", "table": table})


def abelian(invariants):
    return make_group({"kind": "central-extension", "rank": 0,
                       "torsion": {"invariants": list(invariants)}})


def whole_group(G):
    return finite_subgroup(G, list(G.torsion_elements()))


def group_algebra_fd(G, field, cocycle=None):
    alg = TwistedGroupAlgebra(G, field, cocycle or trivial_cocycle(G, field))
    return FiniteSubalgebra(alg, whole_group(G))


def carry_cocycle(G, field, n, c):
    table = {}
    for i in range(n):
        for j in range(n):
            if i + j >= n:
                table[(i, j)] = c
    return Cocycle(G, field, table)


def klein_twisted_fd():
    # tau(a, b) = 2^(a2*b1) on C2 x C2 over GF(3); the twisted algebra is
    # the 2x2 matrix algebra, our smallest noncommutative test bed
    G = abelian([2, 2])
    F = gf(3)
    two = F.scalar(2)
    coc = Cocycle(G, F, {(1, 2): two, (1, 3): two, (3, 2): two, (3, 3): two})
    return group_algebra_fd(G, F, coc), F


def dihedral_table(n):
    elems = [(e, a) for e in (0, 1) for a in range(n)]
    index = {el: i for i, el in enumerate(elems)}

    def compose(f, g):
        e1, a1 = f
        e2, a2 = g
        sign = -1 if e1 else 1
        return ((e1 + e2) % 2, (sign * a2 + a1) % n)

    return [[index[compose(a, b)] for b in elems] for a in elems]


def exhaustive_idempotent_count(fd):
    count = 0
    values = [x.value for x in fd.field.elements()]
    for combo in itertools.product(values, repeat=fd.dim):
        if fd.is_idempotent(list(combo)):
            count += 1
    return count


# --- subalgebras and the regular representation -------------------------------


def test_regular_representation_matrix():
    G = cayley(cyclic_table(2))
    F = gf(3)
    sub = group_algebra_fd(G, F, Cocycle(G, F, {(1, 1): F.scalar(2)}))
    fd = sub.fd
    # basis is (u_1, u_g); u_g u_1 = u_g and u_g u_g = 2
    M = fd.left_mult_matrix(fd.basis_vec(1))
    assert M == [[0, 2], [1, 0]]


def test_subalgebra_ambient_round_trip():
    G = abelian([2, 3])
    F = gf(5)
    sub = group_algebra_fd(G, F)
    x = sub.algebra.element(
        [(g, F.from_int(i + 1)) for i, g in enumerate(sub.subgroup.elements)])
    assert sub.to_ambient(sub.from_ambient(x)) == x
    v = [F.from_int(i).value for i in range(6)]
    assert sub.from_ambient(sub.to_ambient(v)) == v
    # a proper subgroup's vector has no coordinate for a unit outside it
    c3 = FiniteSubalgebra(sub.algebra,
                          finite_subgroup(G, [G.element(t=(0, 1))]))
    with pytest.raises(SupportNotInSubgroup):
        c3.from_ambient(sub.algebra.basis_unit(G.element(t=(1, 0))))


def test_trace_vector_matches_matrix_trace():
    sub, F = klein_twisted_fd()
    fd = sub.fd
    rng = random.Random(2)
    for _ in range(10):
        x = [rng.randrange(3) for _ in range(fd.dim)]
        M = fd.left_mult_matrix(x)
        diag = sum(M[i][i] for i in range(fd.dim)) % 3
        assert sum(map(operator.mul, x, fd.trace_vector())) % 3 == diag


# --- radical -------------------------------------------------------------------


def test_radical_dims_group_algebras():
    cases = [
        (gf(2), [2], 1),
        (gf(2), [2, 3], 3),
        (gf(3), [3], 2),
        (gf(3), [2], 0),
        (gf(5), [4], 0),
    ]
    for F, invs, expected in cases:
        fd = group_algebra_fd(abelian(invs), F).fd
        rr = jacobson_radical(fd)
        assert len(rr.basis) == expected, (F, invs)
        if expected:
            assert rr.method == "frobenius-kernel"


def test_radical_gf2_c2_basis_frozen():
    F = gf(2)
    fd = group_algebra_fd(abelian([2]), F).fd
    rr = jacobson_radical(fd)
    assert rr.basis == [[1, 1]]
    assert rr.nilpotency_index == 2


def test_radical_gf2_c6_basis_frozen():
    F = gf(2)
    fd = group_algebra_fd(cayley(cyclic_table(6)), F).fd
    rr = jacobson_radical(fd)
    one, zero = F.raw_one, F.raw_zero
    assert rr.basis == [
        [one, zero, zero, one, zero, zero],
        [zero, one, zero, zero, one, zero],
        [zero, zero, one, zero, zero, one],
    ]
    assert rr.nilpotency_index == 2


def test_radical_rationals_trace_form():
    fd = group_algebra_fd(abelian([3]), rationals()).fd
    rr = jacobson_radical(fd)
    assert rr.basis == []
    assert rr.method == "trace-form"


def test_radical_frobenius_pullback_over_gf4():
    # u^2 = w forces the nilpotents onto w^2 + u, whose kernel description
    # needs the inverse-Frobenius pullback over GF(4)
    F = gf(2, 2, [1, 1, 1])
    w = F.scalar((0, 1))
    G = cayley(cyclic_table(2))
    fd = group_algebra_fd(G, F, Cocycle(G, F, {(1, 1): w})).fd
    rr = jacobson_radical(fd)
    assert rr.method == "frobenius-kernel"
    assert rr.basis == [[(w * w).value, F.raw_one]]
    nil = rr.basis[0]
    assert fd.is_zero(fd.mul(nil, nil))


def test_radical_noncommutative_s3():
    table = symmetric_group_3_table()
    fd2 = group_algebra_fd(cayley(table), gf(2)).fd
    rr2 = jacobson_radical(fd2)
    assert rr2.method == "coefficient-chain"
    assert len(rr2.basis) == 1
    assert structure.span_of(fd2, rr2.basis).contains([1] * 6)

    fd3 = group_algebra_fd(cayley(table), gf(3)).fd
    rr3 = jacobson_radical(fd3)
    assert len(rr3.basis) == 4

    for F in (gf(5), rationals()):
        assert not jacobson_radical(group_algebra_fd(cayley(table), F).fd).basis


def test_semisimplicity_matches_characteristic_sweep():
    shapes = [
        ("cyclic2", cayley(cyclic_table(2)), 2),
        ("cyclic3", cayley(cyclic_table(3)), 3),
        ("cyclic4", cayley(cyclic_table(4)), 4),
        ("klein", abelian([2, 2]), 4),
        ("cyclic6", cayley(cyclic_table(6)), 6),
        ("sym3", cayley(symmetric_group_3_table()), 6),
    ]
    for F in (gf(2), gf(3), gf(5), rationals()):
        for name, G, order in shapes:
            fd = group_algebra_fd(G, F).fd
            expected = F.characteristic == 0 or order % F.characteristic != 0
            assert (not jacobson_radical(fd).basis) == expected, (name, F)


def test_radical_noncommutative_dimension_cap():
    fd = group_algebra_fd(cayley(dihedral_table(17)), gf(2)).fd
    assert fd.dim == 34
    with pytest.raises(DimensionTooLarge):
        jacobson_radical(fd)


# --- polynomials ----------------------------------------------------------------


def test_minimal_polynomial_frozen():
    G = cayley(cyclic_table(2))
    F = gf(3)
    fd = group_algebra_fd(G, F, Cocycle(G, F, {(1, 1): F.scalar(2)})).fd
    u = fd.basis_vec(1)
    assert minimal_polynomial(fd, u) == (1, 0, 1)                   # t^2 + 1
    assert minimal_polynomial(fd, fd.scale(fd.one, 2)) == (1, 1)    # t + 1
    assert minimal_polynomial(fd, fd.one) == (2, 1)                 # t - 1


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2), min_size=4, max_size=4))
def test_minimal_polynomial_annihilates(coeffs):
    F = gf(3)
    fd = group_algebra_fd(cayley(cyclic_table(4)), F).fd
    m = minimal_polynomial(fd, coeffs)
    assert m[-1] == F.raw_one
    assert len(m) - 1 <= fd.dim
    powers = [fd.one]
    for _ in m[1:]:
        powers.append(fd.mul(powers[-1], coeffs))
    assert fd.is_zero(linear_combination(fd, m, powers))


def poly_product(field, factors):
    out = [field.one]
    for f in factors:
        new = [field.zero] * (len(out) + len(f) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(f):
                new[i + j] = new[i + j] + a * b
        out = new
    return out


def test_characteristic_polynomial_frozen():
    assert characteristic_polynomial(gf(3), [[0, 2], [1, 0]]) == (1, 0, 1)
    companion = [[0, 0, 4], [1, 0, 3], [0, 1, 0]]           # -1, -2 mod 5
    assert characteristic_polynomial(gf(5), companion) == \
        (1, 2, 0, 1)                                      # t^3 + 2t + 1


def test_characteristic_polynomial_triangular():
    F = gf(7)
    rng = random.Random(9)
    for _ in range(15):
        n = rng.randrange(1, 6)
        M = [[F.from_int(rng.randrange(7)) if j >= i else F.zero
              for j in range(n)] for i in range(n)]
        expected = poly_product(
            F, [[-M[i][i], F.one] for i in range(n)])
        raw_M = [[c.value for c in row] for row in M]
        assert characteristic_polynomial(F, raw_M) == \
            tuple(c.value for c in expected)


def test_poly_irreducible_finite():
    F3, F2 = gf(3), gf(2)
    F4 = gf(2, 2, [1, 1, 1])
    w, one, zero = F4.scalar([0, 1]).value, F4.raw_one, F4.raw_zero

    def poly(field, ints):
        return tuple(field.from_int(c).value for c in ints)

    assert poly_irreducible(F3, poly(F3, [1, 0, 1]))
    assert not poly_irreducible(F3, poly(F3, [-1, 0, 1]))
    assert poly_irreducible(F2, poly(F2, [1, 1, 1]))
    assert poly_irreducible(F2, poly(F2, [1, 1, 0, 1]))
    assert not poly_irreducible(F2, poly(F2, [1, 0, 1, 0, 1]))
    assert poly_irreducible(F4, (w, one, one))
    assert not poly_irreducible(F4, (w, zero, one))


# --- idempotents ----------------------------------------------------------------


def test_primitive_idempotents_gf3_c2_frozen():
    F = gf(3)
    fd = group_algebra_fd(cayley(cyclic_table(2)), F).fd
    prims = primitive_idempotents(fd)
    got = {tuple(e) for e in prims}
    assert got == {(2, 2), (2, 1)}


ANNIHILATED = "a split idempotent is not annihilated by its factor at b"
SPLIT_SUM = "the split idempotents do not sum to the corner identity"


@pytest.mark.parametrize("pairs, message", [
    # 2 e_1 is no idempotent, and the family still sums to 1, so the
    # second, e_2 - e_1, is not annihilated by b - r_2
    ([(2, 0), (-1, 1)], ANNIHILATED),
    # idempotents with 3 e_1 + e_2 = 1 in GF(3), but the first two
    # multiply to e_1, not 0; the second sits at the other root
    ([(1, 0), (1, 0), (1, 0), (1, 1)], ANNIHILATED),
    ([(1, 0)], SPLIT_SUM),
], ids=["idempotent", "orthogonal", "sum-to-one"])
def test_each_primitive_idempotent_certificate_fires(monkeypatch, pairs,
                                                     message):
    # (a, b) is a e_1 + b e_2 in the split e_1, e_2 of GF(3)[C2] that the
    # Lagrange step makes, e_i at the i-th root of the splitter
    fd = group_algebra_fd(cayley(cyclic_table(2)), gf(3)).fd
    lagrange = structure._lagrange_idempotents

    def bad_family(fd, powers, m, roots):
        split = lagrange(fd, powers, m, roots)
        return [linear_combination(fd, [fd.field._canonical(a),
                                        fd.field._canonical(c)], split)
                for a, c in pairs]
    monkeypatch.setattr(structure, "_lagrange_idempotents", bad_family)
    with pytest.raises(CertificateFailed, match=message):
        primitive_idempotents(fd)


@pytest.mark.parametrize("pairs, message", [
    # the family sums to 1, but 2 e_1 is no idempotent and e_2 - e_1 is
    # not annihilated by u + 1
    ([(2, 0), (-1, 1)], ANNIHILATED),
    # idempotents that are not orthogonal: u + 1 does not annihilate e_1
    ([(1, 0), (1, 0)], ANNIHILATED),
    ([(1, 0)], SPLIT_SUM),
], ids=["idempotent", "orthogonal", "sum-to-one"])
def test_each_rational_family_certificate_fires(monkeypatch, pairs, message):
    # (a, b) is a e_1 + b e_2 in the split e_1, e_2 of Q[C2] that the
    # Chinese-remainder step makes at the factors u - 1 and u + 1
    F = rationals()
    fd = group_algebra_fd(cayley(cyclic_table(2)), F).fd
    crt = structure._crt_idempotents

    def bad_family(fd, powers, m, moduli):
        split = crt(fd, powers, m, moduli)
        return [linear_combination(fd, [F._canonical(a), F._canonical(b)],
                                   split) for a, b in pairs]
    monkeypatch.setattr(structure, "_crt_idempotents", bad_family)
    with pytest.raises(CertificateFailed, match=message):
        primitive_idempotents(fd)


def test_idempotent_count_klein_group_algebra():
    F = gf(3)
    fd = group_algebra_fd(abelian([2, 2]), F).fd
    assert len(primitive_idempotents(fd)) == 4
    assert count_idempotents(fd) == 16
    assert exhaustive_idempotent_count(fd) == 16


def test_idempotent_counts_match_exhaustive_sweep():
    cases = [
        (gf(2), 4, 2),    # local: only 0 and 1
        (gf(2), 6, 4),
        (gf(3), 3, 2),
        (gf(5), 2, 4),
        (gf(7), 2, 4),
    ]
    for F, n, expected in cases:
        fd = group_algebra_fd(cayley(cyclic_table(n)), F).fd
        assert count_idempotents(fd) == expected, (F, n)
        assert exhaustive_idempotent_count(fd) == expected, (F, n)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4)]),
       st.integers(min_value=1, max_value=10))
def test_twisted_cyclic_idempotent_counts_match_exhaustive(shape, craw):
    p, n = shape
    F = gf(p)
    c = F.from_int(craw)
    if not c:
        c = F.one
    G = cayley(cyclic_table(n))
    fd = group_algebra_fd(G, F, carry_cocycle(G, F, n, c)).fd
    assert count_idempotents(fd) == exhaustive_idempotent_count(fd)


def test_primitive_idempotents_reject_noncommutative():
    sub, _ = klein_twisted_fd()
    with pytest.raises(NotCommutative) as exc:
        primitive_idempotents(sub.fd)
    assert exc.value.witness is not None


def test_count_idempotents_matrix_algebra():
    sub, _ = klein_twisted_fd()
    # 2x2 matrices over GF(3): 0, 1, and q^2 + q rank-one projections
    assert count_idempotents(sub.fd) == 14
    assert block_structure(sub.fd).blocks == [(2, 1)]
    # over Q the same twist is the quaternion algebra (-1, -1), whose
    # count the block structure does not decide
    G, Q = abelian([2, 2]), rationals()
    m = Q.from_int(-1)
    coc = Cocycle(G, Q, {(1, 2): m, (1, 3): m, (3, 2): m, (3, 3): m})
    fd = group_algebra_fd(G, Q, coc).fd
    assert not block_structure(fd).radical.basis
    with pytest.raises(TooLargeToCount, match="not decided over Q"):
        count_idempotents(fd)


@pytest.mark.parametrize("table, field, count, blocks, coupling", [
    # GF(3)[S3] / J = GF(3) + GF(3), each rank-one idempotent lifting
    # along q^2 of J's off-diagonal part: 2 + 2 * 3^2
    (symmetric_group_3_table(), gf(3), 20, [(1, 1), (1, 1)],
     [[1, 1], [1, 1]]),
    # GF(7)[S3] = GF(7) + GF(7) + M2(GF(7)): 2 * 2 * (1 + 56 + 1)
    (symmetric_group_3_table(), gf(7), 232, [(2, 1), (1, 1), (1, 1)],
     [[0] * 3] * 3),
    # GF(3)[D6] = GF(3)[S3] x GF(3)[S3]: two coupled pairs, 20^2
    (dihedral_table(6), gf(3), 400, [(1, 1)] * 4,
     [[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 1], [0, 0, 1, 1]]),
    # GF(2)[D5] = GF(2)[C2] (local, J of dimension 1) + M2(GF(4))
    (dihedral_table(5), gf(2), 44, [(1, 1), (2, 2)], [[1, 0], [0, 0]]),
], ids=["s3-gf3", "s3-gf7", "d6-gf3", "d5-gf2"])
def test_count_idempotents_from_the_blocks(table, field, count, blocks,
                                           coupling):
    fd = group_algebra_fd(cayley(table), field).fd
    bs = block_structure(fd)
    assert bs.blocks == blocks
    assert bs.coupling == coupling
    assert count_idempotents(fd) == count


def test_count_units_from_the_radical_and_the_components():
    # GF(2)[C6] = GF(2)[x]/(x - 1)^2 x GF(2)[x]/(x^2 + x + 1)^2: 2 * 12
    assert count_units(group_algebra_fd(abelian([6]), gf(2)).fd) == 24
    # GF(3)[S3]: J of dimension 4 over GF(3) + GF(3), 3^4 * 2 * 2
    fd = group_algebra_fd(cayley(symmetric_group_3_table()), gf(3)).fd
    assert count_units(fd) == 324
    with pytest.raises(TooLargeToCount, match="infinitely many units"):
        count_units(group_algebra_fd(abelian([2]), rationals()).fd)


def test_noncommutative_count_above_the_radical_cap():
    fd = group_algebra_fd(cayley(dihedral_table(17)), gf(2)).fd
    with pytest.raises(DimensionTooLarge):
        count_idempotents(fd)


def _one_central_idempotent(monkeypatch):
    original = structure.primitive_idempotents
    monkeypatch.setattr(structure, "primitive_idempotents",
                        lambda fd, seed=0: original(fd, seed)[:1])


def _unlifted(monkeypatch):
    monkeypatch.setattr(structure, "lift_idempotents",
                        lambda fd, ideal_span, xs: list(xs))


@pytest.mark.parametrize("corrupt, message", [
    (_one_central_idempotent, "do not fill the semisimple quotient"),
    (_unlifted, "lift is not idempotent"),
], ids=["missing-block", "unlifted"])
def test_broken_block_data_fails_its_certificates(monkeypatch, corrupt,
                                                  message):
    # the central idempotents of GF(2)[S3] / J, read back in GF(2)[S3],
    # are idempotent only after lift_idempotents
    fd = group_algebra_fd(cayley(symmetric_group_3_table()), gf(2)).fd
    corrupt(monkeypatch)
    with pytest.raises(CertificateFailed, match=message):
        block_structure(fd)


def _merge_first_two_central_idempotents(monkeypatch):
    original = structure.primitive_idempotents

    def merged(fd, seed=0):
        e = original(fd, seed)
        return (fd.add(e[0], e[1]),) + e[2:]

    monkeypatch.setattr(structure, "primitive_idempotents", merged)


def _every_lift_is_one(monkeypatch):
    monkeypatch.setattr(structure, "lift_idempotents",
                        lambda fd, ideal_span, xs: [list(fd.one) for _ in xs])


@pytest.mark.parametrize("table, field, corrupt, message", [
    # GF(7)[S3] = M2(GF(7)) + GF(7) + GF(7): the merged first two blocks
    # have dimension 5 over a center of dimension 2
    (symmetric_group_3_table(), gf(7), _merge_first_two_central_idempotents,
     "is no full matrix algebra"),
    # GF(2)[S3] = GF(2)[C2] + M2(GF(2)), J of dimension 1: with 1 for both
    # lifts, dim f_i J f_j = 1 for the pair of sizes 2 and 1
    (symmetric_group_3_table(), gf(2), _every_lift_is_one,
     "is not a multiple of"),
    # GF(3)[S3] has two 1 x 1 blocks and J of dimension 4: with 1 for both
    # lifts, each of the four couplings counts all of J
    (symmetric_group_3_table(), gf(3), _every_lift_is_one,
     "do not add up to the radical"),
], ids=["block-dimension", "coupling-divisibility", "coupling-sum"])
def test_broken_block_shapes_fail_their_certificates(monkeypatch, table,
                                                     field, corrupt,
                                                     message):
    fd = group_algebra_fd(cayley(table), field).fd
    corrupt(monkeypatch)
    with pytest.raises(CertificateFailed, match=message):
        block_structure(fd)


def test_subquotient_rejects_vectors_outside_its_span():
    # the corner of GF(5)[C4] at a primitive idempotent e is the line
    # spanned by e, which holds neither 1 nor u; and the span of u alone
    # does not hold the product u u = u^2
    fd = group_algebra_fd(cayley(cyclic_table(4)), gf(5)).fd
    corner = corner_algebra(fd, primitive_idempotents(fd)[0])
    message = "vector outside the span of the ideal and the basis"
    with pytest.raises(CertificateFailed, match=message):
        corner.project(fd.basis_vec(1))
    with pytest.raises(CertificateFailed, match=message):
        structure.Subquotient(fd, [], [fd.basis_vec(1)], fd.one)


def _radical_candidate(monkeypatch, make):
    """Replace the first radical candidate by make(fd)."""
    original = structure._radical_raw
    calls = []

    def replaced(fd):
        basis, method = original(fd)
        calls.append(fd)
        return (make(fd) if len(calls) == 1 else basis), method

    monkeypatch.setattr(structure, "_radical_raw", replaced)


def test_radical_candidate_that_is_no_ideal_fails_its_certificate(
        monkeypatch):
    # in GF(3)[C3] the span of u is not closed under u * u = u^2
    fd = group_algebra_fd(cayley(cyclic_table(3)), gf(3)).fd
    _radical_candidate(monkeypatch, lambda fd: [fd.basis_vec(1)])
    with pytest.raises(CertificateFailed,
                       match="radical candidate is not an ideal"):
        jacobson_radical(fd)


def test_radical_candidate_with_the_identity_fails_its_certificate(
        monkeypatch):
    # the whole algebra is an ideal holding 1; only a wrong nilpotency
    # proof lets it reach the identity check
    fd = group_algebra_fd(cayley(cyclic_table(3)), gf(3)).fd
    _radical_candidate(monkeypatch, lambda fd: [fd.basis_vec(i)
                                                for i in range(fd.dim)])
    monkeypatch.setattr(structure, "ideal_nilpotency_index",
                        lambda fd, span: 2)
    with pytest.raises(CertificateFailed,
                       match="radical candidate contains the identity"):
        jacobson_radical(fd)


def test_lost_root_fails_the_splitting_certificate(monkeypatch):
    # a q-fixed element of GF(5)[C4] has a minimal polynomial with all its
    # roots in GF(5); dropping one must not pass for a split
    fd = group_algebra_fd(cayley(cyclic_table(4)), gf(5)).fd
    original = structure.poly_roots
    monkeypatch.setattr(structure, "poly_roots",
                        lambda F, m: original(F, m)[1:])
    with pytest.raises(CertificateFailed,
                       match="a q-fixed element splits over GF"):
        primitive_idempotents(fd)


def ref_bezout_idempotents(fd, powers, m, roots):
    """The CRT idempotents of the moduli t - r, one Bezout inverse each,
    on b's powers rebuilt from e and b e: E_r = h ((h^-1) mod (t - r))
    with h = m / (t - r)."""
    F = fd.field
    rebuilt = [powers[0]]
    for _ in range(len(m) - 2):
        rebuilt.append(fd.mul(rebuilt[-1], powers[1]))
    out = []
    for r in roots:
        g = (F.reduce(F.raw_neg(r)), F.raw_one)
        h = poly_divmod(F, m, g)[0]
        out.append(linear_combination(
            fd, poly_mul(F, poly_inv_mod(F, h, g), h), rebuilt))
    return out


def _twisted_gf9_c8():
    # u^8 = -1 over GF(9) = GF(3)[x] / (x^2 + 1) splits at four roots
    G, F = abelian([8]), gf(3, 2, [1, 0, 1])
    return group_algebra_fd(G, F, carry_cocycle(G, F, 8, F.scalar([2, 0])))


@pytest.mark.parametrize("build", [
    lambda: group_algebra_fd(cayley(cyclic_table(16)), gf(257)),
    lambda: group_algebra_fd(cayley(cyclic_table(4)), gf(5)),
    _twisted_gf9_c8,
    # a split at four roots, then four corners split at two
    lambda: group_algebra_fd(abelian([12]), gf(5)),
], ids=["c16-gf257", "c4-gf5", "twisted-c8-gf9", "c12-gf5"])
def test_lagrange_idempotents_match_bezout_crt(monkeypatch, build):
    # every split the recursion makes, at the top and in its corners
    splits = []
    original = structure._lagrange_idempotents

    def spy(fd, powers, m, roots):
        got = original(fd, powers, m, roots)
        splits.append((fd, powers, m, roots, got))
        return got
    monkeypatch.setattr(structure, "_lagrange_idempotents", spy)
    primitive_idempotents(build().fd)
    assert splits
    for fd, powers, m, roots, got in splits:
        assert len(roots) == len(m) - 1 == len(powers)
        assert got == ref_bezout_idempotents(fd, powers, m, roots)


def test_crt_idempotents_split_off_a_nilpotent_factor_power():
    # Q[t] / (t^3 - t^2) on the basis 1, t, t^2: b = t has minimal
    # polynomial t^2 (t - 1), whose factor power t^2 carries the nilpotent
    # part; E_(t^2) = 1 - t^2 and E_(t - 1) = t^2
    F = rationals()
    rows = [[(j, [(min(i + j, 2), F.raw_one)]) for j in range(3)]
            for i in range(3)]
    fd = FDAlgebra(F, rows, [F.raw_one, F.raw_zero, F.raw_zero])
    b = fd.basis_vec(1)
    m, powers = structure._krylov(fd, b, fd.one)
    assert m == (0, 0, -1, 1)
    got = structure._crt_idempotents(fd, powers, m, [(0, 0, 1), (-1, 1)])
    assert got == [[1, 0, -1], [0, 0, 1]]
    e, f = got
    assert fd.is_idempotent(e) and fd.is_idempotent(f)
    assert fd.is_zero(fd.mul(e, f))
    assert fd.add(e, f) == fd.one


def test_rational_split_takes_every_factor_at_once(monkeypatch):
    # u has minimal polynomial t^12 - 1 in Q[C12], the product of the six
    # cyclotomic polynomials of the divisors of 12: one Chinese-remainder
    # step makes all six idempotents, and every corner is then a field
    calls = []
    original = structure._crt_idempotents
    monkeypatch.setattr(structure, "_crt_idempotents",
                        lambda fd, powers, m, moduli:
                        calls.append(len(moduli))
                        or original(fd, powers, m, moduli))
    fd = group_algebra_fd(abelian([12]), rationals()).fd
    assert len(primitive_idempotents(fd)) == 6
    assert calls == [6]


# The order in which the corner recursion hands out primitives, and so the
# order of the field components, on algebras that do not split into
# lines.  Finite primitives are written as the digits of their
# coordinates.
ORDER_PINS = [
    ([7], gf(2), [3, 1, 3], ["1110100", "1111111", "1001011"]),
    ([8], gf(3), [2, 2, 1, 2, 1],
     ["10201020", "11012202", "21212121", "12022101", "22222222"]),
    ([21], gf(2), [3, 6, 1, 3, 6, 2],
     ["100101110010111001011", "000001010010011001011",
      "111111111111111111111", "111010011101001110100",
      "011010011001001010000", "011011011011011011011"]),
    ([6], rationals(), [1, 1, 2, 2],
     ["1/6 1/6 1/6 1/6 1/6 1/6", "1/6 -1/6 1/6 -1/6 1/6 -1/6",
      "1/3 1/6 -1/6 -1/3 -1/6 1/6", "1/3 -1/6 -1/6 1/3 -1/6 -1/6"]),
    # splits that nest corners several levels deep
    ([15], gf(2), [1, 2, 4, 4, 4],
     ["111111111111111", "011011011011011", "011110101100100",
      "011110111101111", "000100110101111"]),
    ([45], gf(2), [1, 2, 6, 12, 4, 4, 4, 12],
     ["111111111111111111111111111111111111111111111",
      "011011011011011011011011011011011011011011011",
      "000100100000100100000100100000100100000100100",
      "000100100100100000100000100100000000100000000",
      "011110101100100011110101100100011110101100100",
      "011110111101111011110111101111011110111101111",
      "000100110101111000100110101111000100110101111",
      "000000000100000000100100000100000100100100100"]),
    ([12], rationals(), [1, 1, 2, 2, 2, 4],
     ["1/12 1/12 1/12 1/12 1/12 1/12 1/12 1/12 1/12 1/12 1/12 1/12",
      "1/12 -1/12 1/12 -1/12 1/12 -1/12 1/12 -1/12 1/12 -1/12 1/12 -1/12",
      "1/6 1/12 -1/12 -1/6 -1/12 1/12 1/6 1/12 -1/12 -1/6 -1/12 1/12",
      "1/6 0 -1/6 0 1/6 0 -1/6 0 1/6 0 -1/6 0",
      "1/6 -1/12 -1/12 1/6 -1/12 -1/12 1/6 -1/12 -1/12 1/6 -1/12 -1/12",
      "1/3 0 1/6 0 -1/6 0 -1/3 0 -1/6 0 1/6 0"]),
    ([24], rationals(), [1, 1, 2, 2, 2, 4, 4, 8],
     [" ".join(["1/24"] * 24), " ".join(["1/24 -1/24"] * 12),
      " ".join(["1/12 1/24 -1/24 -1/12 -1/24 1/24"] * 4),
      " ".join(["1/12 0 -1/12 0"] * 6),
      " ".join(["1/12 -1/24 -1/24"] * 8),
      " ".join(["1/6 0 1/12 0 -1/12 0 -1/6 0 -1/12 0 1/12 0"] * 2),
      " ".join(["1/6 0 0 0 -1/6 0 0 0"] * 3),
      " ".join(["1/3 0 0 0 1/6 0 0 0 -1/6 0 0 0 -1/3 0 0 0 -1/6 0 0 0"
                " 1/6 0 0 0"])]),
    # u splits Q[C4 x C4] at its three factors, then v each corner
    ([4, 4], rationals(), [1, 1, 2, 1, 1, 2, 2, 2, 2, 2],
     [" ".join(["1/16"] * 16),
      " ".join(["1/16"] * 4 + ["-1/16"] * 4 + ["1/16"] * 4 + ["-1/16"] * 4),
      " ".join(["1/8"] * 4 + ["0"] * 4 + ["-1/8"] * 4 + ["0"] * 4),
      " ".join(["1/16 -1/16"] * 8),
      " ".join(["1/16 -1/16 1/16 -1/16 -1/16 1/16 -1/16 1/16"] * 2),
      " ".join(["1/8 -1/8 1/8 -1/8 0 0 0 0 -1/8 1/8 -1/8 1/8 0 0 0 0"]),
      " ".join(["1/8 0 -1/8 0"] * 4),
      " ".join(["1/8 0 -1/8 0 -1/8 0 1/8 0"] * 2),
      " ".join(["1/8 0 -1/8 0 0 1/8 0 -1/8 -1/8 0 1/8 0 0 -1/8 0 1/8"]),
      " ".join(["1/8 0 -1/8 0 0 -1/8 0 1/8 -1/8 0 1/8 0 0 1/8 0 -1/8"])]),
]


@pytest.mark.parametrize("invariants, field, dims, prims", ORDER_PINS,
                         ids=["gf2-c7", "gf3-c8", "gf2-c21", "q-c6",
                              "gf2-c15", "gf2-c45", "q-c12", "q-c24",
                              "q-c4xc4"])
def test_components_and_primitives_keep_their_order(invariants, field, dims,
                                                    prims):
    fd = group_algebra_fd(abelian(invariants), field).fd
    assert [c.dim for c in fields_decomposition(fd).components] == dims
    sep = "" if field.is_finite() else " "
    assert [sep.join(map(str, e)) for e in primitive_idempotents(fd)] \
        == prims


@pytest.mark.parametrize("invariants, field", [([21], gf(2)),
                                               ([6], rationals())],
                         ids=["gf2-c21", "q-c6"])
def test_commutative_split_builds_no_subquotient(monkeypatch, invariants,
                                                 field):
    # the corners of a commutative split are held in the algebra's own
    # coordinates, as an idempotent and its corner basis
    fd = group_algebra_fd(abelian(invariants), field).fd
    built = []
    original = structure.Subquotient.__init__
    monkeypatch.setattr(structure.Subquotient, "__init__",
                        lambda self, *args: built.append(args)
                        or original(self, *args))
    assert len(primitive_idempotents(fd)) < fd.dim
    assert fields_decomposition(fd).is_sum_of_fields
    assert built == []


# --- sum-of-fields reports --------------------------------------------------------


def test_twisted_gf3_c2_is_a_field():
    G = cayley(cyclic_table(2))
    F = gf(3)
    fd = group_algebra_fd(G, F, Cocycle(G, F, {(1, 1): F.scalar(2)})).fd
    report = fields_decomposition(fd)
    assert report.is_sum_of_fields
    assert len(report.components) == 1
    comp = report.components[0]
    assert comp.dim == 2
    assert comp.description == "GF(3^2)"
    assert count_idempotents(fd) == 2


def test_gf5_c4_splits_into_lines():
    fd = group_algebra_fd(cayley(cyclic_table(4)), gf(5)).fd
    report = fields_decomposition(fd)
    assert report.is_sum_of_fields
    assert [c.dim for c in report.components] == [1, 1, 1, 1]
    assert {c.description for c in report.components} == {"GF(5^1)"}
    total = fd.zero_vec()
    for comp in report.components:
        assert fd.is_idempotent(comp.idempotent)
        assert len(comp.min_poly) - 1 == comp.dim
        total = fd.add(total, comp.idempotent)
    assert total == fd.one


LINE_CASES = [(4, 5), (6, 7), (8, 17), (16, 257)]


@pytest.mark.parametrize("n, q", LINE_CASES,
                         ids=[f"c{n}-gf{q}" for n, q in LINE_CASES])
def test_cyclic_algebra_splits_into_lines_in_closed_form(n, q):
    # n | q - 1, so GF(q)[C_n] is the sum of n copies of GF(q), one per
    # n-th root of unity, and each component is the line through its
    # primitive idempotent
    fd = group_algebra_fd(cayley(cyclic_table(n)), gf(q)).fd
    report = fields_decomposition(fd)
    assert report.is_sum_of_fields
    assert [(c.dim, c.description) for c in report.components] == \
        [(1, f"GF({q}^1)")] * n
    assert count_idempotents(fd) == 2 ** n
    for comp in report.components:
        assert comp.generator == comp.idempotent
        assert comp.min_poly == (q - 1, 1)


@pytest.mark.parametrize("n, q", LINE_CASES,
                         ids=[f"c{n}-gf{q}" for n, q in LINE_CASES])
def test_line_components_match_the_corner_path(monkeypatch, n, q):
    # the all-lines shortcut computes no corner basis, and gives the
    # components that the corner bases would
    fd = group_algebra_fd(cayley(cyclic_table(n)), gf(q)).fd
    bases = []
    original = structure.corner_basis
    monkeypatch.setattr(structure, "corner_basis",
                        lambda fd, e: bases.append(e) or original(fd, e))
    report = fields_decomposition(fd)
    assert bases == []
    leaves = fd._primitives[0][1]
    assert [e for e, _, _ in leaves] == list(report.primitives)
    assert all(basis == [e] and gen is None for e, basis, gen in leaves)
    rng = random.Random(0)
    corners = [structure._field_component(
        fd, (e, list(original(fd, e).values()), None), rng)
        for e in report.primitives]
    assert len(corners) == n

    def shapes(components):
        return [(c.dim, c.description, c.generator, c.min_poly)
                for c in components]

    assert shapes(corners) == shapes(report.components)


@pytest.mark.parametrize("invariants, field", [([15], gf(2)), ([12], gf(3)),
                                               ([12], rationals())],
                         ids=["gf2-c15", "gf3-c12", "q-c12"])
def test_corner_basis_over_its_parent_indices_is_the_same(invariants, field):
    # for e under e', only the indices that corner_basis(fd, e') picked can
    # be picked for e; GF(3)[C12] has a radical
    fd = group_algebra_fd(abelian(invariants), field).fd
    prims = primitive_idempotents(fd)
    for e, f in itertools.combinations(prims, 2):
        parent = structure.corner_basis(fd, fd.add(e, f))
        assert len(parent) < fd.dim
        for child in (e, f):
            assert structure.corner_basis(fd, child, parent) \
                == structure.corner_basis(fd, child)


def test_rational_split_runs_the_trace_form_once(monkeypatch):
    # the radical candidate, its rerun for an empty candidate and the
    # rational split read one trace-form kernel, kept on the algebra
    from fcunits import fc

    calls = []
    original = structure._trace_form_kernel
    monkeypatch.setattr(structure, "_trace_form_kernel",
                        lambda fd: calls.append(fd) or original(fd))
    rep = fc.structure_report(fc.instance_from_json({
        "field": {"kind": "rationals"},
        "group": {"kind": "central-extension", "rank": 1,
                  "torsion": {"invariants": [12]}},
        "cocycle": {}}))
    assert rep["primitive_idempotents"] == 6
    assert len(calls) == 1


def test_zero_idempotent_in_a_full_primitive_set_fails(monkeypatch):
    # leaves at [e1 + e2, 0, e3, e4] in GF(5)[C4] are orthogonal
    # idempotents that sum to 1, one per dimension, but 0 is no primitive
    original = structure._split

    def merged(fd, one, basis, rng):
        leaves = original(fd, one, basis, rng)
        e = [fd.add(leaves[0][0], leaves[1][0]), fd.zero_vec()]
        return [(f, [f], None) for f in e] + leaves[2:]

    monkeypatch.setattr(structure, "_split", merged)
    fd = group_algebra_fd(cayley(cyclic_table(4)), gf(5)).fd
    with pytest.raises(CertificateFailed,
                       match="primitive idempotents are nonzero"):
        fields_decomposition(fd)


@pytest.mark.parametrize("n, q", [(4, 5), (16, 257)],
                         ids=["c4-gf5", "c16-gf257"])
def test_radical_reuses_the_fixed_space_powers(monkeypatch, n, q):
    # over a prime field with p >= dim the Frobenius radical and the fixed
    # space of x -> x^q both read the powers b_i^p
    fd = group_algebra_fd(cayley(cyclic_table(n)), gf(q)).fd
    assert len(primitive_idempotents(fd)) == n
    calls = []
    original = fd.power
    monkeypatch.setattr(fd, "power",
                        lambda x, k: calls.append(k) or original(x, k))
    rad = jacobson_radical(fd)
    assert rad.basis == []
    assert calls == []


POWER_ALGEBRAS = {
    "m2-gf3": lambda: klein_twisted_fd()[0].fd,
    "c3-gf4": lambda: group_algebra_fd(cayley(cyclic_table(3)),
                                       gf(2, 2, modulus=[1, 1, 1])).fd,
    "s3-gf5": lambda: group_algebra_fd(cayley(symmetric_group_3_table()),
                                       gf(5)).fd,
}


@pytest.mark.parametrize("name", POWER_ALGEBRAS)
def test_power_matches_repeated_products(name):
    fd = POWER_ALGEBRAS[name]()
    rng = random.Random(7)
    elements = [x.value for x in fd.field.elements()]
    x = [rng.choice(elements) for _ in range(fd.dim)]
    expected = list(fd.one)
    for n in range(11):
        got = fd.power(x, n)
        assert got == expected
        # a fresh list: n = 0 copies one, n = 1 copies x
        assert got is not x and got is not fd.one
        expected = fd.mul(expected, x)


def test_gf2_c3_splits_line_plus_quadratic():
    fd = group_algebra_fd(cayley(cyclic_table(3)), gf(2)).fd
    report = fields_decomposition(fd)
    assert report.is_sum_of_fields
    assert sorted(c.dim for c in report.components) == [1, 2]
    assert {c.description for c in report.components} == \
        {"GF(2^1)", "GF(2^2)"}


def test_rational_c3_decomposition():
    Q = rationals()
    fd = group_algebra_fd(abelian([3]), Q).fd
    report = fields_decomposition(fd)
    assert report.is_sum_of_fields
    assert sorted(c.dim for c in report.components) == [1, 2]
    prims = {tuple(comp.idempotent) for comp in report.components}
    third = Fraction(1, 3)
    assert prims == {(third, third, third),
                     (1 - third, -third, -third)}


def test_rational_c6_decomposition_dims():
    fd = group_algebra_fd(cayley(cyclic_table(6)), rationals()).fd
    report = fields_decomposition(fd)
    assert report.is_sum_of_fields
    assert sorted(c.dim for c in report.components) == [1, 1, 2, 2]


def prime_square_fd(primes):
    """Q_tau[C2^n] with tau(x, y) = prod_i p_i^(x_i y_i), x_1 the leading
    digit of a key: u_x^2 = prod_(x_i = 1) p_i, so the algebra is the
    field Q(sqrt p_1, ..., sqrt p_n) of degree 2^n."""
    n = len(primes)
    G, Q = abelian([2] * n), rationals()
    table = {}
    for x, y in itertools.product(range(2 ** n), repeat=2):
        v = 1
        for i, p in enumerate(primes):
            if x >> (n - 1 - i) & y >> (n - 1 - i) & 1:
                v *= p
        if v != 1:
            table[(x, y)] = Q.from_int(v)
    return group_algebra_fd(G, Q, Cocycle(G, Q, table)).fd


@pytest.mark.parametrize("primes, drawn", [
    # every u_x has degree 1 or 2; sqrt 3 + sqrt 2 is a pairwise sum
    ((2, 3), 8),
    # a sum of two square roots has degree at most 4, so no basis vector
    # or pairwise sum generates, and the first random combination does
    ((2, 3, 5), 8 + 28 + 1),
])
def test_multiquadratic_fields_draw_candidates_past_the_basis(
        monkeypatch, primes, drawn):
    seen = []
    original = structure._splitter_candidates

    def counted(fd, basis, rng):
        for n, cand in enumerate(original(fd, basis, rng)):
            seen.append(n)
            yield cand
    monkeypatch.setattr(structure, "_splitter_candidates", counted)
    fd = prime_square_fd(primes)
    report = fields_decomposition(fd)
    assert [c.description for c in report.components] \
        == [f"degree-{2 ** len(primes)} extension of Q"]
    # the split finds the field, and its leaf keeps the generator, so no
    # candidate is drawn twice
    assert seen == [*range(drawn)]
    assert len(report.components[0].min_poly) == fd.dim + 1


@pytest.mark.parametrize("build", [
    lambda: group_algebra_fd(abelian([12]), rationals()).fd,
    lambda: prime_square_fd((2, 3, 5)),
], ids=["q-c12", "q-sqrt2-sqrt3-sqrt5"])
def test_rational_components_run_no_field_certificate(monkeypatch, build):
    # a corner over Q keeps the generator its leaf was certified a field
    # with: its minimal polynomial in the corner, of full degree
    calls = []
    original = structure._field_certificate
    monkeypatch.setattr(structure, "_field_certificate",
                        lambda *args: calls.append(args) or original(*args))
    fd = build()
    report = fields_decomposition(fd)
    assert report.is_sum_of_fields
    assert any(c.dim > 1 for c in report.components)
    assert calls == []
    for c in report.components:
        assert c.min_poly == minimal_polynomial(fd, c.generator, c.idempotent)
        assert len(c.min_poly) == c.dim + 1


def test_a_field_leaf_needs_one_factor_of_multiplicity_one(monkeypatch):
    # the leaf reads irreducibility off poly_factor_rational: x^2 - 2 is
    # one factor, of multiplicity 1; x^2 - 1 is two, a constant none, and
    # (x^2 + 1)^2 one of multiplicity 2, which makes no field
    assert poly_factor_rational((-2, 0, 1)) == [((-2, 0, 1), 1)]
    assert poly_factor_rational((3, 2)) == [((3, 2), 1)]
    assert poly_factor_rational((-1, 0, 1)) == [((-1, 1), 1), ((1, 1), 1)]
    assert poly_factor_rational((5,)) == []
    assert poly_factor_rational((1, 0, 2, 0, 1)) == [((1, 0, 1), 2)]
    original = structure.poly_factor_rational
    monkeypatch.setattr(structure, "poly_factor_rational",
                        lambda m: [(g, 2) for g, _ in original(m)])
    with pytest.raises(CertificateFailed,
                       match="field generator has a repeated factor"):
        fields_decomposition(prime_square_fd((2,)))


def test_not_sum_of_fields_noncommutative_witness():
    sub, _ = klein_twisted_fd()
    report = fields_decomposition(sub.fd)
    assert not report.is_sum_of_fields
    assert report.reason == "noncommutative"
    assert report.witness is not None
    assert not jacobson_radical(sub.fd).basis


def test_not_sum_of_fields_radical_witness():
    fd = group_algebra_fd(abelian([2]), gf(2)).fd
    report = fields_decomposition(fd)
    assert not report.is_sum_of_fields
    assert report.reason == "nonzero radical"
    nil = report.witness
    assert not fd.is_zero(nil)
    assert fd.is_zero(fd.mul(nil, nil))


# --- quotients, corners, ideals, lifting ------------------------------------------


def test_quotient_of_gf2_c6_by_radical():
    F = gf(2)
    fd = group_algebra_fd(cayley(cyclic_table(6)), F).fd
    rad = jacobson_radical(fd).basis
    Q = quotient_algebra(fd, rad)
    assert Q.fd.dim == 3
    assert not jacobson_radical(Q.fd).basis
    assert count_idempotents(Q.fd) == 4
    for i in range(Q.fd.dim):
        qv = Q.fd.basis_vec(i)
        assert Q.project(Q.lift(qv)) == qv
    S = structure.span_of(fd, rad)
    for i in range(fd.dim):
        v = fd.basis_vec(i)
        assert S.contains(fd.sub(Q.lift(Q.project(v)), v))


def ref_ideal_closure(fd, generators):
    """Basis of the two-sided ideal generated by the vectors, closed under
    multiplication by basis vectors on both sides."""
    S = structure.span_of(fd, [])
    frontier = [v for v in generators if S.add(v)]
    while frontier:
        nxt = []
        for v in frontier:
            for i in range(fd.dim):
                b = fd.basis_vec(i)
                for w in (fd.mul(b, v), fd.mul(v, b)):
                    if S.add(w):
                        nxt.append(w)
        frontier = nxt
    return [list(r) for r in S.inserted]


def test_ideal_closure_recovers_radical():
    F = gf(2)
    fd = group_algebra_fd(cayley(cyclic_table(6)), F).fd
    gen = fd.add(fd.basis_vec(0), fd.basis_vec(3))   # 1 + u^3
    ideal = ref_ideal_closure(fd, [gen])
    rad = jacobson_radical(fd).basis
    S_ideal = structure.span_of(fd, ideal)
    S_rad = structure.span_of(fd, rad)
    assert S_ideal.dim == 3
    assert all(S_rad.contains(v) for v in ideal)
    assert all(S_ideal.contains(v) for v in rad)


def test_corner_algebra_identity():
    fd = group_algebra_fd(cayley(cyclic_table(4)), gf(5)).fd
    e = primitive_idempotents(fd)[0]
    corner = corner_algebra(fd, e)
    assert corner.fd.dim == 1
    assert corner.lift(corner.fd.one) == e


def test_noncommutative_corner_stays_two_sided():
    # GF(5)[S3] = GF(5) + GF(5) + M2(GF(5)), and e = (1 + s) / 2 for the
    # transposition s has rank 1, 0 and 1 in the blocks: e A e has
    # dimension 1 + 0 + 1, while A e has dimension 1 + 0 + 2
    G = cayley(symmetric_group_3_table())
    F = gf(5)
    S = group_algebra_fd(G, F)
    fd = S.fd
    one, s = (S.subgroup.index_of[G.from_key(k)] for k in (0, 1))
    e = fd.scale(fd.add(fd.basis_vec(one), fd.basis_vec(s)),
                 F.from_int(2).inv().value)
    assert fd.is_idempotent(e)
    assert span_of(fd, [fd.mul(fd.basis_vec(i), e)
                        for i in range(fd.dim)]).dim == 3
    corner = corner_algebra(fd, e)
    assert corner.fd.dim == 2
    assert corner.lift(corner.fd.one) == e
    for v in corner.basis:
        assert fd.mul(e, v) == v == fd.mul(v, e)


def test_lift_idempotent_char_p():
    F = gf(2)
    fd = group_algebra_fd(cayley(cyclic_table(6)), F).fd
    rad = jacobson_radical(fd)
    target = [0, 0, 1, 0, 1, 0]                               # u^2 + u^4
    assert fd.is_idempotent(target)
    x = fd.add(target, fd.add(fd.basis_vec(0), fd.basis_vec(3)))
    assert not fd.is_idempotent(x)
    assert lift_idempotents(fd, rad, [x]) == [target]


def test_lift_idempotent_char0_newton():
    Q = rationals()
    # Q[t]/(t^2): basis (1, t)
    one, zero = Q.raw_one, Q.raw_zero
    rows = [[(0, [(0, one)]), (1, [(1, one)])], [(0, [(1, one)])]]
    fd = FDAlgebra(Q, rows, [one, zero])
    rad = jacobson_radical(fd)
    assert rad.basis == [[zero, one]]
    assert lift_idempotents(fd, rad, [[one, one]]) == [fd.one]


@pytest.mark.parametrize("table, p", [
    (cyclic_table(14), 7), (cyclic_table(10), 5), (cyclic_table(15), 5),
], ids=["c14-gf7", "c10-gf5", "c15-gf5"])
def test_newton_lift_equals_the_frobenius_lift(table, p):
    # both e -> 3e^2 - 2e^3 and e -> e^p stay in K[x], whose idempotent
    # congruent to x modulo the nil ideal (x^2 - x) is unique
    fd = group_algebra_fd(cayley(table), gf(p)).fd
    rad = jacobson_radical(fd)
    xs = [rad.quotient.lift(e)
          for e in primitive_idempotents(rad.quotient.fd)]
    assert not all(map(fd.is_idempotent, xs))
    frobenius = []
    for e in xs:
        while not fd.is_idempotent(e):
            e = fd.power(e, p)
        frobenius.append(e)
    assert lift_idempotents(fd, rad, xs) == frobenius


def test_rational_split_reads_the_certified_radical(monkeypatch):
    # Q[s, t] / (s^2 - 1, t^2) on the basis s^a t^b: J = (t) and
    # A / J = Q[C2] = Q + Q, so two primitives lift along J
    Q = rationals()
    one = Q.raw_one
    monomials = [(a, b) for a in (0, 1) for b in (0, 1)]
    rows = [[(j, [(monomials.index(((a + c) % 2, b + d)), one)])
             for j, (c, d) in enumerate(monomials) if b + d < 2]
            for a, b in monomials]
    fd = FDAlgebra(Q, rows, [one] + [Q.raw_zero] * 3)
    quotients, proofs = [], []
    for name, seen in (("quotient_algebra", quotients),
                       ("ideal_nilpotency_index", proofs)):
        original = getattr(structure, name)
        monkeypatch.setattr(structure, name,
                            lambda fd, span, _o=original, _s=seen:
                            _s.append(fd) or _o(fd, span))
    assert len(jacobson_radical(fd).basis) == 2
    prims = primitive_idempotents(fd)
    assert len(prims) == 2
    assert not fields_decomposition(fd).is_sum_of_fields
    assert quotients == proofs == [fd]


def test_lift_idempotent_guards():
    F = gf(3)
    fd = group_algebra_fd(cayley(cyclic_table(2)), F).fd
    with pytest.raises(ConditionsNotMet):
        lift_idempotents(fd, jacobson_radical(fd), [fd.basis_vec(1)])


def test_non_nilpotent_radical_candidate_fails_its_certificate(
        monkeypatch):
    # (1 + u) / 2 is an idempotent of GF(3)[C2] = GF(3) + GF(3), so its
    # span is an ideal whose powers never shrink
    fd = group_algebra_fd(cayley(cyclic_table(2)), gf(3)).fd
    e = fd.scale(fd.add(fd.basis_vec(0), fd.basis_vec(1)),
                 fd.field.from_int(2).inv().value)
    assert fd.is_idempotent(e)
    _radical_candidate(monkeypatch, lambda fd: [e])
    with pytest.raises(IdealNotNilpotent):
        jacobson_radical(fd)


# --- the splitting and lifting certificates can fire ---------------------------
# Q[C2] splits at u, whose minimal polynomial is (t - 1)(t + 1), through
# the Bezout idempotent (1 + u) / 2.  In GF(2)[C2] the radical is spanned
# by 1 + u, and u is idempotent modulo it and lifts to u^2 = 1.


def _no_bezout_inverse(monkeypatch):
    monkeypatch.setattr(structure, "poly_inv_mod", lambda F, a, m: None)
    primitive_idempotents(group_algebra_fd(abelian([2]), rationals()).fd)


def _bezout_returns_its_candidate(monkeypatch):
    monkeypatch.setattr(structure, "_crt_idempotents",
                        lambda fd, powers, m, moduli:
                        [powers[1], fd.sub(powers[0], powers[1])])
    primitive_idempotents(group_algebra_fd(abelian([2]), rationals()).fd)


def _lift_never_idempotent(monkeypatch):
    fd = group_algebra_fd(abelian([2]), gf(2)).fd
    rad = jacobson_radical(fd)
    # idempotent from the 20th test on, far past the bound of 5 steps, so
    # the loop ends even where the certificate does not run
    tests = itertools.count()
    monkeypatch.setattr(fd, "is_idempotent", lambda x: next(tests) >= 20)
    lift_idempotents(fd, rad, [fd.basis_vec(1)])


def _lift_to_zero(monkeypatch):
    fd = group_algebra_fd(abelian([2]), gf(2)).fd
    rad = jacobson_radical(fd)
    monkeypatch.setattr(structure, "_lift_step", lambda fd, e: fd.zero_vec())
    lift_idempotents(fd, rad, [fd.basis_vec(1)])


@pytest.mark.parametrize("corrupt, message", [
    (_no_bezout_inverse, "factor powers must be coprime"),
    (_bezout_returns_its_candidate, ANNIHILATED),
    (_lift_never_idempotent, "idempotent lifting failed to converge"),
    (_lift_to_zero, "lift drifted from x modulo the ideal"),
], ids=["coprime", "bezout", "converge", "drift"])
def test_broken_splitting_and_lifting_fail_their_certificates(
        monkeypatch, corrupt, message):
    with pytest.raises(CertificateFailed, match=message):
        corrupt(monkeypatch)


def test_block_structure_proves_nilpotency_once(monkeypatch):
    calls = []
    original = structure.ideal_nilpotency_index

    def counted(fd, span):
        calls.append(len(span))
        return original(fd, span)

    monkeypatch.setattr(structure, "ideal_nilpotency_index", counted)
    fd = group_algebra_fd(cayley(dihedral_table(6)), gf(3)).fd
    assert len(block_structure(fd).blocks) == 4
    # one proof, inside jacobson_radical; lifting the blocks reuses it
    assert len(calls) == 1


def test_commutativity_witness_names_basis_units():
    sub, _ = klein_twisted_fd()
    commutative, witness = sub.fd.is_commutative()
    assert not commutative
    assert all(label.startswith("u[") for label in witness)


def _undersized_radical(monkeypatch):
    """Make the first radical candidate rad^2 instead of rad."""
    original = structure._radical_raw
    calls = []

    def undersized(fd):
        basis, method = original(fd)
        calls.append(fd)
        if len(calls) == 1:
            basis = [p for p in (fd.mul(a, b) for a in basis for b in basis)
                     if any(p)]
        return basis, method

    monkeypatch.setattr(structure, "_radical_raw", undersized)


def test_undersized_radical_candidate_fails_its_certificate(monkeypatch):
    # the radical is kept, so the unpatched run has an algebra of its own
    assert len(jacobson_radical(
        group_algebra_fd(cayley(cyclic_table(3)), gf(3)).fd).basis) == 2
    fd = group_algebra_fd(cayley(cyclic_table(3)), gf(3)).fd
    _undersized_radical(monkeypatch)
    with pytest.raises(CertificateFailed, match="candidate too small"):
        jacobson_radical(fd)


def test_empty_radical_candidate_fails_its_certificate(monkeypatch):
    # GF(2)[C2] has radical span(1 + u), which squares to zero, so the
    # undersized candidate is empty
    assert len(jacobson_radical(
        group_algebra_fd(cayley(cyclic_table(2)), gf(2)).fd).basis) == 1
    fd = group_algebra_fd(cayley(cyclic_table(2)), gf(2)).fd
    _undersized_radical(monkeypatch)
    with pytest.raises(CertificateFailed, match="candidate too small"):
        jacobson_radical(fd)


def test_certificates_survive_optimized_python(tmp_path):
    script = tmp_path / "undersized.py"
    script.write_text(
        "import sys\n"
        "from fcunits import cli, structure\n"
        "original = structure._radical_raw\n"
        "calls = []\n"
        "def undersized(fd):\n"
        "    basis, method = original(fd)\n"
        "    calls.append(fd)\n"
        "    if len(calls) == 1:\n"
        "        basis = [p for p in (fd.mul(a, b) for a in basis\n"
        "                             for b in basis) if any(p)]\n"
        "    return basis, method\n"
        "structure._radical_raw = undersized\n"
        "sys.exit(cli.main(['analyze', sys.argv[1], '--structure']))\n",
        encoding="utf-8")
    instance = resources.files("fcunits") / "instances" \
        / "z3_commutator_gf3.json"
    src = str(pathlib.Path(structure.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-O", str(script), str(instance)],
                          capture_output=True, text=True, timeout=120,
                          env=env)
    assert proc.returncode == 1, proc.stderr
    assert "candidate too small" in proc.stderr
