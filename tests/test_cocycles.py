import pytest
from hypothesis import given, settings, strategies as st

from fcunits.cocycles import (
    Cocycle,
    cocycle_from_json,
    coboundary,
    commutator_scalar,
    condition4_set,
    free_box,
    generator_box,
    power_scalar,
    trivial_cocycle,
    validate_cocycle,
)
from fcunits.errors import (
    ConditionsNotMet,
    InfiniteOrder,
    InstanceFormatError,
    ZeroValue,
)
from fcunits.fields import gf, rationals
from fcunits.groups import (
    bilinear_exponent,
    cyclic_table,
    make_group,
    symmetric_group_3_table,
)


def brute_force_check(group, coc, radius):
    """Reference validator: the identity on every box triple, directly."""
    els = generator_box(group, radius)
    for g in els:
        for h in els:
            gh = group.mul(g, h)
            lam_gh = coc(g, h)
            for k in els:
                lhs = lam_gh * coc(gh, k)
                rhs = coc(h, k) * coc(g, group.mul(h, k))
                if lhs != rhs:
                    return (g, h, k)
    return None


def cayley_group(table):
    return make_group({"kind": "cayley", "table": table})


def heisenberg22():
    # rank 2 over C2 x C2, commutator lands on the second torsion generator
    return make_group({
        "kind": "central-extension", "rank": 2,
        "torsion": {"invariants": [2, 2]},
        "pairing": {"target_index": 1, "matrix": [[0, 1], [0, 0]]},
    })


def carry_cocycle(group, field, n, c):
    """tau(g^i, g^j) = c^floor((i+j)/n) on a cyclic torsion part of order n."""
    table = {}
    for i in range(n):
        for j in range(n):
            if i + j >= n:
                table[(i, j)] = c
    return Cocycle(group, field, table)


# --- construction ------------------------------------------------------------


def test_rejects_zero_values():
    G = cayley_group(cyclic_table(2))
    F = gf(3)
    with pytest.raises(ZeroValue):
        Cocycle(G, F, {(1, 1): F.zero})
    with pytest.raises(ZeroValue):
        Cocycle(G, F, {}, zeta=F.zero)


def test_rejects_bad_shapes():
    F = gf(3)
    G = cayley_group(cyclic_table(2))
    with pytest.raises(InstanceFormatError):
        Cocycle(G, F, {(0, 5): F.one})
    H = make_group({"kind": "central-extension", "rank": 2,
                    "torsion": {"invariants": []}})
    with pytest.raises(InstanceFormatError):
        Cocycle(H, F, {}, matrix=[[0, 1]])
    with pytest.raises(InstanceFormatError):
        Cocycle(H, F, {}, matrix=[[1, 0], [0, 0]])  # diagonal entry
    with pytest.raises(InstanceFormatError):
        Cocycle(H, F, {}, matrix=[[0, 0], [1, 0]])  # lower entry
    for entry in (1.75, "1", True):
        with pytest.raises(InstanceFormatError):
            Cocycle(H, F, {}, matrix=[[0, entry], [0, 0]])


def test_trivial_cocycle_is_valid_and_normalized():
    G = heisenberg22()
    coc = trivial_cocycle(G, gf(2))
    assert coc.is_normalized
    res = validate_cocycle(G, coc, box_radius=2)
    assert res.valid and res.counterexample is None


# --- the frozen invalid example ----------------------------------------------


def test_identity_row_twist_is_caught():
    # tau(g, 1) = 2 on C2 over GF(3) breaks the identity at (g, 1, 1)
    G = cayley_group(cyclic_table(2))
    F = gf(3)
    coc = Cocycle(G, F, {(1, 0): F.scalar(2)})
    assert not coc.is_normalized
    res = validate_cocycle(G, coc)
    assert not res.valid
    ce = res.counterexample
    assert ce.g.t == 1 and ce.h.t == 0 and ce.k.t == 0
    assert ce.lhs != ce.rhs
    assert brute_force_check(G, coc, 1) is not None


def test_heisenberg_involution_square_twist_is_invalid():
    # over the rank-2 group whose commutator hits the torsion part, the
    # would-be twist tau(a, a) = w fails the identity once the pairing
    # offset enters; only the trivial table is consistent there
    G = make_group({
        "kind": "central-extension", "rank": 2,
        "torsion": {"invariants": [2]},
        "pairing": {"target_index": 0, "matrix": [[0, 1], [0, 0]]},
    })
    F = gf(2, 2, modulus=[1, 1, 1])
    w = F.scalar((0, 1))
    coc = Cocycle(G, F, {(1, 1): w})
    assert coc.is_normalized
    res = validate_cocycle(G, coc, box_radius=1)
    assert not res.valid
    assert brute_force_check(G, coc, 1) is not None
    # the same table on the abelian version of the group is fine
    A = make_group({"kind": "central-extension", "rank": 2,
                    "torsion": {"invariants": [2]}})
    coc2 = Cocycle(A, F, {(1, 1): w})
    assert validate_cocycle(A, coc2, box_radius=1).valid
    assert brute_force_check(A, coc2, 1) is None


# --- validator vs brute force ------------------------------------------------


def test_validator_matches_brute_force_on_bilinear_twist():
    G = make_group({"kind": "central-extension", "rank": 2,
                    "torsion": {"invariants": []}})
    F = gf(5)
    coc = Cocycle(G, F, {}, zeta=F.scalar(2), matrix=[[0, 1], [0, 0]])
    assert validate_cocycle(G, coc, box_radius=1).valid
    assert brute_force_check(G, coc, 1) is None


def test_validator_matches_brute_force_with_pairing_and_twist():
    G = heisenberg22()
    F = gf(7)
    base = coboundary(G, F, [F.one, F.one, F.scalar(2), F.scalar(2)])
    coc = Cocycle(G, F, dict(base.torsion_table), zeta=F.scalar(3),
                  matrix=[[0, 2], [0, 0]])
    assert validate_cocycle(G, coc, box_radius=1).valid
    assert brute_force_check(G, coc, 1) is None
    # now damage one non-identity table entry; both validators must object
    broken = dict(coc.torsion_table)
    broken[(2, 2)] = broken.get((2, 2), F.one) * F.scalar(3)
    bad = Cocycle(G, F, broken, zeta=coc.zeta, matrix=coc.matrix)
    res = validate_cocycle(G, bad, box_radius=1)
    assert not res.valid
    assert brute_force_check(G, bad, 1) is not None
    # the reported counterexample really violates the identity
    ce = res.counterexample
    gh = G.mul(ce.g, ce.h)
    assert bad(ce.g, ce.h) * bad(gh, ce.k) == ce.lhs
    assert bad(ce.h, ce.k) * bad(ce.g, G.mul(ce.h, ce.k)) == ce.rhs


def test_single_entry_mutations_are_caught():
    # every single-entry mutation of a valid table over C6 breaks the
    # identity (torsion part of size >= 3, so a separating triple exists)
    G = cayley_group(cyclic_table(6))
    F = gf(7)
    mus = [F.one, F.scalar(3), F.scalar(2), F.scalar(6), F.scalar(4), F.scalar(5)]
    base = coboundary(G, F, mus)
    assert validate_cocycle(G, base).valid
    caught = 0
    for i in range(6):
        for j in range(6):
            table = dict(base.torsion_table)
            table[(i, j)] = table.get((i, j), F.one) * F.scalar(3)
            mutant = Cocycle(G, F, table)
            res = validate_cocycle(G, mutant)
            assert not res.valid, f"mutation at ({i}, {j}) slipped through"
            caught += 1
    assert caught == 36


def test_sign_pullback_on_s3_free_product():
    # S3 x Z with the cocycle pulled back through the sign map
    G = make_group({"kind": "central-extension", "rank": 1,
                    "torsion": {"table": symmetric_group_3_table()}})
    F = gf(5)
    sgn = [0, 1, 1, 1, 0, 0]
    table = {}
    for i in range(6):
        for j in range(6):
            if sgn[i] + sgn[j] >= 2:
                table[(i, j)] = F.scalar(2)
    coc = Cocycle(G, F, table)
    assert validate_cocycle(G, coc, box_radius=1).valid
    assert brute_force_check(G, coc, 1) is None
    # symmetric against every torsion element
    assert all(coc(g, h) == coc(h, g)
               for g in generator_box(G, 1) for h in G.torsion_elements())


# --- the degree-2 cancellation behind the reduction ---------------------------


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-3, 3), min_size=3, max_size=3),
       st.lists(st.integers(-5, 5), min_size=3, max_size=3),
       st.lists(st.integers(-5, 5), min_size=3, max_size=3),
       st.lists(st.integers(-5, 5), min_size=3, max_size=3))
def test_bilinear_exponent_cancellation(entries, u, v, w):
    G = make_group({"kind": "central-extension", "rank": 3,
                    "torsion": {"invariants": []}})
    F = gf(7)
    N = [[0, entries[0], entries[1]], [0, 0, entries[2]], [0, 0, 0]]
    coc = Cocycle(G, F, {}, zeta=F.scalar(3), matrix=N)

    def B(x, y):
        return bilinear_exponent(coc.matrix, x, y)

    uv = tuple(x + y for x, y in zip(u, v))
    vw = tuple(x + y for x, y in zip(v, w))
    assert B(u, v) + B(uv, w) == B(v, w) + B(u, vw)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.sampled_from(list(range(1, 7))), min_size=6, max_size=6),
       st.integers(0, 3))
def test_random_coboundaries_validate(raw_mu, shift):
    G = cayley_group(cyclic_table(6))
    F = gf(7)
    mus = [F.scalar(x) for x in raw_mu]
    coc = coboundary(G, F, mus)
    assert coc.is_normalized
    assert validate_cocycle(G, coc).valid
    # products of valid cocycles stay valid
    carry = carry_cocycle(G, F, 6, F.scalar(3))
    table = {k: coc.tau(*k) * carry.tau(*k)
             for k in ((i, j) for i in range(6) for j in range(6))}
    prod = Cocycle(G, F, table)
    assert validate_cocycle(G, prod).valid


# --- coboundaries ------------------------------------------------------------


def test_coboundary_values_and_normalization():
    G = cayley_group(cyclic_table(4))
    F = gf(5)
    mus = [F.scalar(2), F.scalar(3), F.scalar(1), F.scalar(4)]
    coc = coboundary(G, F, mus)
    assert coc.is_normalized
    norm = [m / mus[0] for m in mus]
    for i in range(4):
        for j in range(4):
            expect = norm[i] * norm[j] / norm[(i + j) % 4]
            assert coc.tau(i, j) == expect


def test_coboundary_rejects_zero_and_bad_length():
    G = cayley_group(cyclic_table(2))
    F = gf(3)
    with pytest.raises(ZeroValue):
        coboundary(G, F, [F.one, F.zero])
    with pytest.raises(InstanceFormatError):
        coboundary(G, F, [F.one])
    with pytest.raises(ZeroValue):
        coboundary(G, F, [F.one, F.one], mu_free=[F.zero])


def test_coboundary_pairing_periodicity():
    G = heisenberg22()
    F = gf(7)
    # constant along shifts by the pairing target (0, 1): fine, and the
    # result is a genuinely twisted table
    coc = coboundary(G, F, [F.one, F.one, F.scalar(2), F.scalar(2)])
    assert coc.tau(2, 2) == F.scalar(4)
    assert validate_cocycle(G, coc, box_radius=1).valid
    # not constant along the pairing image: out of the representable family
    with pytest.raises(ConditionsNotMet):
        coboundary(G, F, [F.one, F.scalar(2), F.one, F.one])


def test_coboundary_free_values_cancel():
    G = make_group({"kind": "central-extension", "rank": 1,
                    "torsion": {"invariants": [3]}})
    F = gf(7)
    mus = [F.one, F.scalar(2), F.scalar(4)]
    with_free = coboundary(G, F, mus, mu_free=[F.scalar(5)])
    without = coboundary(G, F, mus)
    assert with_free.torsion_table == without.torsion_table
    assert with_free.zeta == without.zeta and with_free.matrix == without.matrix


# --- derived scalars ----------------------------------------------------------


def test_power_scalar_on_carry_cocycle():
    # u_g^n sweeps up exactly one carry for the generator of C_n
    for n, q, c in [(2, 3, 2), (4, 5, 2), (6, 7, 3)]:
        G = cayley_group(cyclic_table(n))
        F = gf(q)
        coc = carry_cocycle(G, F, n, F.scalar(c))
        assert validate_cocycle(G, coc).valid
        g = G.element(t=1)
        assert power_scalar(coc, g) == F.scalar(c)
        assert power_scalar(coc, G.identity) == F.one


def test_power_scalar_infinite_order():
    G = make_group({"kind": "central-extension", "rank": 1,
                    "torsion": {"invariants": []}})
    coc = trivial_cocycle(G, rationals())
    with pytest.raises(InfiniteOrder):
        power_scalar(coc, G.element(u=(1,)))


def test_commutator_scalar_bilinear():
    # over Z^2 with zeta = 2, N = [[0,1],[0,0]]: basis units at e1, e2 have
    # commutator scalar zeta^(N12) = 2 even though the group is abelian
    G = make_group({"kind": "central-extension", "rank": 2,
                    "torsion": {"invariants": []}})
    F = gf(5)
    coc = Cocycle(G, F, {}, zeta=F.scalar(2), matrix=[[0, 1], [0, 0]])
    a = G.element(u=(1, 0))
    b = G.element(u=(0, 1))
    assert commutator_scalar(coc, a, b) == F.scalar(2)
    assert commutator_scalar(coc, b, a) == F.scalar(2).inv()
    assert commutator_scalar(coc, a, a) == F.one


def test_commutator_scalar_trivial_cocycle():
    G = heisenberg22()
    coc = trivial_cocycle(G, gf(3))
    for a in generator_box(G, 1)[:8]:
        for b in generator_box(G, 1)[:8]:
            assert commutator_scalar(coc, a, b) == gf(3).one


# --- condition-4 value sets and symmetry ---------------------------------------


def klein_exponent_cocycle():
    # tau(a, b) = 2^(a2*b1) on C2 x C2 over GF(3): a valid non-symmetric
    # cocycle (its twisted algebra is the 2x2 matrix algebra)
    G = make_group({"kind": "central-extension", "rank": 0,
                    "torsion": {"invariants": [2, 2]}})
    F = gf(3)
    two = F.scalar(2)
    table = {(1, 2): two, (1, 3): two, (3, 2): two, (3, 3): two}
    return G, F, Cocycle(G, F, table)


def test_klein_cocycle_valid_but_not_symmetric():
    G, F, coc = klein_exponent_cocycle()
    assert validate_cocycle(G, coc).valid
    assert brute_force_check(G, coc, 0) is None
    torsion = G.torsion_elements()
    assert any(coc(g, h) != coc(h, g) for g in torsion for h in torsion)


def test_condition4_set_trivial_and_twisted():
    G, F, coc = klein_exponent_cocycle()
    a1 = G.element(t=(1, 0))
    orbit = condition4_set(coc, a1)
    assert orbit.values == frozenset({F.one, F.scalar(2)})
    assert orbit.cardinality == 2
    assert not orbit.truncated
    triv = trivial_cocycle(G, F)
    assert condition4_set(triv, a1).values == frozenset({F.one})


def test_condition4_set_symmetric_carry_is_trivial():
    G = cayley_group(cyclic_table(4))
    F = gf(5)
    coc = carry_cocycle(G, F, 4, F.scalar(2))
    for t in range(4):
        orbit = condition4_set(coc, G.element(t=t))
        assert orbit.values == frozenset({F.one})


def test_condition4_set_truncates_prufer():
    G = make_group({"kind": "central-extension", "rank": 0,
                    "torsion": {"invariants": []},
                    "prufer": {"q": 2, "levels": 3}})
    F = gf(5)
    coc = trivial_cocycle(G, F)
    orbit = condition4_set(coc, G.identity, prufer_level=2)
    assert orbit.values == frozenset({F.one})
    assert orbit.truncated


# --- serialization -------------------------------------------------------------


def test_cocycle_json_round_trip():
    G = heisenberg22()
    F = gf(7)
    base = coboundary(G, F, [F.one, F.one, F.scalar(2), F.scalar(2)])
    coc = Cocycle(G, F, dict(base.torsion_table), zeta=F.scalar(3),
                  matrix=[[0, 2], [0, 0]])
    back = cocycle_from_json(G, F, coc.to_json())
    assert back.torsion_table == coc.torsion_table
    assert back.zeta == coc.zeta and back.matrix == coc.matrix
    # omitted parts default to the trivial cocycle
    empty = cocycle_from_json(G, F, {})
    assert empty.torsion_table == {} and empty.zeta == F.one
    assert cocycle_from_json(G, F, None).torsion_table == {}


def test_cocycle_json_rejects_garbage():
    G = cayley_group(cyclic_table(2))
    F = gf(3)
    with pytest.raises(InstanceFormatError):
        cocycle_from_json(G, F, {"torsion_table": {"nope": 2}})
    with pytest.raises(InstanceFormatError):
        cocycle_from_json(G, F, {"torsion_table": {"(0,1,2)": 2}})
    with pytest.raises(InstanceFormatError):
        cocycle_from_json(G, F, {"bilinear": {"zeta": 2}})
    with pytest.raises(InstanceFormatError):
        cocycle_from_json(G, F, [1, 2])


def test_free_box_shapes():
    G = make_group({"kind": "central-extension", "rank": 2,
                    "torsion": {"invariants": []}})
    assert len(free_box(G, 1)) == 9
    H = cayley_group(cyclic_table(3))
    assert free_box(H, 5) == [()]
    assert len(generator_box(H, 5)) == 3
