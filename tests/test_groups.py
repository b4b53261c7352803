"""Group layer: laws, orders, subgroup structure, coset systems."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcunits.errors import (
    GroupMismatch,
    GroupValidationError,
    InfiniteIndexUnsupported,
    InstanceFormatError,
    SubgroupTooLarge,
)
from fcunits.groups import (
    Group,
    InvariantsTorsion,
    TableTorsion,
    cyclic_table,
    finite_subgroup,
    group_to_json,
    make_group,
    symmetric_group_3_table,
)


def heisenberg_mod2():
    """Rank-2 extension of Z^2 by C2 with [f1, f2] = z."""
    return Group(2, InvariantsTorsion((2,)),
                 pairing_matrix=[[0, 1], [0, 0]],
                 pairing_target=(1,))


def s3_group():
    return make_group({"kind": "cayley", "table": symmetric_group_3_table()})


def test_cayley_validation_rejects_bad_tables():
    with pytest.raises(GroupValidationError):
        TableTorsion([[0, 1], [1, 1]])  # not a Latin square
    with pytest.raises(GroupValidationError):
        TableTorsion([[1, 0], [0, 1]])  # identity is not index 0
    # a Latin square with identity that is not associative
    # (built from the subtraction "law" i - j mod 3)
    with pytest.raises(GroupValidationError):
        TableTorsion([[(i - j) % 3 for j in range(3)] for i in range(3)])


def test_s3_table_is_a_valid_group():
    g = s3_group()
    assert g.torsion.size == 6
    assert not g.is_abelian
    orders = sorted(e.order() for e in g.elements())
    assert orders == [1, 2, 2, 2, 3, 3]


def test_element_orders_central_extension():
    g = heisenberg_mod2()
    z = g.element((0, 0), (1,))
    assert z.order() == 2
    assert g.element((1, 0), (1,)).order() == math.inf
    assert g.identity.order() == 1


def test_prufer_orders_and_validation():
    g = Group(0, InvariantsTorsion((3,)), prufer=(2, 4))
    el = g.element((), (1,), Fraction(1, 8))
    assert el.order() == 24
    assert g.element((), (0,), Fraction(3, 4)).order() == 4
    with pytest.raises(InstanceFormatError):
        g.element((), (0,), Fraction(1, 32))  # beyond the level cap
    with pytest.raises(InstanceFormatError):
        g.element((), (0,), Fraction(1, 6))  # denominator not a 2-power


def test_group_law_inverses():
    g = heisenberg_mod2()
    for u in itertools.product(range(-2, 3), repeat=2):
        for t in ((0,), (1,)):
            el = g.element(u, t)
            assert g.mul(el, el.inv()) == g.identity
            assert g.mul(el.inv(), el) == g.identity


def ref_commutator_closed_form(g, a, b):
    """[a, b] read off the pairing: c * z with
    c = sum_{i<j} M[i][j] (a_i b_j - b_i a_j)."""
    M = g.pairing_matrix
    c = sum(M[i][j] * (a.u[i] * b.u[j] - b.u[i] * a.u[j])
            for i in range(g.rank) for j in range(i + 1, g.rank))
    z = g.torsion.coords(g.pairing_target)
    return g.element(t=tuple(c * x for x in z))


def test_commutator_closed_form_matches_product_chain():
    # spec invariant: closed form vs the four-fold product on a 3^3 box
    g = heisenberg_mod2()
    box = [g.element(u, t)
           for u in itertools.product((-1, 0, 1), repeat=2)
           for t in ((0,), (1,))]
    for a in box:
        for b in box:
            assert g.commutator(a, b) == ref_commutator_closed_form(g, a, b)


def test_heisenberg_commutator_subgroup():
    g = heisenberg_mod2()
    rec = g.commutator_subgroup()
    assert len(rec) == 2
    assert g.element((0, 0), (1,)) in rec.elements


def test_s3_commutator_subgroup_is_a3():
    g = s3_group()
    rec = g.commutator_subgroup()
    assert len(rec) == 3
    orders = sorted(e.order() for e in rec.elements)
    assert orders == [1, 3, 3]


def test_heisenberg_center():
    # spec example: center = {(u, a): u == 0 mod 2}
    g = heisenberg_mod2()
    assert g.center_contains(g.element((2, 0), (0,)))
    assert g.center_contains(g.element((0, -2), (1,)))
    assert not g.center_contains(g.element((1, 0), (0,)))


def test_commutators_inside_torsion_inside_center():
    # spec invariant chain: G' <= t(G) <= center for paired extensions
    g = heisenberg_mod2()
    for el in g.commutator_subgroup().elements:
        assert el.u == (0, 0)
        assert g.center_contains(el)
    assert g.torsion_is_central()


def test_is_fc_certificates():
    assert heisenberg_mod2().is_fc() == (
        True, {"fc": True, "max_class_size_bound": 2,
               "reason": "conjugates differ by multiples of the pairing "
                         "target, a finite central subgroup"})
    ok, cert = s3_group().is_fc()
    assert ok and cert["max_class_size_bound"] == 6


def test_torsion_coset_system():
    # spec example: Z x C3 mod t(G), reps (u, 0)
    g = Group(1, InvariantsTorsion((3,)))
    cosets = g.torsion_cosets()
    el = g.element((5,), (2,))
    h, t = cosets.factor(el)
    assert cosets.rep(h) == g.element((5,), (0,))
    assert t == g.element((0,), (2,))
    assert g.mul(cosets.rep(h), t) == el
    # induced multiplication on the quotient is plain Z^r addition
    H = cosets.quotient
    h2 = cosets.project(g.element((-2,), (1,)))
    assert H.mul(h, h2) == H.element((3,), ())


def test_cyclic_coset_system_collapses_heisenberg():
    g = heisenberg_mod2()
    z = g.element((0, 0), (1,))
    cosets = g.cyclic_cosets(z)
    H = cosets.quotient
    assert H.rank == 2 and H.torsion.size == 1 and H.pairing_matrix is None
    assert H.is_abelian
    # projection is a homomorphism on a sample box
    box = [g.element(u, t)
           for u in itertools.product((-1, 0, 1), repeat=2)
           for t in ((0,), (1,))]
    for a in box:
        for b in box:
            assert cosets.project(g.mul(a, b)) == H.mul(cosets.project(a),
                                                        cosets.project(b))
    h, k = cosets.factor(g.element((1, 1), (1,)))
    assert g.mul(cosets.rep(h), g.power(z, k)) == g.element((1, 1), (1,))


def test_cyclic_coset_system_in_finite_abelian():
    g = make_group({"kind": "central-extension", "rank": 0,
                    "torsion": {"invariants": [2, 4]}})
    a = g.element((), (1, 1))  # order 4, quotient of order 2
    cosets = g.cyclic_cosets(a)
    assert cosets.quotient.torsion.size == 2
    reps = [cosets.rep(h) for h in cosets.quotient.elements()]
    assert len(reps) == 2
    covered = {g.mul(r, p) for r in reps for p in cosets.a_powers}
    assert len(covered) == 8


def test_cyclic_cosets_table_mode():
    g = s3_group()
    rot = g.element((), 4)  # a 3-cycle; <rot> = A3 is normal
    cosets = g.cyclic_cosets(rot)
    assert cosets.quotient.torsion.size == 2
    refl = g.element((), 1)
    with pytest.raises(InfiniteIndexUnsupported):
        g.cyclic_cosets(refl)  # <(12)> is not normal in S3


def test_coset_system_rejects_free_generators():
    g = Group(1, InvariantsTorsion((3,)))
    with pytest.raises(InfiniteIndexUnsupported,
                       match="needs a torsion element"):
        g.cyclic_cosets(g.element((1,), (0,)))
    p = make_group({"kind": "central-extension", "rank": 1,
                    "torsion": {"invariants": [3]},
                    "prufer": {"q": 2, "levels": 2}})
    with pytest.raises(InfiniteIndexUnsupported,
                       match="over a Pruefer coordinate"):
        p.cyclic_cosets(p.element(t=(1,), s=Fraction(1, 2)))


def test_finite_subgroup_closure():
    g = s3_group()
    w = finite_subgroup(g, [g.element((), 1)])
    assert len(w) == 2
    w = finite_subgroup(g, [g.element((), 1), g.element((), 4)])
    assert len(w) == 6
    with pytest.raises(SubgroupTooLarge):
        finite_subgroup(g, [g.element((), 4)], cap=2)


def _bfs_closure(group, generators):
    """The closure by breadth-first search over the generators and their
    inverses."""
    seen = {group.identity}
    frontier = [group.identity]
    gens = list(generators) + [g.inv() for g in generators]
    while frontier:
        frontier = [y for y in (x * g for x in frontier for g in gens)
                    if y not in seen and not seen.add(y)]
    return seen


def test_finite_subgroup_matches_a_breadth_first_closure():
    s3, heis = s3_group(), heisenberg_mod2()
    prufer = make_group({"kind": "central-extension", "rank": 0,
                         "torsion": {"invariants": [2, 3]},
                         "prufer": {"q": 2, "levels": 3}})
    cases = [
        (s3, [s3.element((), k) for k in range(6)]),
        (s3, [s3.element((), 4), s3.element((), 1), s3.element((), 4)]),
        (heis, [heis.element((0, 0), (1,))]),
        (prufer, prufer.torsion_elements(3)),
        (prufer, [prufer.element(t=(1, 0)), prufer.element(t=(0, 1))]),
        (prufer, [prufer.element(t=(1, 1), s=Fraction(3, 8))]),
        (prufer, []),
    ]
    for group, gens in cases:
        sub = finite_subgroup(group, gens)
        expected = _bfs_closure(group, gens)
        assert sub.elements == tuple(sorted(expected,
                                            key=lambda e: e.sort_key()))
        assert sub.generators == tuple(gens)


def test_closing_a_listed_subgroup_takes_few_products(monkeypatch):
    # the 16 elements of C16 in order: the first nonidentity one generates
    # them, so every later one is skipped (a closure over all 32 elements
    # and inverses took 512 products)
    g = make_group({"kind": "central-extension", "rank": 0,
                    "torsion": {"invariants": []},
                    "prufer": {"q": 2, "levels": 4}})
    products = []
    original = Group.mul
    monkeypatch.setattr(Group, "mul", lambda self, a, b:
                        products.append(1) or original(self, a, b))
    assert len(finite_subgroup(g, g.torsion_elements(4))) == 16
    assert len(products) <= 2 * 16


def test_group_mismatch_detected():
    g1 = heisenberg_mod2()
    g2 = heisenberg_mod2()
    with pytest.raises(GroupMismatch):
        g1.mul(g1.identity, g2.identity)


def test_json_round_trip():
    specs = [
        {"kind": "cayley", "table": cyclic_table(4)},
        {"kind": "central-extension", "rank": 2,
         "torsion": {"invariants": [2]},
         "pairing": {"target_index": 0, "matrix": [[0, 1], [0, 0]]}},
        {"kind": "central-extension", "rank": 1,
         "torsion": {"table": symmetric_group_3_table()}},
        {"kind": "central-extension", "rank": 0,
         "torsion": {"invariants": [3]}, "prufer": {"q": 2, "levels": 4}},
    ]
    for spec in specs:
        g = make_group(spec)
        g2 = make_group(group_to_json(g))
        assert group_to_json(g2) == group_to_json(g)


def test_pairing_with_table_torsion_rejected():
    with pytest.raises(GroupValidationError):
        make_group({"kind": "central-extension", "rank": 2,
                    "torsion": {"table": cyclic_table(2)},
                    "pairing": {"target_index": 0,
                                "matrix": [[0, 1], [0, 0]]}})


def test_direct_product_with_table_torsion():
    g = make_group({"kind": "central-extension", "rank": 1,
                    "torsion": {"table": symmetric_group_3_table()}})
    assert not g.is_abelian
    assert not g.torsion_is_central()
    a = g.element((1,), 1)
    b = g.element((0,), 4)
    # free and torsion parts multiply independently
    assert g.mul(a, b) == g.element((1,), g.torsion.mul_key(1, 4))
    assert len(g.commutator_subgroup()) == 3


# --- associativity by construction ---------------------------------------------


def dihedral_4_table():
    """D4 as pairs (reflection bit, rotation), identity first."""
    elems = [(e, a) for e in (0, 1) for a in range(4)]
    index = {el: i for i, el in enumerate(elems)}
    return [[index[((e1 + e2) % 2, ((-a2 if e1 else a2) + a1) % 4)]
             for e2, a2 in elems] for e1, a1 in elems]


def quaternion_table():
    """Q8 as signed units (sign, unit), units 1, i, j, k, identity first."""
    cyclic = {(1, 2): 3, (2, 3): 1, (3, 1): 2}

    def unit_product(u, v):
        if u == 0 or v == 0:
            return 1, u + v
        if u == v:
            return -1, 0
        if (u, v) in cyclic:
            return 1, cyclic[(u, v)]
        return -1, cyclic[(v, u)]

    elems = [(s, u) for s in (1, -1) for u in range(4)]
    index = {el: i for i, el in enumerate(elems)}
    table = []
    for s1, u1 in elems:
        row = []
        for s2, u2 in elems:
            sign, unit = unit_product(u1, u2)
            row.append(index[(s1 * s2 * sign, unit)])
        table.append(row)
    return table


# a loop of order 5 (a Latin square with identity 0) that is no group:
# 1 * 1 = 0, and no group of order 5 has an element of order 2
LOOP_5 = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3],
          [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]


@pytest.mark.parametrize("build, message", [
    (lambda: TableTorsion(LOOP_5), "associativity fails"),
    (lambda: Group(2, TableTorsion(symmetric_group_3_table()),
                   pairing_matrix=[[0, 1], [0, 0]], pairing_target=1),
     "pairing requires an abelian torsion part"),
    (lambda: Group(2, InvariantsTorsion((2,)),
                   pairing_matrix=[[0, 0], [1, 0]], pairing_target=(1,)),
     "strictly upper triangular"),
    (lambda: Group(2, InvariantsTorsion((2,)),
                   pairing_matrix=[[1, 1], [0, 0]], pairing_target=(1,)),
     "strictly upper triangular"),
    (lambda: Group(0, TableTorsion(symmetric_group_3_table()),
                   prufer=(2, 3)),
     "Pruefer component requires an abelian torsion part"),
], ids=["non-associative-table", "pairing-on-non-abelian", "lower-pairing",
        "diagonal-pairing", "prufer-on-non-abelian"])
def test_each_associativity_guard_rejects_its_spec(build, message):
    with pytest.raises(GroupValidationError, match=message):
        build()


def test_non_integer_pairing_matrix_rejected():
    with pytest.raises(InstanceFormatError):
        Group(2, InvariantsTorsion((2,)),
              pairing_matrix=[[0, 0.5], [0, 0]], pairing_target=(1,))


TABLES = {"s3": symmetric_group_3_table(), "d4": dihedral_4_table(),
          "q8": quaternion_table()}


@st.composite
def drawn_groups(draw):
    if draw(st.booleans()):
        table = TABLES[draw(st.sampled_from(sorted(TABLES)))]
        return Group(draw(st.integers(0, 2)), TableTorsion(table))
    invariants = draw(st.lists(st.integers(2, 4), min_size=1, max_size=3))
    rank = draw(st.integers(0, 3))
    matrix = target = None
    if rank >= 2:
        matrix = [[draw(st.integers(-3, 3)) if j > i else 0
                   for j in range(rank)] for i in range(rank)]
        target = [draw(st.integers(0, d - 1)) for d in invariants]
    prufer = draw(st.sampled_from([None, (2, 3), (3, 2)]))
    return Group(rank, InvariantsTorsion(invariants), pairing_matrix=matrix,
                 pairing_target=target, prufer=prufer)


def drawn_element(data, g):
    u = tuple(data.draw(st.integers(-3, 3)) for _ in range(g.rank))
    t = data.draw(st.integers(0, g.torsion.size - 1))
    s = 0
    if g.prufer:
        q, levels = g.prufer
        s = data.draw(st.integers(0, q ** levels - 1))
    return g.from_key(t, u, s)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_the_law_is_associative_on_drawn_triples(data):
    g = data.draw(drawn_groups())
    for _ in range(4):
        a, b, c = (drawn_element(data, g) for _ in range(3))
        assert g.mul(g.mul(a, b), c) == g.mul(a, g.mul(b, c))


# --- the Pruefer numerator against the fraction law --------------------------


def ref_prufer(g, el):
    """The Pruefer coordinate the numerator stands for, a Fraction mod 1."""
    return Fraction(el.s, g.prufer[0] ** g.prufer[1])


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_int_prufer_matches_the_fraction_law(data):
    q, levels = data.draw(st.sampled_from([(2, 3), (3, 2)]))
    rank = data.draw(st.integers(0, 2))
    pairing = {} if rank < 2 or data.draw(st.booleans()) else {
        "pairing_matrix": [[0, 1], [0, 0]], "pairing_target": (1, 0)}
    g = Group(rank, InvariantsTorsion((2, 3)), prufer=(q, levels), **pairing)
    assert g.prufer_modulus == q ** levels
    a, b = drawn_element(data, g), drawn_element(data, g)
    fa = ref_prufer(g, a)
    assert ref_prufer(g, g.mul(a, b)) == (fa + ref_prufer(g, b)) % 1
    assert ref_prufer(g, g.inv(a)) == -fa % 1
    assert g.mul(g.inv(a), a) == g.identity
    order = math.inf if any(a.u) else math.lcm(
        g.torsion.order_key(a.t), fa.denominator)
    assert g.element_order(a) == order
    obj = {"u": list(a.u), "a": list(g.torsion.coords(a.t))}
    if fa:
        obj["prufer"] = f"{fa.numerator}/{fa.denominator}"
    assert g.element_to_json(a) == obj
    assert repr(a) == (f"El(u={list(a.u)}, t={g.torsion.coords(a.t)}, "
                       f"s={fa})")
    assert g.element(a.u, g.torsion.coords(a.t), fa) == a
    assert g.element(a.u, g.torsion.coords(a.t), fa + 3) == a


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_the_law_stores_int_prufer_numerators(data):
    # a Fraction equal to an int hashes and compares like it, so only the
    # type shows which law produced the coordinate
    g = data.draw(drawn_groups())
    a, b = drawn_element(data, g), drawn_element(data, g)
    made = [g.mul(a, b), g.inv(a), g.power(a, 3), g.identity,
            g.element(a.u, g.torsion.coords(a.t), ref_prufer(g, a)
                      if g.prufer else 0)]
    made += g.torsion_elements() + [el for _, el in g.generators()]
    for el in made:
        assert type(el.s) is int and 0 <= el.s < g.prufer_modulus
