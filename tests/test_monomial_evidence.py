"""Orbit probes and basis-unit scalars read off the monomial law, against
dense references: the old conjugation loop of `AlgebraElement` products
and the `Scalar` products of `Cocycle.__call__`."""

import math
import time

import pytest

import fcunits.cli as cli
import fcunits.fc as fc
from fcunits.algebra import AlgebraElement, try_invert
from fcunits.cocycles import (
    commutator_scalar,
    condition4_set,
    conjugation_map,
    generator_box,
    power_scalar,
)
from fcunits.errors import CapExceeded, GroupMismatch
from fcunits.fields import Scalar

NAMES = [n for n in cli.bundled_names() if n != "broken_cocycle"] \
    + [f"lemma3/{n}" for n in cli.bundled_names("lemma3")]

# tau(a, b) = 2^(a2*b1) on C2 x C2: a valid cocycle that is not symmetric,
# which no bundled instance has
KLEIN_TWISTED = {
    "field": {"kind": "prime-power", "p": 3},
    "group": {"kind": "central-extension", "rank": 1,
              "torsion": {"invariants": [2, 2]}},
    "cocycle": {"torsion_table": {"(1,2)": 2, "(1,3)": 2, "(3,2)": 2,
                                  "(3,3)": 2}},
}


def bundled(name):
    return fc.instance_from_json(KLEIN_TWISTED if name == "klein_twisted"
                                 else cli.bundled_instance(name))


def z2_zeta2_rationals():
    return fc.instance_from_json({
        "field": {"kind": "rationals"},
        "group": {"kind": "central-extension", "rank": 2,
                  "torsion": {"invariants": []}},
        "cocycle": {"bilinear": {"zeta": 2, "matrix": [[0, 1], [0, 0]]}},
    })


def dense_probe(inst, x, depth):
    """The conjugation orbit by dense products u^-1 y u and u y u^-1."""
    algebra = inst.algebra()
    pairs = [(algebra.basis_unit(g), algebra.basis_unit_inverse(g))
             for _, g in inst.group.generators()]
    orbit = {frozenset(x.terms.items())}
    frontier, sizes, stabilized, capped = [x], [1], False, False
    for _ in range(depth):
        new = []
        for y in frontier:
            for u, uinv in pairs:
                for z in (uinv * y * u, u * y * uinv):
                    k = frozenset(z.terms.items())
                    if k not in orbit:
                        orbit.add(k)
                        new.append(z)
            if len(orbit) > fc.ORBIT_SIZE_CAP:
                capped = True
                break
        if capped:
            sizes.append(len(orbit))
            break
        frontier = new
        sizes.append(len(orbit))
        if not new:
            stabilized = True
            break
    return sizes, stabilized, capped


def assert_probe_matches(inst, x, depth=None):
    depth = inst.caps.orbit_depth if depth is None else depth
    probe = fc.probe_conjugates(inst, x, depth=depth)
    assert (probe.sizes, probe.stabilized, probe.capped) \
        == dense_probe(inst, x, depth)
    return probe


@pytest.mark.parametrize("name", NAMES + ["klein_twisted"])
def test_probe_matches_dense_products_on_bundled_generators(name):
    inst = bundled(name)
    algebra = inst.algebra()
    for _, g in inst.group.generators(prufer_level=inst.prufer_level):
        assert_probe_matches(inst, algebra.basis_unit(g))
        assert_probe_matches(inst, algebra.basis_unit(g).scale(-1))


def test_probe_matches_dense_products_on_a_growing_orbit():
    inst = z2_zeta2_rationals()
    x = inst.algebra().basis_unit(inst.group.element((1, 0)))
    probe = assert_probe_matches(inst, x, depth=6)
    # u_f2 conjugates u_f1 to 2^(+-1) u_f1, so depth d holds 2^k, |k| <= d
    assert probe.sizes == [1, 3, 5, 7, 9, 11, 13]
    assert not probe.stabilized and not probe.capped


def test_probe_matches_dense_products_on_a_non_monomial_unit():
    inst = bundled("s3_z_gf5")
    algebra, group = inst.algebra(), inst.group
    x = algebra.element([(group.identity, 2), (group.from_key(1), 1),
                         (group.from_key(2), 3)])
    assert try_invert(algebra, x).is_unit
    probe = assert_probe_matches(inst, x)
    assert probe.stabilized and probe.sizes[-1] > 1


@pytest.mark.parametrize("cap", [1, 2, 4, 5, 6, 12])
def test_probe_matches_dense_products_at_the_size_cap(monkeypatch, cap):
    monkeypatch.setattr(fc, "ORBIT_SIZE_CAP", cap)
    inst = z2_zeta2_rationals()
    algebra, group = inst.algebra(), inst.group
    for x in (algebra.basis_unit(group.element((1, 0))),
              algebra.basis_unit(group.element((1, 1)))):
        probe = assert_probe_matches(inst, x, depth=8)
        assert probe.capped and probe.sizes[-1] > cap


def test_probe_multiplies_no_algebra_elements_after_the_unit_check(
        monkeypatch):
    inst = bundled("s3_z_gf5")
    algebra, group = inst.algebra(), inst.group
    x = algebra.element([(group.identity, 2), (group.from_key(1), 1)])
    checked = []

    def unit_check(*args):
        res = try_invert(*args)
        checked.append(True)
        return res

    def no_product(self, other):
        assert not checked, "an algebra product inside the orbit loop"
        return dense_mul(self, other)

    dense_mul = AlgebraElement.__mul__
    monkeypatch.setattr(fc, "try_invert", unit_check)
    monkeypatch.setattr(AlgebraElement, "__mul__", no_product)
    probe = fc.probe_conjugates(inst, x)
    assert checked and probe.sizes[-1] > 1


@pytest.mark.parametrize("name", NAMES + ["klein_twisted"])
def test_conjugation_map_matches_dense_conjugation_on_the_box(name):
    inst = bundled(name)
    algebra, group, cocycle = inst.algebra(), inst.group, inst.cocycle
    box = generator_box(group, 1)
    ys = [algebra.basis_unit(g) for g in box]
    ys.append(algebra.element([(g, k + 1) for k, g in enumerate(box[:3])]))
    for _, a in group.generators(prufer_level=inst.prufer_level):
        u, uinv = algebra.basis_unit(a), algebra.basis_unit_inverse(a)
        by_a = conjugation_map(cocycle, a)
        by_a_inverse = conjugation_map(cocycle, group.inv(a))
        for y in ys:
            assert by_a(y.terms) == (uinv * y * u).terms
            assert by_a_inverse(y.terms) == (u * y * uinv).terms


def ref_power_scalar(cocycle, g):
    group = cocycle.group
    acc, p = cocycle.field.one, g
    for _ in range(group.element_order(g) - 1):
        acc = acc * cocycle(g, p)
        p = group.mul(g, p)
    return acc


def ref_commutator_scalar(cocycle, a, b):
    group = cocycle.group
    ai, bi = group.inv(a), group.inv(b)
    ab = group.mul(ai, bi)
    return (cocycle(ai, a).inv() * cocycle(bi, b).inv() * cocycle(ai, bi)
            * cocycle(ab, a) * cocycle(group.mul(ab, a), b))


def ref_condition4_values(cocycle, g, level):
    group = cocycle.group
    return frozenset(
        cocycle(h, group.inv(h)).inv() * cocycle(group.inv(h), g)
        * cocycle(group.mul(group.inv(h), g), h)
        for h in group.torsion_elements(level))


def test_basis_unit_scalars_build_one_scalar_per_value(monkeypatch):
    inst = bundled("z3_commutator_gf3")
    group, cocycle = inst.group, inst.cocycle
    a, b = (g for _, g in group.generators()[:2])
    built = []
    scalar_init = Scalar.__init__

    def counting_init(self, field, value):
        built.append(value)
        scalar_init(self, field, value)

    monkeypatch.setattr(Scalar, "__init__", counting_init)
    orbit = condition4_set(cocycle, a)
    assert len(built) == orbit.cardinality
    built.clear()
    commutator_scalar(cocycle, a, b)
    assert len(built) == 1
    built.clear()
    power_scalar(cocycle, group.commutator(a, b))
    assert len(built) == 1


@pytest.mark.parametrize("name", NAMES + ["klein_twisted"])
def test_basis_unit_scalars_match_scalar_products_on_the_box(name):
    inst = bundled(name)
    group, cocycle = inst.group, inst.cocycle
    box = generator_box(group, 1)
    for g in box:
        orbit = condition4_set(cocycle, g, prufer_level=inst.prufer_level)
        expected = ref_condition4_values(cocycle, g, inst.prufer_level)
        assert orbit.values == expected
        assert orbit.cardinality == len(expected)
        assert all(isinstance(v, Scalar) for v in orbit.values)
        if group.element_order(g) != math.inf:
            assert power_scalar(cocycle, g) == ref_power_scalar(cocycle, g)
        for b in box:
            c = commutator_scalar(cocycle, g, b)
            assert isinstance(c, Scalar)
            assert c == ref_commutator_scalar(cocycle, g, b)


def test_basis_unit_scalars_reject_foreign_elements():
    inst, other = bundled("s3_z_gf5"), bundled("z2_to_c3_gf7")
    g, foreign = inst.group.identity, other.group.element((1, 0))
    for call in (lambda: condition4_set(inst.cocycle, foreign),
                 lambda: commutator_scalar(inst.cocycle, g, foreign),
                 lambda: commutator_scalar(inst.cocycle, foreign, g),
                 lambda: power_scalar(inst.cocycle, other.group.identity)):
        with pytest.raises(GroupMismatch):
            call()


@pytest.mark.parametrize("name", NAMES + ["klein_twisted"])
def test_torsion_lambda_table_matches_the_cocycle(name):
    inst = bundled(name)
    S = inst.torsion_subalgebra(inst.prufer_level or 0)
    els = S.subgroup.elements
    assert S.fd.lam == [[inst.cocycle.raw(g, h) for h in els] for g in els]


def test_crossed_product_refuses_rank_four_at_radius_one():
    inst = fc.instance_from_json({
        "field": {"kind": "prime-power", "p": 7},
        "group": {"kind": "central-extension", "rank": 4,
                  "torsion": {"invariants": [3]}},
        "cocycle": {},
    })
    start = time.process_time()
    with pytest.raises(CapExceeded, match="531441 triples at radius 1"):
        fc.build_crossed_product(inst)
    assert time.process_time() - start < 1.0
