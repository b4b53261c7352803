"""Verdict assembly, quotient and crossed-product constructions, probes."""

import itertools
import json
import math
import random
import time

import pytest

import fcunits.fc as fc
from fcunits.algebra import try_invert
from fcunits.cocycles import Cocycle
from fcunits.errors import (
    CapExceeded,
    CertificateFailed,
    ConditionsNotMet,
    InapplicableCharacteristic,
    InapplicableTorsion,
    InstanceFormatError,
    NoSquareRoot,
    NotUnitError,
)
from fcunits.groups import _CyclicCosets, symmetric_group_3_table


def mk(obj):
    return fc.instance_from_json(obj)


def heisenberg(field_spec, cocycle=None):
    return mk({
        "field": field_spec,
        "group": {"kind": "central-extension", "rank": 2,
                  "torsion": {"invariants": [2]},
                  "pairing": {"target_index": 0, "matrix": [[0, 1], [0, 0]]}},
        "cocycle": cocycle or {},
    })


def c3_z_rationals():
    return mk({
        "field": {"kind": "rationals"},
        "group": {"kind": "central-extension", "rank": 1,
                  "torsion": {"invariants": [3]}},
        "cocycle": {},
    })


def condition_map(verdict):
    return {c.cid: c.passed for c in verdict.conditions}


# --- instance parsing ---------------------------------------------------------


def test_instance_digest_stable_and_name_free():
    spec = {
        "field": {"kind": "prime-power", "p": 2},
        "group": {"kind": "central-extension", "rank": 1,
                  "torsion": {"invariants": [2]}},
        "cocycle": {},
    }
    d1 = mk(spec).digest()
    d2 = mk(dict(spec)).digest()
    assert d1 == d2
    named = dict(spec)
    named["name"] = "anything"
    assert mk(named).digest() == d1
    capped = dict(spec)
    capped["caps"] = {"orbit_depth": 4}
    assert mk(capped).digest() != d1


def test_instance_rejects_malformed():
    base = {
        "field": {"kind": "prime-power", "p": 2},
        "group": {"kind": "central-extension", "rank": 0,
                  "torsion": {"invariants": [2]}},
        "cocycle": {},
    }
    with pytest.raises(InstanceFormatError):
        mk([1, 2])
    missing = dict(base)
    del missing["cocycle"]
    with pytest.raises(InstanceFormatError):
        mk(missing)
    extra = dict(base)
    extra["surprise"] = 1
    with pytest.raises(InstanceFormatError):
        mk(extra)
    bad_cap = dict(base)
    bad_cap["caps"] = {"orbit_depth": 13}
    with pytest.raises(InstanceFormatError):
        mk(bad_cap)
    bad_cap2 = dict(base)
    bad_cap2["caps"] = {"speed": 9}
    with pytest.raises(InstanceFormatError):
        mk(bad_cap2)
    bad_name = dict(base)
    bad_name["name"] = 7
    with pytest.raises(InstanceFormatError):
        mk(bad_name)


# --- verdicts -----------------------------------------------------------------


def test_heisenberg_gf2_is_fc_via_t3():
    v = fc.verdict(heisenberg({"kind": "prime-power", "p": 2}))
    assert v.result == "FC"
    assert v.theorem == "T3"
    assert condition_map(v) == {"T3.1": True, "T3.2": True,
                                "T3.3": True, "T3.4": True}
    assert v.evidence["orbits"]["f1"]["sizes_by_depth"] == [1, 2, 2]
    assert v.evidence["orbits"]["f1"]["stabilized"]
    assert v.evidence["orbits"]["t1"]["sizes_by_depth"] == [1, 1]
    assert any("t(G)" in note for note in v.notes)
    blob = json.dumps(v.to_json(), sort_keys=True)
    assert json.loads(blob)["result"] == "FC"


def test_char3_pairing_control_is_not_fc():
    inst = mk({
        "field": {"kind": "prime-power", "p": 3},
        "group": {"kind": "central-extension", "rank": 2,
                  "torsion": {"invariants": [3]},
                  "pairing": {"target_index": 0, "matrix": [[0, 1], [0, 0]]}},
        "cocycle": {},
    })
    v = fc.verdict(inst)
    assert v.result == "NotFC"
    assert v.theorem == "T3"
    assert v.first_failure().cid == "T3.1"
    assert v.first_failure().witness["commutator_subgroup_order"] == 3
    assert condition_map(v)["T3.4"] is True


def test_abelian_char2_notfc_carries_commutative_caveat():
    inst = mk({
        "field": {"kind": "prime-power", "p": 2, "k": 2, "modulus": [1, 1, 1]},
        "group": {"kind": "central-extension", "rank": 2,
                  "torsion": {"invariants": [2]}},
        "cocycle": {"torsion_table": {"(1,1)": [0, 1]}},
    })
    v = fc.verdict(inst)
    assert v.result == "NotFC"
    assert v.first_failure().cid == "T3.1"
    assert any("commutative" in note for note in v.notes)


def test_c3_z_rationals_is_fc_via_t4():
    v = fc.verdict(c3_z_rationals())
    assert v.result == "FC"
    assert v.theorem == "T4"
    assert condition_map(v) == {"T4.1": True, "T4.2": True,
                                "T4.3": True, "T4.4": True}
    comps = v.evidence["decompositions"]["components"]
    assert sorted(c["dim"] for c in comps) == [1, 2]
    assert v.evidence["orbits"]["f1"]["stabilized"]


def test_twisted_c2_z_gf3_is_fc_via_t4():
    inst = mk({
        "field": {"kind": "prime-power", "p": 3},
        "group": {"kind": "central-extension", "rank": 1,
                  "torsion": {"invariants": [2]}},
        "cocycle": {"torsion_table": {"(1,1)": 2}},
    })
    v = fc.verdict(inst)
    assert v.result == "FC" and v.theorem == "T4"
    # u_a^2 = 2 is a non-square mod 3, so the torsion subalgebra is GF(9)
    comps = v.evidence["decompositions"]["components"]
    assert [c["dim"] for c in comps] == [2]


def test_s3_z_gf5_fails_the_commutativity_screen():
    inst = mk({
        "field": {"kind": "prime-power", "p": 5},
        "group": {"kind": "central-extension", "rank": 1,
                  "torsion": {"table": symmetric_group_3_table()}},
        "cocycle": {},
    })
    v = fc.verdict(inst)
    assert v.result == "NotFC"
    assert v.theorem == "necessary-only"
    assert [c.cid for c in v.conditions] == ["L4.torsion-commutative"]
    assert v.conditions[0].witness is not None


def test_s3_z_rationals_trips_two_screens():
    inst = mk({
        "field": {"kind": "rationals"},
        "group": {"kind": "central-extension", "rank": 1,
                  "torsion": {"table": symmetric_group_3_table()}},
        "cocycle": {},
    })
    v = fc.verdict(inst)
    assert v.result == "NotFC"
    ids = [c.cid for c in v.conditions]
    assert ids == ["L4.torsion-commutative", "L6.torsion-central"]


def test_finite_instance_is_inapplicable():
    inst = mk({
        "field": {"kind": "prime-power", "p": 3},
        "group": {"kind": "central-extension", "rank": 0,
                  "torsion": {"invariants": [4]}},
        "cocycle": {},
    })
    v = fc.verdict(inst)
    assert v.result == "Inapplicable"
    assert v.theorem is None
    assert v.conditions == []
    assert any("finite" in note for note in v.notes)


def test_quantum_torus_fc_comes_with_orbit_warning():
    inst = mk({
        "field": {"kind": "rationals"},
        "group": {"kind": "central-extension", "rank": 2,
                  "torsion": {"invariants": []}},
        "cocycle": {"bilinear": {"zeta": "2", "matrix": [[0, 1], [0, 0]]}},
    })
    v = fc.verdict(inst)
    assert v.result == "FC" and v.theorem == "T4"
    assert not v.evidence["orbits"]["f1"]["stabilized"]
    assert v.evidence["orbits"]["f1"]["sizes_by_depth"] == list(range(1, 14, 2))
    assert "warning" in v.notes[-1]


def test_prufer2_char2_lands_in_t3_and_fails_split():
    inst = mk({
        "field": {"kind": "prime-power", "p": 2},
        "group": {"kind": "central-extension", "rank": 0,
                  "torsion": {"invariants": []},
                  "prufer": {"q": 2, "levels": 6}},
        "cocycle": {},
    })
    v = fc.verdict(inst)
    assert v.result == "NotFC" and v.theorem == "T3"
    cm = condition_map(v)
    assert cm["T3.1"] is False and cm["T3.2"] is False
    assert v.conditions[1].witness["two_part_order"].startswith("infinite")


def test_odd_prufer_counts_stop_at_the_group_levels():
    # the truncation level (default 3) is clamped to the Pruefer levels, so
    # T3.3 does not repeat the top-level subgroup past level 1
    inst = mk({
        "field": {"kind": "prime-power", "p": 2},
        "group": {"kind": "central-extension", "rank": 1,
                  "torsion": {"invariants": [2]},
                  "prufer": {"q": 3, "levels": 1}},
        "cocycle": {},
    })
    v = fc.check_theorem3(inst)
    c3 = v.conditions[2]
    assert c3.cid == "T3.3"
    assert c3.witness["component_counts_by_level"] == [2]
    assert inst.prufer_level == 1
    assert fc.structure_report(inst, level=5)["prufer_level"] == 1


# --- quotient construction ------------------------------------------------------


def test_quotient_of_heisenberg_gf2():
    inst = heisenberg({"kind": "prime-power", "p": 2})
    qc = fc.build_quotient_algebra(inst)
    assert qc.mu_root == inst.field.one
    H = qc.quotient_group
    assert H.rank == 2 and H.torsion.size == 1 and H.pairing_matrix is None
    assert qc.quotient_cocycle.torsion_table == {}
    assert qc.checks["projection_pairs_checked"] == 200
    assert qc.checks["ideal_generator_square_zero"]
    assert not qc.project(qc.ideal_generator)
    # the involution projects onto mu_root
    img = qc.project(inst.algebra().basis_unit(qc.involution))
    assert img == qc.quotient_algebra.scalar(qc.mu_root)


def test_quotient_with_nontrivial_square_root():
    # C2 x Z^2 over GF(4) with tau(a,a) = omega: mu_root is omega^2
    inst = mk({
        "field": {"kind": "prime-power", "p": 2, "k": 2, "modulus": [1, 1, 1]},
        "group": {"kind": "central-extension", "rank": 2,
                  "torsion": {"invariants": [2]}},
        "cocycle": {"torsion_table": {"(1,1)": [0, 1]}},
    })
    a = inst.group.element(t=(1,))
    qc = fc.build_quotient_algebra(inst, a=a)
    omega = inst.field.scalar((0, 1))
    assert qc.mu_root == omega * omega
    assert qc.mu_root ** 2 == omega
    assert qc.quotient_cocycle.torsion_table == {}
    img = qc.project(inst.algebra().basis_unit(a))
    assert img == qc.quotient_algebra.scalar(qc.mu_root)


def test_projection_that_keeps_the_ideal_generator_fails(monkeypatch):
    # a coset factorization that forgets the power of a sends u_a to 1,
    # so u_a - mu_root projects to 1 - omega^2, which is not zero
    inst = mk({
        "field": {"kind": "prime-power", "p": 2, "k": 2, "modulus": [1, 1, 1]},
        "group": {"kind": "central-extension", "rank": 2,
                  "torsion": {"invariants": [2]}},
        "cocycle": {"torsion_table": {"(1,1)": [0, 1]}},
    })
    monkeypatch.setattr(_CyclicCosets, "factor",
                        lambda self, el: (self.project(el), 0))
    with pytest.raises(CertificateFailed,
                       match="the ideal generator must project to zero"):
        fc.build_quotient_algebra(inst, a=inst.group.element(t=(1,)))


def test_quotient_keeps_a_pairing_outside_the_involution():
    # [f1, f2] = 2z in C4: the quotient by <2z> keeps the pairing into the
    # image of z, on a table torsion part, which has no JSON form
    from fcunits.errors import GroupValidationError
    from fcunits.groups import group_to_json

    inst = mk({
        "field": {"kind": "prime-power", "p": 2},
        "group": {"kind": "central-extension", "rank": 2,
                  "torsion": {"invariants": [4]},
                  "pairing": {"target_index": 0, "matrix": [[0, 2], [0, 0]]}},
        "cocycle": {},
    })
    qc = fc.build_quotient_algebra(inst, pairs=50)
    H = qc.quotient_group
    assert H.torsion.size == 2 and H.pairing_order == 2
    assert qc.checks["cocycle_identity_checks"] == 8
    with pytest.raises(GroupValidationError):
        group_to_json(H)


def test_quotient_rejections():
    inst3 = c3_z_rationals()
    a3 = inst3.group.element(t=(1,))
    with pytest.raises(ConditionsNotMet, match="involution"):
        fc.build_quotient_algebra(inst3, a=a3)

    # <a> too small to swallow the commutator subgroup (target C4)
    inst4 = mk({
        "field": {"kind": "prime-power", "p": 2},
        "group": {"kind": "central-extension", "rank": 2,
                  "torsion": {"invariants": [4]},
                  "pairing": {"target_index": 0, "matrix": [[0, 1], [0, 0]]}},
        "cocycle": {},
    })
    a4 = inst4.group.element(t=(2,))
    with pytest.raises(ConditionsNotMet, match="not contained"):
        fc.build_quotient_algebra(inst4, a=a4)

    # no rational square root of -1
    instq = mk({
        "field": {"kind": "rationals"},
        "group": {"kind": "central-extension", "rank": 1,
                  "torsion": {"invariants": [2]}},
        "cocycle": {"torsion_table": {"(1,1)": "-1"}},
    })
    with pytest.raises(NoSquareRoot):
        fc.build_quotient_algebra(instq,
                                  a=instq.group.element(t=(1,)))

    # odd characteristic: u_a - mu_root does not square to zero
    inst5 = mk({
        "field": {"kind": "prime-power", "p": 5},
        "group": {"kind": "central-extension", "rank": 1,
                  "torsion": {"invariants": [2]}},
        "cocycle": {"torsion_table": {"(1,1)": 4}},
    })
    with pytest.raises(ConditionsNotMet, match="characteristic 2"):
        fc.build_quotient_algebra(inst5,
                                  a=inst5.group.element(t=(1,)))


def test_quotient_family_mismatch_detected():
    # The guard that the extracted quotient table reproduces every induced
    # value cannot trip on a valid cocycle (validity forces invariance
    # under pairing-target shifts), so feed it an invalid one with the
    # algebra validation switched off: tau(z,z) = omega on the Heisenberg
    # extension makes the induced value depend on the pairing offset.
    from fcunits.algebra import TwistedGroupAlgebra
    from fcunits.cocycles import Cocycle
    from fcunits.fields import gf
    from fcunits.groups import make_group

    field = gf(2, 2, [1, 1, 1])
    group = make_group({
        "kind": "central-extension", "rank": 2,
        "torsion": {"invariants": [2]},
        "pairing": {"target_index": 0, "matrix": [[0, 1], [0, 0]]}})
    omega = field.scalar((0, 1))
    cocycle = Cocycle(group, field, torsion_table={(1, 1): omega})
    inst = fc.Instance(field, group, cocycle)
    inst._algebra = TwistedGroupAlgebra(group, field, cocycle,
                                        validate=False)
    with pytest.raises(ConditionsNotMet, match="family"):
        fc.build_quotient_algebra(inst)


# --- crossed product ------------------------------------------------------------


def test_crossed_product_over_rationals():
    inst = c3_z_rationals()
    cp = fc.build_crossed_product(inst, component_index=1)
    assert cp.component.dim == 2
    assert cp.sigma_labels == {"f1": "identity"}
    assert cp.checked_radius == 3 and cp.checked_triples == 343
    h = cp.quotient.element((1,))
    algebra = inst.algebra()
    w = algebra.basis_unit(cp.rep(h)) * cp.idempotent
    _, _, idems = fc.torsion_field_components(inst)
    res = try_invert(algebra, w + (algebra.one - cp.idempotent),
                     decomposition=idems)
    assert res.status == "unit"
    assert res.inverse * (w + (algebra.one - cp.idempotent)) == algebra.one


def test_crossed_product_factor_set_values_gf7():
    # Z^2 paired into C3 over GF(7): the factor set picks up the cube roots
    inst = mk({
        "field": {"kind": "prime-power", "p": 7},
        "group": {"kind": "central-extension", "rank": 2,
                  "torsion": {"invariants": [3]},
                  "pairing": {"target_index": 0, "matrix": [[0, 1], [0, 0]]}},
        "cocycle": {},
        "caps": {"box_radius": 1},
    })
    assert fc.verdict(inst).result == "FC"
    algebra = inst.algebra()
    z = inst.group.element(t=(1,))
    uz = algebra.basis_unit(z)
    seen = set()
    for idx in range(3):
        cp = fc.build_crossed_product(inst, component_index=idx)
        e = cp.idempotent
        g0 = e.support()[0]
        eigen = (uz * e).coeff(g0) * e.coeff(g0).inv()
        # u_z acts on the component as multiplication by a cube root of 1
        assert uz * e == e.scale(eigen)
        seen.add(int(eigen.to_json()))
        h1 = cp.quotient.element((1, 0))
        h2 = cp.quotient.element((0, 1))
        # mu(h1, h2) is the monomial u_z of the torsion subalgebra, which
        # the component reads as the cube root eigen times e
        assert cp.factor_value(h1, h2) == uz
        assert cp.factor_value(h1, h2) * e == e.scale(eigen)
        assert cp.factor_value(h2, h1) == algebra.one
        assert cp.sigma_labels == {"f1": "identity", "f2": "identity"}
    assert seen == {1, 2, 4}


def test_crossed_product_radius_reduction(monkeypatch):
    monkeypatch.setattr(fc, "FACTOR_SET_TRIPLE_CAP", 100)
    inst = c3_z_rationals()
    cp = fc.build_crossed_product(inst, component_index=0)
    assert cp.checked_radius == 1
    assert cp.checked_triples == 27


def test_crossed_product_needs_fc_conditions():
    inst = mk({
        "field": {"kind": "prime-power", "p": 5},
        "group": {"kind": "central-extension", "rank": 1,
                  "torsion": {"table": symmetric_group_3_table()}},
        "cocycle": {},
    })
    with pytest.raises(ConditionsNotMet):
        fc.build_crossed_product(inst)
    with pytest.raises(ConditionsNotMet, match="out of range"):
        fc.build_crossed_product(c3_z_rationals(), component_index=5)


def _dense_factor_set_sides(cp, a, b, c):
    """Both sides of mu(a, bc) mu(b, c) = mu(ab, c) sigma_c(mu(a, b)) as
    dense products of component elements v u_t e, with sigma_c conjugation
    by the coset representative unit."""
    algebra, e, H = cp.algebra, cp.idempotent, cp.quotient
    rep = algebra.basis_unit(cp.rep(c))
    rep_inv = algebra.basis_unit_inverse(cp.rep(c))

    def dense(h1, h2):
        return cp.factor_value(h1, h2) * e
    lhs = dense(a, H.mul(b, c)) * dense(b, c)
    rhs = dense(H.mul(a, b), c) * (rep_inv * dense(a, b) * rep)
    return lhs, rhs


@pytest.mark.parametrize("name", [
    "c2_z_gf3_twisted", "c3_z_rationals", "z2_to_c3_gf7", "q_c12_z"])
def test_monomial_factor_set_agrees_with_the_dense_identity(name):
    from fcunits import cli
    from fcunits.cocycles import generator_box
    if name == "q_c12_z":
        inst = mk({"field": {"kind": "rationals"},
                   "group": {"kind": "central-extension", "rank": 1,
                             "torsion": {"invariants": [12]}},
                   "cocycle": {}})
    else:
        inst = mk(cli.bundled_instance(name))
    _, report, _ = fc.torsion_field_components(inst)
    for index in range(len(report.components)):
        cp = fc.build_crossed_product(inst, component_index=index)
        e, H = cp.idempotent, cp.quotient
        mu = cp.factor_value
        for a, b, c in itertools.product(generator_box(H, 1), repeat=3):
            lhs, rhs = _dense_factor_set_sides(cp, a, b, c)
            mono_lhs = mu(a, H.mul(b, c)) * mu(b, c)
            mono_rhs = mu(H.mul(a, b), c) * mu(a, b)
            assert mono_lhs == mono_rhs and len(mono_lhs.terms) == 1
            assert lhs == rhs == mono_lhs * e


def test_crossed_products_of_q_c36_z_are_quick():
    # the monomial check costs one group product and one lambda per side,
    # where dense products of e u_t took seconds per component
    inst = mk({"field": {"kind": "rationals"},
               "group": {"kind": "central-extension", "rank": 1,
                         "torsion": {"invariants": [36]}},
               "cocycle": {}})
    _, report, _ = fc.torsion_field_components(inst)
    assert len(report.components) == 9
    t0 = time.process_time()
    for index in range(9):
        cp = fc.build_crossed_product(inst, component_index=index)
        assert cp.checked_triples == 343
    assert time.process_time() - t0 < 2


class _CrossTermCocycle(Cocycle):
    """lambda(g, h) = (-1)^(t_g u_h) on Z x C2: a bilinear cocycle with a
    cross term, outside the family, under which u_t anticommutes with
    u_f, so no torsion unit but 1 is central."""

    def raw(self, g, h):
        return self.field.from_int(-1 if g.t * h.u[0] % 2 else 1).value


def test_noncentral_component_generator_fails():
    # T4 reads centrality off the family's shape, which this cocycle
    # leaves; the crossed product's own certificate catches it
    from fcunits.fields import gf
    from fcunits.groups import make_group
    group = make_group({"kind": "central-extension", "rank": 1,
                        "torsion": {"invariants": [2]}})
    field = gf(3)
    inst = fc.Instance(field, group, _CrossTermCocycle(group, field))
    assert fc.check_theorem4(inst).result == "FC"
    with pytest.raises(CertificateFailed,
                       match="the generator of a field component must be "
                             "central"):
        fc.build_crossed_product(inst)


def test_decomposition_inverts_a_field_unit_times_a_coset_unit():
    # on the Q(zeta3) component the corner part (u_t + 2) e2 u_f is a
    # unit of the field times u_f, not a scalar multiple of e2 u_f
    inst = c3_z_rationals()
    algebra, group = inst.algebra(), inst.group
    _, report, idems = fc.torsion_field_components(inst)
    dims = [c.dim for c in report.components]
    e1, e2 = idems[dims.index(1)], idems[dims.index(2)]
    uf = algebra.basis_unit(group.element(u=(1,)))
    ut = algebra.basis_unit(group.element(t=(1,)))
    x = e1 * uf + (ut + algebra.scalar(2)) * e2 * uf
    res = try_invert(algebra, x, decomposition=idems)
    assert res.status == "unit" and res.strategy == "decomposition"
    assert x * res.inverse == res.inverse * x == algebra.one
    # two free parts in one corner, and a corner part that is a zero
    # divisor times u_f, are left unknown
    for y, decomposition in ((e1 * (uf + uf * uf) + e2 * uf, idems),
                             ((algebra.one - ut) * uf, [algebra.one])):
        res = try_invert(algebra, y, decomposition=decomposition)
        assert res.status == "unknown"
        assert res.certificate == ("a component of x is not a unit of its "
                                   "corner times one coset unit u_c")


def test_sampled_units_invert_by_decomposition():
    inst = c3_z_rationals()
    units, idems = fc.sample_decomposed_units(inst, 8, seed=11)
    algebra = inst.algebra()
    for x in units:
        res = try_invert(algebra, x, decomposition=idems)
        assert res.status == "unit"
        assert res.strategy == "decomposition"
        assert res.inverse * x == algebra.one


def test_random_scalars_cover_an_extension_field():
    # over GF(p^k) a drawn scalar is any element, not only an n * 1
    from fcunits.fields import gf
    F9 = gf(3, 2, [1, 0, 1])
    rng = random.Random(5)
    drawn = {fc._random_scalar(F9, rng, nonzero=True) for _ in range(200)}
    assert drawn == {s for s in F9.elements() if s}


def test_sampled_units_over_gf4_invert_by_decomposition():
    inst = mk({
        "field": {"kind": "prime-power", "p": 2, "k": 2,
                  "modulus": [1, 1, 1]},
        "group": {"kind": "central-extension", "rank": 1,
                  "torsion": {"invariants": [3]}},
        "cocycle": {},
    })
    units, idems = fc.sample_decomposed_units(inst, 8, seed=11)
    algebra = inst.algebra()
    for x in units:
        res = try_invert(algebra, x, decomposition=idems)
        assert res.status == "unit"
        assert res.inverse * x == algebra.one


# --- truncated Pruefer evidence ---------------------------------------------------


def test_prufer_evidence_gf257():
    inst = mk({
        "field": {"kind": "prime-power", "p": 257},
        "group": {"kind": "central-extension", "rank": 1,
                  "torsion": {"invariants": []},
                  "prufer": {"q": 2, "levels": 8}},
        "cocycle": {},
        "caps": {"truncation_level": 4},
    })
    v = fc.verdict(inst)
    assert v.result == "EvidenceOnly"
    assert v.theorem == "T5-truncated"
    assert condition_map(v) == {"T5.1": True, "T5.2": True,
                                "T5.3": True, "T5.4": True}
    # 257 - 1 = 2^8, so every level up to 8 has a primitive root
    prof = v.conditions[0].witness["root_of_unity_profile"]
    assert prof["max_level_with_primitive_root"] == 8
    dec = v.evidence["decompositions"]
    assert dec["component_counts_by_level"] == [2, 4, 8, 16]
    assert dec["idempotent_chain"] == {"length": 4, "absorbing": True,
                                       "distinct": True}
    assert all(entry["all_pairs_annihilate"]
               for entry in dec["difference_annihilation"])


def test_prufer_evidence_rationals_q3():
    inst = mk({
        "field": {"kind": "rationals"},
        "group": {"kind": "central-extension", "rank": 0,
                  "torsion": {"invariants": []},
                  "prufer": {"q": 3, "levels": 5}},
        "cocycle": {},
        "caps": {"truncation_level": 2},
    })
    v = fc.check_theorem5_truncated(inst)
    assert v.result == "EvidenceOnly"
    prof = v.conditions[0].witness["root_of_unity_profile"]
    assert prof == {"prime": 3, "max_level_with_primitive_root": 0,
                    "first_missing_level": 1}
    assert v.evidence["decompositions"]["component_counts_by_level"] == [2, 3]


def test_checker_gates():
    prufer2 = mk({
        "field": {"kind": "prime-power", "p": 2},
        "group": {"kind": "central-extension", "rank": 0,
                  "torsion": {"invariants": []},
                  "prufer": {"q": 2, "levels": 4}},
        "cocycle": {},
    })
    with pytest.raises(InapplicableCharacteristic):
        fc.check_theorem5_truncated(prufer2)
    with pytest.raises(InapplicableTorsion):
        fc.check_theorem4(prufer2)
    with pytest.raises(InapplicableCharacteristic):
        fc.check_theorem3(c3_z_rationals())
    with pytest.raises(InapplicableTorsion):
        fc.check_theorem5_truncated(c3_z_rationals())
    # the verdict routes this one to T3; a direct T5 call refuses it
    c3_prufer2_gf3 = mk({
        "field": {"kind": "prime-power", "p": 3},
        "group": {"kind": "central-extension", "rank": 0,
                  "torsion": {"invariants": [3]},
                  "prufer": {"q": 2, "levels": 2}},
        "cocycle": {},
    })
    with pytest.raises(InapplicableCharacteristic,
                       match="divides a finite torsion order"):
        fc.check_theorem5_truncated(c3_prufer2_gf3)


# --- commutator orders and orbit probes ---------------------------------------------


def test_commutator_orders_match_on_untwisted_heisenberg():
    inst = heisenberg({"kind": "prime-power", "p": 2})
    a = inst.group.element((1, 0))
    b = inst.group.element((0, 1))
    rep = fc.commutator_order_check(inst, a, b)
    assert rep.group_order == 2
    assert rep.unit_order == 2
    assert rep.equal


def test_commutator_orders_diverge_with_twist():
    # free generators commute in the group but their units pick up omega
    inst = mk({
        "field": {"kind": "prime-power", "p": 2, "k": 2, "modulus": [1, 1, 1]},
        "group": {"kind": "central-extension", "rank": 2,
                  "torsion": {"invariants": []}},
        "cocycle": {"bilinear": {"zeta": [0, 1], "matrix": [[0, 1], [0, 0]]}},
    })
    a = inst.group.element((1, 0))
    b = inst.group.element((0, 1))
    rep = fc.commutator_order_check(inst, a, b)
    assert rep.group_order == 1
    # the commutator scalar omega has order 3
    assert rep.unit_order == 3
    assert rep.equal is False

    torus = mk({
        "field": {"kind": "rationals"},
        "group": {"kind": "central-extension", "rank": 2,
                  "torsion": {"invariants": []}},
        "cocycle": {"bilinear": {"zeta": 2, "matrix": [[0, 1], [0, 0]]}},
    })
    rep = fc.commutator_order_check(torus, torus.group.element((1, 0)),
                                    torus.group.element((0, 1)))
    assert rep.group_order == 1
    assert rep.unit_order is None
    assert not rep.equal


def test_probe_rejects_non_units_and_deep_probes():
    inst = heisenberg({"kind": "prime-power", "p": 2})
    algebra = inst.algebra()
    z = inst.group.element(t=(1,))
    nil = algebra.one + algebra.basis_unit(z)
    with pytest.raises(NotUnitError):
        fc.probe_conjugates(inst, nil)
    with pytest.raises(CapExceeded):
        fc.probe_conjugates(inst, algebra.one, depth=13)
    with pytest.raises(InstanceFormatError,
                       match=r"^depth must be an int in \[0, 12\], got -1$"):
        fc.probe_conjugates(inst, algebra.one, depth=-1)


def test_probe_stabilizes_on_central_unit():
    inst = heisenberg({"kind": "prime-power", "p": 2})
    algebra = inst.algebra()
    probe = fc.probe_conjugates(inst, algebra.basis_unit(
        inst.group.element(t=(1,))))
    assert probe.stabilized and probe.sizes == [1, 1]


# --- structure report -------------------------------------------------------------


def test_structure_report_shapes():
    rep = fc.structure_report(c3_z_rationals())
    assert rep["torsion_dimension"] == 3
    assert rep["radical"]["dimension"] == 0
    assert rep["idempotent_count"] == 4
    assert rep["primitive_idempotents"] == 2
    assert rep["decomposition"]["is_sum_of_fields"]

    prufer = mk({
        "field": {"kind": "prime-power", "p": 257},
        "group": {"kind": "central-extension", "rank": 1,
                  "torsion": {"invariants": []},
                  "prufer": {"q": 2, "levels": 8}},
        "cocycle": {},
    })
    rep2 = fc.structure_report(prufer, level=2)
    assert rep2["prufer_level"] == 2
    assert rep2["torsion_dimension"] == 4
    assert rep2["primitive_idempotents"] == 4


@pytest.mark.parametrize("level", [-2, 0, 9])
def test_structure_report_rejects_a_level_outside_the_cap_range(level):
    # None means the instance's own level; 0 does not
    from fcunits import cli

    inst = mk(cli.bundled_instance("prufer2_gf257"))
    with pytest.raises(InstanceFormatError, match=(
            rf"^level must be an int in \[1, 8\], got {level}$")):
        fc.structure_report(inst, level=level)


def test_structure_report_certifies_each_fact_once(monkeypatch):
    from fcunits import cli, structure

    # the radical is certified where its ideal test runs
    calls = {"primitive_idempotents": 0, "_is_ideal": 0}
    for name in calls:
        def counted(*args, _name=name, _original=getattr(structure, name),
                    **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(structure, name, counted)
        if hasattr(fc, name):
            monkeypatch.setattr(fc, name, counted)
    rep = fc.structure_report(mk(cli.bundled_instance("lemma3/c4_gf25")))
    assert rep["primitive_idempotents"] == 4
    assert calls == {"primitive_idempotents": 1, "_is_ideal": 1}


def test_noncommutative_structure_report_certifies_the_radical_once(
        monkeypatch):
    from fcunits import cli, structure

    seen = _calls(monkeypatch, structure, "jacobson_radical")
    rep = fc.structure_report(mk(cli.bundled_instance("s3_z_gf5")))
    # GF(5)[S3] = GF(5) + GF(5) + M2(GF(5)): 2 * 2 * (1 + 30 + 1)
    assert rep["idempotent_count"] == 128
    assert rep["radical"]["dimension"] == 0
    assert len(seen) == 1


def _box_scan(algebra, x):
    """Centrality against every u_g of the radius-1 box, in box order."""
    from fcunits.cocycles import generator_box

    for g in generator_box(algebra.group, 1):
        if not x.commutes_with(algebra.basis_unit(g)):
            return False, g
    return True, None


def test_centrality_by_generators_matches_the_box_scan():
    from fcunits import cli
    from fcunits.errors import NotCommutative
    from fcunits.structure import primitive_idempotents

    names = [n for n in cli.bundled_names() if n != "broken_cocycle"] \
        + [f"lemma3/{n}" for n in cli.bundled_names("lemma3")]
    assert len(names) == 31
    outcomes = []
    for name in names:
        inst = mk(cli.bundled_instance(name))
        algebra, group = inst.algebra(), inst.group
        items = [algebra.basis_unit(h)
                 for h in group.torsion_elements(inst.prufer_level)]
        # the invariant that makes an L5 screen redundant: once L4 passes,
        # every torsion unit is central, so K_lambda T is central
        if fc._torsion_commutativity_witness(inst) is None:
            assert all(map(algebra.is_central, items)), name
        # the coprime-order primitive idempotents, at Pruefer level 1
        p = inst.field.characteristic
        level = int(group.prufer is not None and p != group.prufer[0])
        S = inst.subalgebra_over(
            h for h in group.torsion_elements(level)
            if p == 0 or group.element_order(h) % p)
        try:
            items += map(S.to_ambient, primitive_idempotents(S.fd))
        except NotCommutative:
            pass
        for x in items:
            outcomes.append(algebra.is_central(x))
            assert outcomes[-1] == _box_scan(algebra, x), name
    # both answers occur, so the box scan after a failing generator runs
    assert {ok for ok, _ in outcomes} == {True, False}


def _calls(monkeypatch, owner, name):
    """Record the first argument of every call of owner.name."""
    seen = []
    original = getattr(owner, name)

    def counted(first, *args, **kwargs):
        seen.append(first)
        return original(first, *args, **kwargs)
    monkeypatch.setattr(owner, name, counted)
    return seen


def _analyze_bundled(name, *flags):
    from importlib import resources
    from fcunits import cli

    path = resources.files("fcunits") / "instances" / f"{name}.json"
    assert cli.main(["analyze", str(path), *flags]) == 0


def test_one_subalgebra_and_one_split_per_fact(monkeypatch, capsys):
    from fcunits import structure

    # T5 reads its truncation levels off the split of C16, which the
    # structure section shares; nothing else is built or split
    builds = _calls(monkeypatch, structure.FiniteSubalgebra, "__init__")
    splits = []
    original = structure._split
    monkeypatch.setattr(structure, "_split", lambda fd, e, *args:
                        splits.append((fd.dim, e == fd.one))
                        or original(fd, e, *args))
    _analyze_bundled("prufer2_gf257", "--verdict", "--structure")
    assert len(builds) == 1
    assert splits == [(16, True)]
    # T4 splits its 3-dimensional algebra once: one split of the whole
    # algebra, then its corners Q and Q(w)
    builds.clear()
    splits.clear()
    _analyze_bundled("c3_z_rationals", "--verdict")
    assert len(builds) == 1
    assert splits.count((3, True)) == 1
    capsys.readouterr()


def test_each_subgroup_is_closed_once(monkeypatch, capsys):
    from fcunits import cli

    # the verdict and the structure section both ask for C16
    closures = []
    original = fc.finite_subgroup

    def counted(group, elements, *args, **kwargs):
        sub = original(group, elements, *args, **kwargs)
        closures.append(frozenset(sub.elements))
        return sub
    monkeypatch.setattr(fc, "finite_subgroup", counted)
    _analyze_bundled("prufer2_gf257", "--verdict", "--structure")
    capsys.readouterr()
    assert len(closures) == len(set(closures)) == 1
    closures.clear()
    inst = mk(cli.bundled_instance("prufer2_gf257"))
    S = inst.torsion_subalgebra(4)
    assert inst.subalgebra_over(inst.group.torsion_elements(4)) is S
    # a generator of C16 is a new element set for the same subgroup: it
    # is closed once, then found under its own set
    generator = inst.group.generators(prufer_level=4)[-1][1]
    assert inst.subalgebra_over([generator]) is S
    assert inst.subalgebra_over([generator]) is S
    assert len(closures) == 2


def _quotient_builds(monkeypatch):
    """Record the parent of every Subquotient built modulo an ideal."""
    from fcunits import structure

    parents = []
    original = structure.Subquotient.__init__

    def counted(self, parent, ideal_span, candidates, one):
        ideal_span = list(ideal_span)
        if ideal_span:
            parents.append(parent)
        original(self, parent, ideal_span, candidates, one)
    monkeypatch.setattr(structure.Subquotient, "__init__", counted)
    return parents


def _analyze_spec(tmp_path, spec, *flags):
    from fcunits import cli

    path = tmp_path / "instance.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    assert cli.main(["analyze", str(path), *flags]) == 0


def test_one_radical_proof_and_quotient_per_algebra(monkeypatch, tmp_path,
                                                    capsys):
    from fcunits import cli, structure

    # GF(3)[S3] x Z: T3 and the structure section's blocks read the one
    # certified radical, its A / J and its nilpotency proof
    spec = cli.bundled_instance("s3_z_gf5")
    spec["field"]["p"] = 3
    quotients = _calls(monkeypatch, structure, "quotient_algebra")
    proofs = _calls(monkeypatch, structure, "ideal_nilpotency_index")
    builds = _quotient_builds(monkeypatch)
    _analyze_spec(tmp_path, spec, "--verdict", "--structure")
    assert len(quotients) == len(proofs) == len(builds) == 1


@pytest.mark.parametrize("p", [2, 3])
def test_oracle_unit_count_reads_the_kept_quotient(monkeypatch, tmp_path,
                                                   capsys, p):
    # GF(p)[C6] has a radical; the oracle's unit count splits the A / J
    # that the structure section's radical certificate built
    builds = _quotient_builds(monkeypatch)
    _analyze_spec(tmp_path, {
        "field": {"kind": "prime-power", "p": p},
        "group": {"kind": "central-extension", "rank": 0,
                  "torsion": {"invariants": [6]}},
        "cocycle": {}}, "--structure", "--oracle")
    report = json.loads(capsys.readouterr().out)
    assert report["sections"]["oracle"]["agree"] is True
    assert len(builds) == 1


def test_t4_splits_with_the_run_seed(monkeypatch, capsys):
    from fcunits import structure

    # the structure section reuses T4's split only when both use the run's
    # seed; a split under seed 0 would double the calls under seed 1 (the
    # corner recursion splits Q[C3] = Q + Q(w) in three calls)
    monkeypatch.setenv("FC_UNITS_SEED", "1")
    rational = _calls(monkeypatch, structure, "_split")
    _analyze_bundled("c3_z_rationals", "--verdict", "--structure")
    assert len(rational) == 3
    capsys.readouterr()


def test_verdict_json_is_deterministic():
    inst = heisenberg({"kind": "prime-power", "p": 2})
    a = json.dumps(fc.verdict(inst).to_json(), sort_keys=True)
    b = json.dumps(fc.verdict(
        heisenberg({"kind": "prime-power", "p": 2})).to_json(),
        sort_keys=True)
    assert a == b
