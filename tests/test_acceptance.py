"""The ten acceptance gates, one test per criterion, each with a wall-clock
budget.  Run with -s to see the ACCEPTANCE checklist lines."""

import itertools
import json
import pathlib
import random
import time
from fractions import Fraction

from fcunits import cli, fc
from fcunits.algebra import prufer_idempotent_chain, try_invert
from fcunits.cocycles import Cocycle, generator_box, validate_cocycle
from fcunits.fc import Instance, instance_from_json
from fcunits.fields import gf, rationals
from fcunits.groups import make_group, symmetric_group_3_table
from fcunits.oracle import oracle_report, predicted_unit_count
from fcunits.structure import (
    fields_decomposition,
    jacobson_radical,
    primitive_idempotents,
)

GOLDEN = pathlib.Path(__file__).parent / "golden"

RATIONAL_POOL = [1, 2, 3, 5, -1, -2, Fraction(1, 2), Fraction(3, 2),
                 Fraction(-1, 3), Fraction(2, 5)]


def bundled(name):
    return instance_from_json(cli.bundled_instance(name))


def stamp(n, budget, t0):
    elapsed = time.monotonic() - t0
    assert elapsed < budget, f"criterion {n} took {elapsed:.1f}s, " \
                             f"budget {budget}s"
    print(f"ACCEPTANCE {n} PASS ({elapsed:.2f}s < {budget}s)")


def nonzero_pool(field):
    if field.is_finite():
        return [s for s in field.elements() if s]
    return [field.scalar(v) for v in RATIONAL_POOL]


def random_torsion_table(rng, group, field, pool):
    """Complete nonidentity-pair table of a random coboundary, optionally
    twisted by a random carry cocycle on each invariant factor."""
    tor = group.torsion
    keys = tor.keys()
    delta = {k: field.one if k == 0 else rng.choice(pool) for k in keys}
    table = {}
    for i in keys:
        for j in keys:
            if i == 0 or j == 0:
                continue
            k = tor.mul_key(i, j)
            table[(i, j)] = delta[i] * delta[j] * delta[k].inv()
    invariants = getattr(tor, "invariants", None)
    if invariants and rng.random() < 0.5:
        vals = [rng.choice(pool) for _ in invariants]
        for i in keys:
            for j in keys:
                if i == 0 or j == 0:
                    continue
                carry = field.one
                for a, b, n, v in zip(tor.coords(i), tor.coords(j),
                                      invariants, vals):
                    if a + b >= n:
                        carry = carry * v
                table[(i, j)] = table[(i, j)] * carry
    return table


def test_acceptance_01_cocycle_validity_and_mutation_detection():
    t0 = time.monotonic()
    rng = random.Random(101)
    fields = [gf(3), gf(5), gf(7), gf(2, 2, [1, 1, 1]), gf(3, 2, [1, 0, 1]),
              rationals()]
    for round_no in range(100):
        field = fields[round_no % len(fields)]
        pool = nonzero_pool(field)
        n = rng.randrange(3, 9)
        rank = round_no % 3
        group = make_group({"kind": "central-extension", "rank": rank,
                            "torsion": {"invariants": [n]}})
        table = random_torsion_table(rng, group, field, pool)
        zeta, matrix = None, None
        if rank == 2:
            zeta = rng.choice(pool)
            matrix = [[0, rng.randint(-2, 2)], [0, 0]]
        cocycle = Cocycle(group, field, torsion_table=dict(table),
                          zeta=zeta, matrix=matrix)
        assert validate_cocycle(group, cocycle).valid

        i, j = rng.randrange(1, n), rng.randrange(1, n)
        old = table[(i, j)]
        table[(i, j)] = rng.choice([v for v in pool if v != old])
        mutated = Cocycle(group, field, torsion_table=table,
                          zeta=zeta, matrix=matrix)
        res = validate_cocycle(group, mutated)
        assert not res.valid
        assert res.counterexample is not None
        assert res.counterexample.lhs != res.counterexample.rhs
    stamp(1, 10, t0)


def test_acceptance_02_torsion_unit_inversion_suite():
    t0 = time.monotonic()
    names = cli.bundled_names("lemma3")
    assert len(names) == 20
    for name in names:
        inst = bundled(f"lemma3/{name}")
        algebra = inst.algebra()
        field = inst.field
        tor = inst.group.torsion
        assert field.size() <= 81 and tor.size <= 12
        scalars = list(field.elements())
        for key in tor.keys():
            g = inst.group.from_key(key)
            d = tor.order_key(key)
            u = algebra.basis_unit(g)
            power = u ** d
            assert list(power.terms) == [inst.group.identity]
            lam = power.coeff(inst.group.identity)
            not_invertible = 0
            for alpha in scalars:
                x = u - algebra.scalar(alpha)
                res = try_invert(algebra, x)
                assert res.status != "unknown"
                if alpha ** d != lam:
                    assert res.is_unit
                    assert x * res.inverse == algebra.one
                    assert res.inverse * x == algebra.one
                else:
                    assert not res.is_unit
                    not_invertible += 1
            assert not_invertible <= d
    stamp(2, 30, t0)


def dihedral_4_table():
    def compose(p, q):
        return tuple(p[q[i]] for i in range(4))

    els = [(0, 1, 2, 3)]
    for p in els:
        for gen in ((1, 2, 3, 0), (3, 2, 1, 0)):
            c = compose(gen, p)
            if c not in els:
                els.append(c)
    assert len(els) == 8
    index = {p: i for i, p in enumerate(els)}
    return [[index[compose(a, b)] for b in els] for a in els]


def quaternion_table():
    cyclic = {("i", "j"): ("k", 1), ("j", "k"): ("i", 1), ("k", "i"): ("j", 1),
              ("j", "i"): ("k", -1), ("k", "j"): ("i", -1),
              ("i", "k"): ("j", -1)}

    def q_mul(a, b):
        (s1, x), (s2, y) = a, b
        s = s1 * s2
        if x == "1":
            return (s, y)
        if y == "1":
            return (s, x)
        if x == y:
            return (-s, "1")
        z, sign = cyclic[(x, y)]
        return (s * sign, z)

    els = [(s, x) for x in ("1", "i", "j", "k") for s in (1, -1)]
    index = {e: n for n, e in enumerate(els)}
    return [[index[q_mul(a, b)] for b in els] for a in els]


def test_acceptance_03_maschke_direction():
    t0 = time.monotonic()
    rng = random.Random(303)
    group_specs = [
        {"invariants": []}, {"invariants": [2]}, {"invariants": [3]},
        {"invariants": [4]}, {"invariants": [2, 2]}, {"invariants": [5]},
        {"invariants": [6]}, {"invariants": [7]}, {"invariants": [8]},
        {"invariants": [2, 4]}, {"invariants": [2, 2, 2]},
        {"table": symmetric_group_3_table()},
        {"table": dihedral_4_table()},
        {"table": quaternion_table()},
    ]
    fields = [gf(2), gf(3), gf(5), rationals()]
    checked = 0
    for spec in group_specs:
        group = make_group({"kind": "central-extension", "rank": 0,
                            "torsion": spec})
        order = group.torsion.size
        for field in fields:
            p = field.characteristic
            if p and order % p == 0:
                continue
            pool = nonzero_pool(field)
            for _ in range(20):
                table = random_torsion_table(rng, group, field, pool)
                inst = Instance(field, group,
                                Cocycle(group, field, torsion_table=table))
                rad = jacobson_radical(inst.torsion_subalgebra().fd)
                assert rad.basis == []
                checked += 1
    assert checked == 42 * 20

    c2 = make_group({"kind": "central-extension", "rank": 0,
                     "torsion": {"invariants": [2]}})
    modular = Instance(gf(2), c2, Cocycle(c2, gf(2)))
    rad = jacobson_radical(modular.torsion_subalgebra().fd)
    assert len(rad.basis) == 1
    stamp(3, 60, t0)


def test_acceptance_04_oracle_agreement():
    t0 = time.monotonic()
    twisted_raw = cli.bundled_instance("gf3_c2_twisted")
    rep = oracle_report(twisted_raw)
    assert rep.unit_count == 8
    assert rep.idempotent_count == 2
    assert rep.radical_dimension == 0
    decomposition = fields_decomposition(
        bundled("gf3_c2_twisted").torsion_subalgebra().fd)
    assert decomposition.is_sum_of_fields
    assert [c.description for c in decomposition.components] == ["GF(3^2)"]
    assert predicted_unit_count(3, 0, [2]) == rep.unit_count

    trivial_rep = oracle_report(cli.bundled_instance("gf3_c2_trivial"))
    assert trivial_rep.unit_count == 4
    assert trivial_rep.idempotent_count == 4
    trivial_dec = fields_decomposition(
        bundled("gf3_c2_trivial").torsion_subalgebra().fd)
    assert sorted(c.dim for c in trivial_dec.components) == [1, 1]
    assert predicted_unit_count(3, 0, [1, 1]) == 4
    stamp(4, 5, t0)


def check_against_golden(name, verdict):
    rendered = json.dumps(verdict.to_json(), indent=2, sort_keys=True) + "\n"
    assert rendered == (GOLDEN / f"{name}.verdict.json").read_text()


def test_acceptance_05_theorem3_verdicts():
    t0 = time.monotonic()
    for name in ("heisenberg_gf2", "heisenberg_gf4"):
        v = fc.verdict(bundled(name))
        assert v.result == "FC" and v.theorem == "T3"
        assert len(v.conditions) == 4
        assert all(c.passed and c.witness for c in v.conditions)
        check_against_golden(name, v)

    control = fc.verdict(bundled("z3_commutator_gf3"))
    assert control.result == "NotFC" and control.theorem == "T3"
    assert control.first_failure().cid == "T3.1"
    check_against_golden("z3_commutator_gf3", control)
    stamp(5, 10, t0)


def test_acceptance_06_theorem4_verdicts():
    t0 = time.monotonic()
    v = fc.verdict(bundled("c3_z_rationals"))
    assert v.result == "FC" and v.theorem == "T4"
    comps = v.evidence["decompositions"]["components"]
    assert sorted(c["dim"] for c in comps) == [1, 2]
    check_against_golden("c3_z_rationals", v)

    v = fc.verdict(bundled("c2_z_gf3_twisted"))
    assert v.result == "FC" and v.theorem == "T4"
    comps = v.evidence["decompositions"]["components"]
    assert [c["description"] for c in comps] == ["GF(3^2)"]
    check_against_golden("c2_z_gf3_twisted", v)

    v = fc.verdict(bundled("s3_z_gf5"))
    assert v.result == "NotFC"
    fail = v.first_failure()
    assert fail.cid == "L4.torsion-commutative"
    assert len(fail.witness["pair"]) == 2
    check_against_golden("s3_z_gf5", v)
    stamp(6, 10, t0)


def test_acceptance_07_quotient_construction():
    t0 = time.monotonic()
    inst = bundled("heisenberg_gf2")
    q = fc.build_quotient_algebra(inst)
    H = q.quotient_group
    assert H.rank == 2 and H.torsion.size == 1
    assert validate_cocycle(H, q.quotient_cocycle).valid
    assert q.checks["projection_pairs_checked"] == 200
    assert q.check_projection_multiplicative(200, seed=77) == 200
    square = q.ideal_generator * q.ideal_generator
    assert not square
    assert q.checks["ideal_generator_square_zero"] is True
    stamp(7, 10, t0)


def test_acceptance_08_crossed_products():
    t0 = time.monotonic()
    certified = []
    for name in sorted(cli.bundled_names()):
        if name == "broken_cocycle":
            continue
        inst = bundled(name)
        v = fc.verdict(inst)
        if v.result == "FC" and v.theorem == "T4":
            certified.append(name)
    assert certified == ["c2_z_gf3_twisted", "c3_z_rationals", "z2_to_c3_gf7"]

    for name in certified:
        inst = bundled(name)
        algebra = inst.algebra()
        _, report, _ = fc.torsion_field_components(inst)
        for index in range(len(report.components)):
            cp = fc.build_crossed_product(inst, component_index=index)
            assert cp.checked_radius == inst.caps.box_radius
            box = generator_box(cp.quotient, cp.checked_radius)
            assert cp.checked_triples == len(box) ** 3

        units, idems = fc.sample_decomposed_units(inst, 50, seed=808)
        by_decomposition = 0
        for u in units:
            res = try_invert(algebra, u, decomposition=idems)
            assert res.is_unit
            # a draw can collapse to a single scaled basis unit (all
            # summands picking the same scalar and coset); everything
            # else must go through the component strategy
            if len(u.terms) > 1:
                assert res.strategy == "decomposition"
                by_decomposition += 1
            assert u * res.inverse == algebra.one
            assert res.inverse * u == algebra.one
        if len(idems) > 1:
            assert by_decomposition >= 40
    stamp(8, 30, t0)


def test_acceptance_09_prufer_chain_evidence():
    t0 = time.monotonic()
    inst = bundled("prufer2_gf257")
    algebra = inst.algebra()
    chain = prufer_idempotent_chain(algebra, 4)
    assert len(chain) == 4
    for k in range(3):
        assert chain[k] * chain[k + 1] == chain[k + 1]
        assert chain[k + 1] * chain[k] == chain[k + 1]

    S4 = inst.torsion_subalgebra(4)
    prims = [S4.to_ambient(v) for v in primitive_idempotents(S4.fd)]
    assert len(prims) == 16
    gens = inst.group.generators(prufer_level=4)
    for (_, a), (_, b) in itertools.combinations(gens, 2):
        delta = algebra.one - algebra.basis_commutator(a, b)
        for f_i, f_j in itertools.combinations(chain + prims, 2):
            assert not (f_i - f_j) * delta
    stamp(9, 30, t0)


def test_acceptance_10_commutator_shadows():
    t0 = time.monotonic()
    rng = random.Random(1010)
    certified = {}
    for name in sorted(cli.bundled_names()):
        if name == "broken_cocycle":
            continue
        inst = bundled(name)
        if fc.verdict(inst).result == "FC":
            certified[name] = inst
    assert sorted(certified) == ["c2_z_gf3_twisted", "c3_z_rationals",
                                 "heisenberg_gf2", "heisenberg_gf4",
                                 "z2_to_c3_gf7"]

    for name, inst in certified.items():
        algebra = inst.algebra()
        group, field = inst.group, inst.field
        keys = list(group.torsion.keys())

        def rand_el():
            u = tuple(rng.randint(-2, 2) for _ in range(group.rank))
            return group.from_key(rng.choice(keys), u)

        commutators = [algebra.basis_commutator(rand_el(), rand_el())
                       for _ in range(100)]
        p = field.characteristic
        modular = p != 0 and group.torsion.size % p == 0
        if modular:
            squarings = max(1, group.torsion.size.bit_length())
            for c in commutators:
                x = c - algebra.one
                for _ in range(squarings):
                    x = x * x
                assert not x, f"non-unipotent commutator in {name}"
        else:
            for c1, c2 in itertools.combinations(commutators, 2):
                assert c1 * c2 == c2 * c1

        pool = nonzero_pool(field)
        sample = [algebra.basis_unit(rand_el()).scale(rng.choice(pool))
                  for _ in range(50)]
        for c in commutators:
            for w in sample:
                assert c * w == w * c

        for _, g in group.generators():
            probe = fc.probe_conjugates(inst, algebra.basis_unit(g), depth=6)
            assert probe.stabilized, f"orbit of a generator unit grew in {name}"
    stamp(10, 60, t0)
