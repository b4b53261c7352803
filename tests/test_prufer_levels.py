"""Per-level Pruefer evidence read off one split of the top level.

`fc._primitive_counts_by_level` counts the primitive idempotents of the
torsion subalgebra at every Pruefer level from the split of the top level
alone.  The counts are checked against a closed form computed here with
the standard library, and against splitting each level's own subalgebra;
the certificates of the level classes and of the averaging chain are
made to fire.
"""

import itertools
import json
import math
from collections import Counter

import pytest

import fcunits.fc as fc
from fcunits import cli
from fcunits.errors import CertificateFailed, ConditionsNotMet
from fcunits.groups import MAX_TORSION
from fcunits.structure import primitive_idempotents


def prufer_instance(p, q, levels, truncation, invariants=(), cocycle=None):
    field = {"kind": "rationals"} if p == 0 else \
        {"kind": "prime-power", "p": p}
    return fc.instance_from_json({
        "field": field,
        "group": {"kind": "central-extension", "rank": 0,
                  "torsion": {"invariants": list(invariants)},
                  "prufer": {"q": q, "levels": levels}},
        "cocycle": cocycle or {},
        "caps": {"truncation_level": truncation},
    })


def component_count(p, invariants):
    """The number of field components of K[T], T abelian with the given
    invariants, K = GF(p) (Q for p = 0): the sum over element orders d
    prime to p of n_d / o_d, with n_d the number of elements of order d
    and o_d the order of p mod d (Euler's phi(d) over Q).  The p-part of
    T only makes each component local."""
    orders = Counter(
        math.lcm(*(n // math.gcd(x, n) for x, n in zip(xs, invariants)))
        for xs in itertools.product(*(range(n) for n in invariants)))
    total = 0
    for d, n_d in orders.items():
        if p and d % p == 0:
            continue
        units = [k for k in range(1, d + 1) if math.gcd(k, d) == 1]
        o_d = len(units) if p == 0 else \
            next(k for k in range(1, d + 1) if pow(p, k, d) == 1 % d)
        total += n_d // o_d
    return total


def closed_form_counts(p, q, top, invariants=()):
    return [component_count(p, list(invariants) + [q ** j])
            for j in range(1, top + 1)]


def t5_counts(inst):
    verdict = fc.check_theorem5_truncated(inst)
    return verdict.evidence["decompositions"]["component_counts_by_level"]


def t3_counts(inst):
    c3 = fc.check_theorem3(inst).conditions[2]
    assert c3.cid == "T3.3"
    return c3.witness["component_counts_by_level"]


def per_level_counts(inst, keys=None):
    """The counts from each level's own subalgebra and split."""
    counts = []
    for j in range(1, inst.prufer_level + 1):
        els = [h for h in inst.group.torsion_elements(j)
               if keys is None or h.t in keys]
        if len(els) > MAX_TORSION:
            break
        counts.append(len(primitive_idempotents(inst.subalgebra_over(els).fd)))
    return counts


CLOSED_FORM_CASES = [
    (3, 2, 5, ()), (5, 2, 5, ()), (7, 2, 5, ()), (17, 2, 5, ()),
    (5, 3, 3, ()), (7, 3, 3, ()), (17, 3, 3, ()),
    (7, 2, 4, (3,)),      # a finite torsion factor: C3 x C_{2^j}
    (0, 2, 4, ()),        # Q[C_{2^j}]: one component per divisor
]


@pytest.mark.parametrize(
    "p, q, top, invariants", CLOSED_FORM_CASES,
    ids=[f"{'q' if p == 0 else f'gf{p}'}-prufer{q}"
         + "".join(f"-c{n}" for n in inv)
         for p, q, _, inv in CLOSED_FORM_CASES])
def test_level_counts_match_the_closed_form(p, q, top, invariants):
    inst = prufer_instance(p, q, top + 1, top, invariants)
    assert t5_counts(inst) == closed_form_counts(p, q, top, invariants)


def test_level_counts_when_the_characteristic_is_the_pruefer_prime():
    # 3-Pruefer over GF(3) goes through T3's odd part: GF(3)[C_{3^j}] is
    # local at every level
    inst = prufer_instance(3, 3, 4, 3)
    assert t3_counts(inst) == closed_form_counts(3, 3, 3) == [1, 1, 1]


def test_twisted_torsion_cocycle_matches_each_level_split():
    # u_t^2 = -1 makes the torsion part GF(9) over GF(3)
    inst = prufer_instance(3, 2, 5, 4, (2,), {"torsion_table": {"(1,1)": 2}})
    counts = t5_counts(inst)
    assert counts == per_level_counts(prufer_instance(
        3, 2, 5, 4, (2,), {"torsion_table": {"(1,1)": 2}}))
    assert counts == [2, 4, 8, 12]


def test_odd_keys_path_matches_each_level_split():
    # T3 over GF(2) counts the odd part C3 x C_{3^j}; level 3 (81 elements)
    # is above the cap, so the list stops at level 2
    inst = prufer_instance(2, 3, 3, 3, (2, 3))
    tor = inst.group.torsion
    odd = {k for k in tor.keys() if tor.order_key(k) % 2}
    counts = t3_counts(inst)
    assert counts == per_level_counts(prufer_instance(2, 3, 3, 3, (2, 3)),
                                      odd)
    assert counts == closed_form_counts(2, 3, 2, (3,))


def test_top_level_above_the_cap_steps_down():
    # C_{3^4} has 81 elements, above MAX_TORSION = 64: the counts are
    # read off the split of C27 and stop where each level's split stops
    inst = prufer_instance(2, 3, 4, 4, (2,))
    assert 3 ** 4 > MAX_TORSION
    counts = fc._primitive_counts_by_level(inst, 4, 0, keys={0})
    assert counts == closed_form_counts(2, 3, 3) == [2, 3, 4]
    assert counts == t3_counts(inst)
    # C64 x C2 is above the cap at level 1 already
    assert fc._primitive_counts_by_level(
        prufer_instance(3, 2, 2, 2, (64,)), 2, 0) == []


def test_truncation_above_the_cap_runs_at_the_largest_level_that_fits(
        tmp_path, capsys):
    # C_{3^4} over GF(7) has 81 elements, above MAX_TORSION: T5 and the
    # structure section both run at level 3, as a truncation_level 3 run
    def sections(truncation, *flags):
        path = tmp_path / f"level{truncation}.json"
        path.write_text(json.dumps({
            "field": {"kind": "prime-power", "p": 7},
            "group": {"kind": "central-extension", "rank": 1,
                      "torsion": {"invariants": []},
                      "prufer": {"q": 3, "levels": 4}},
            "cocycle": {}, "caps": {"truncation_level": truncation}}),
            encoding="utf-8")
        assert cli.main(["analyze", str(path), *flags]) == 0
        return json.loads(capsys.readouterr().out)["sections"]

    both = sections(4, "--verdict", "--structure")
    assert both["structure"] == sections(4, "--structure")["structure"] \
        == sections(3, "--structure")["structure"]
    assert both["structure"]["prufer_level"] == 3
    assert both["verdict"] == sections(4, "--verdict")["verdict"]
    assert both["verdict"]["theorem"] == "T5-truncated"
    assert "truncated at Pruefer level 3 " in both["verdict"]["notes"][2]
    assert both["verdict"]["evidence"]["decompositions"][
        "component_counts_by_level"] == closed_form_counts(7, 3, 3)


def test_no_level_that_fits_still_refuses_the_run(tmp_path, capsys):
    # C64 x C2 is above the cap at level 1 already
    path = tmp_path / "c64.json"
    path.write_text(json.dumps({
        "field": {"kind": "prime-power", "p": 3},
        "group": {"kind": "central-extension", "rank": 1,
                  "torsion": {"invariants": [64]},
                  "prufer": {"q": 2, "levels": 2}},
        "cocycle": {}}), encoding="utf-8")
    for flag in ("--verdict", "--structure"):
        assert cli.main(["analyze", str(path), flag]) == 1
        assert "exceeds the cap 64" in capsys.readouterr().err


def _merge(field, vectors):
    first = [field.reduce(field.raw_add(a, b))
             for a, b in zip(vectors[0], vectors[1])]
    return [first] + vectors[1:]


def _drop(field, vectors):
    return vectors[1:]


def _double(field, vectors):
    two = field.from_int(2).value
    return [[field.reduce(field.raw_mul(two, c)) for c in vectors[0]]] \
        + vectors[1:]


@pytest.mark.parametrize("corrupt", [_merge, _drop, _double],
                         ids=["overlapping", "uncovered", "not-0-1"])
def test_level_class_certificate_fires(monkeypatch, corrupt):
    inst = prufer_instance(5, 2, 4, 3)
    original = fc.kernel_basis
    monkeypatch.setattr(fc, "kernel_basis", lambda field, rows, n:
                        corrupt(field, original(field, rows, n)))
    with pytest.raises(CertificateFailed,
                       match="level classes are no 0/1 partition"):
        fc.check_theorem5_truncated(inst)


def test_chain_is_certified_in_the_top_level_coordinates(monkeypatch):
    inst = prufer_instance(257, 2, 8, 3)
    assert t5_counts(inst) == [2, 4, 8]
    # the primitives of S are kept, so S.fd.mul next serves the chain
    S = inst.torsion_subalgebra(3)
    mul = S.fd.mul
    monkeypatch.setattr(S.fd, "mul", lambda x, y: mul(x, y)[1:] + [x[0]])
    with pytest.raises(ConditionsNotMet,
                       match="the weighted average over H is not idempotent"):
        fc.check_theorem5_truncated(inst)
    monkeypatch.undo()
    chain = fc.check_theorem5_truncated(inst).evidence["decompositions"]
    assert chain["idempotent_chain"] == {"length": 3, "absorbing": True,
                                         "distinct": True}
