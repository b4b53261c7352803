"""Verdict routes that no bundled instance reaches, each run on a spec built
here: L4's asymmetric-cocycle witness, both L6 witnesses, T5.3's scalar
commutator violation and commutator order mismatch, T5.4's averaging
idempotent and complement and the certificate that complement rests on,
the invariant that leaves T5.4 no failure route, the checks that T4 and
T5 read off the torsion split rather than re-derive, T4.4's centrality
witness, and the text summary of the structure, orbit and oracle sections.

tau(a, b) = (-1)^(a_2 b_1) on C2 x C2 is the cocycle of the twisted pairs
below: with keys a = 2 a_1 + a_2 it is -1 exactly at (1, 2), (1, 3),
(3, 2) and (3, 3), so tau((0, 1), (1, 0)) = -1 while tau((1, 0), (0, 1))
= 1.
"""

import itertools
import json
import math
from collections import Counter

import pytest

from fcunits import cli, fc, structure
from fcunits.algebra import averaging_idempotent
from fcunits.errors import CertificateFailed, ConditionsNotMet
from fcunits.groups import symmetric_group_3_table

TAU_KEYS = ["(1,2)", "(1,3)", "(3,2)", "(3,3)"]


def spec(field, torsion, rank=1, cocycle=None, **group):
    return {"field": field, "cocycle": cocycle or {},
            "group": {"kind": "central-extension", "rank": rank,
                      "torsion": torsion, **group}}


def conditions(tmp_path, instance, capsys):
    """The verdict section of `analyze --verdict` and its conditions keyed
    by id."""
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(instance), encoding="utf-8")
    assert cli.main(["analyze", str(path), "--verdict"]) == 0
    v = json.loads(capsys.readouterr().out)["sections"]["verdict"]
    return v, {c["id"]: c for c in v["conditions"]}


def gf(p):
    return {"kind": "prime-power", "p": p}


RATIONALS = {"kind": "rationals"}


def test_l4_names_the_asymmetric_torsion_pair_and_its_values(tmp_path,
                                                             capsys):
    v, conds = conditions(tmp_path, spec(
        gf(3), {"invariants": [2, 2]},
        cocycle={"torsion_table": dict.fromkeys(TAU_KEYS, 2)}), capsys)
    assert (v["result"], v["theorem"]) == ("NotFC", "necessary-only")
    l4 = conds["L4.torsion-commutative"]
    assert l4["pass"] is False
    assert l4["witness"] == {
        "pair": [{"a": [0, 1], "u": [0]}, {"a": [1, 0], "u": [0]}],
        "values": [2, 1]}
    assert "asymmetric on a torsion pair" in l4["note"]


def test_l6_names_a_noncentral_torsion_element_over_q(tmp_path, capsys):
    v, conds = conditions(tmp_path, spec(
        RATIONALS, {"table": symmetric_group_3_table()}), capsys)
    assert (v["result"], v["theorem"]) == ("NotFC", "necessary-only")
    assert conds["L4.torsion-commutative"]["note"] == "t(G) is nonabelian"
    l6 = conds["L6.torsion-central"]
    assert l6["pass"] is False
    assert l6["witness"] == {"element": {"a": 1, "u": [0]}}
    assert "noncentral" in l6["note"]


def test_l6_names_a_pair_against_a_central_torsion_element_over_q(
        tmp_path, capsys):
    v, conds = conditions(tmp_path, spec(
        RATIONALS, {"invariants": [2, 2]},
        cocycle={"torsion_table": dict.fromkeys(TAU_KEYS, -1)}), capsys)
    assert (v["result"], v["theorem"]) == ("NotFC", "necessary-only")
    assert conds["L4.torsion-commutative"]["witness"]["values"] == ["-1", "1"]
    l6 = conds["L6.torsion-central"]
    assert l6["pass"] is False
    # t(G) is central in G, so the witness is a cocycle asymmetry
    assert l6["witness"] == {
        "pair": [{"a": [0, 1], "u": [-1]}, {"a": [1, 0], "u": [0]}],
        "values": ["-1", "1"]}


def test_t5_3_reports_scalar_commutators_of_the_bilinear_part(tmp_path,
                                                              capsys):
    # zeta = 2 has order 4 in GF(5), and the commutator scalar of
    # (u, v) and (u', v') is zeta^(u v' - u' v)
    v, conds = conditions(tmp_path, spec(
        gf(5), {"invariants": []}, rank=2,
        cocycle={"bilinear": {"zeta": 2, "matrix": [[0, 1], [0, 0]]}},
        prufer={"q": 2, "levels": 2}), capsys)
    assert (v["result"], v["theorem"]) == ("EvidenceOnly", "T5-truncated")
    t53 = conds["T5.3"]
    assert t53["pass"] is False
    w = t53["witness"]
    assert w["commutator_subgroup_order"] == 1
    assert w["commutator_order_mismatches"] == []
    for hit in w["scalar_commutator_violations"]:
        (u1, v1), (u2, v2) = (g["u"] for g in hit["pair"])
        assert hit["scalar"] == pow(2, (u1 * v2 - u2 * v1) % 4, 5) != 1
    assert len(w["scalar_commutator_violations"]) == 3


def paired_c2_gf5(**cocycle):
    """C2 x Z^2 over GF(5) whose pairing sends [f1, f2] to t1, with a
    Pruefer 2-part truncated at level 1."""
    instance = spec(gf(5), {"invariants": [2]}, rank=2, cocycle=cocycle,
                    pairing={"matrix": [[0, 1], [0, 0]], "target_index": 0},
                    prufer={"q": 2, "levels": 2})
    instance["caps"] = {"truncation_level": 1}
    return instance


def test_t5_3_reports_commutator_order_mismatches(tmp_path, capsys):
    # [a, b] = t1^(u1 v2 - u2 v1) has order 2 when the exponent is odd,
    # and [u_a, u_b] = zeta^(u1 v2 - u2 v1) u_[a, b] then squares to
    # zeta^2 = 4 != 1 in GF(5): the unit commutator has order 4
    v, conds = conditions(tmp_path, paired_c2_gf5(
        bilinear={"zeta": 2, "matrix": [[0, 1], [0, 0]]}), capsys)
    assert (v["result"], v["theorem"]) == ("EvidenceOnly", "T5-truncated")
    t53 = conds["T5.3"]
    assert t53["pass"] is False
    w = t53["witness"]
    assert w["commutator_subgroup_order"] == 2
    assert len(w["commutator_order_mismatches"]) == 3
    for hit in w["commutator_order_mismatches"]:
        (u1, v1), (u2, v2) = (g["u"] for g in hit["pair"])
        assert (u1 * v2 - u2 * v1) % 2 == 1
        assert hit["orders"] == [2, 4]
    # an even exponent makes the group commutator trivial, and zeta^2 is
    # then a scalar commutator of the units
    for hit in w["scalar_commutator_violations"]:
        (u1, v1), (u2, v2) = (g["u"] for g in hit["pair"])
        assert (u1 * v2 - u2 * v1) % 4 == 2
        assert hit["scalar"] == 4
    # T5.4 averages over H = <t1>: GF(5)[C2 x C2] is four lines, and the
    # two on which t1 acts as -1 make up (1 - e_H)
    t54 = conds["T5.4"]
    assert t54["pass"] is True
    assert t54["witness"] == {
        "averaging_idempotent": [{"c": 3, "g": {"a": [0], "u": [0, 0]}},
                                 {"c": 3, "g": {"a": [1], "u": [0, 0]}}],
        "complement_decomposition": {
            "components": [{"description": "GF(5^1)", "dim": 1}] * 2,
            "is_sum_of_fields": True}}


def components_of_cyclic(n, q):
    """Component degrees of GF(q)[C_n], p prime to n: for each d | n,
    phi(d) / o_d components of degree o_d, o_d the order of q mod d."""
    degrees = Counter()
    for d in range(1, n + 1):
        if n % d == 0:
            o = next(k for k in range(1, d + 1) if pow(q, k, d) == 1 % d)
            phi = sum(math.gcd(k, d) == 1 for k in range(1, d + 1))
            degrees[o] += phi // o
    return degrees


def test_t5_4_complement_has_the_components_nontrivial_on_h(tmp_path,
                                                            capsys):
    # T = C2 x C9 at truncation level 2, H = [G, G] = C2 from the pairing;
    # (1 - e_H) K[T] keeps the characters nontrivial on H, one per
    # character of C9, so it is GF(7)[C9] = 3 GF(7) + 2 GF(7^3)
    instance = spec(gf(7), {"invariants": [2]}, rank=2,
                    pairing={"matrix": [[0, 1], [0, 0]], "target_index": 0},
                    prufer={"q": 3, "levels": 3})
    instance["caps"] = {"truncation_level": 2}
    v, conds = conditions(tmp_path, instance, capsys)
    assert (v["result"], v["theorem"]) == ("EvidenceOnly", "T5-truncated")
    assert conds["T5.3"]["witness"]["commutator_subgroup_order"] == 2
    t54 = conds["T5.4"]
    assert t54["pass"] is True
    w = t54["witness"]
    # e_H = (1 + t1) / 2, and 1/2 = 4 in GF(7)
    assert w["averaging_idempotent"] == [
        {"c": 4, "g": {"a": [0], "u": [0, 0]}},
        {"c": 4, "g": {"a": [1], "u": [0, 0]}}]
    dec = w["complement_decomposition"]
    assert dec["is_sum_of_fields"] is True
    # in the order of the torsion split, which lists lines first
    assert dec["components"] == [
        {"description": "GF(7^1)", "dim": 1}] * 3 + [
        {"description": "GF(7^3)", "dim": 3}] * 2
    assert Counter(c["dim"] for c in dec["components"]) \
        == components_of_cyclic(9, 7)


def test_t5_4_complement_that_misses_a_component_fails(monkeypatch):
    # a split that lost a component under 1 - e_H no longer sums to it
    original = fc.fields_decomposition

    def lossy(fd, seed=0):
        report = original(fd, seed)
        report.components = report.components[:-1]
        return report
    monkeypatch.setattr(fc, "fields_decomposition", lossy)
    inst = fc.instance_from_json(paired_c2_gf5())
    with pytest.raises(CertificateFailed,
                       match="the components under 1 - e_H do not sum"):
        fc.check_theorem5_truncated(inst)


def _recorded(monkeypatch, owner, name):
    """Record the arguments of every call of owner.name."""
    calls = []
    original = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args, **kwargs: calls.append(
        args) or original(*args, **kwargs))
    return calls


def test_criteria_read_centrality_and_corners_off_the_torsion_split(
        monkeypatch):
    # on a commutative torsion subalgebra, L4 makes every torsion unit
    # central, so neither T4 nor T5 scans for centrality, and T5.4 reads
    # its corner off the torsion split, so a T5 verdict builds no
    # Subquotient
    scans = _recorded(monkeypatch, fc, "_centrality_failure")
    built = _recorded(monkeypatch, structure.Subquotient, "__init__")
    for instance in (paired_c2_gf5(), cli.bundled_instance("prufer2_gf257")):
        v = fc.verdict(fc.instance_from_json(instance))
        assert v.theorem == "T5-truncated"
        assert [c.passed for c in v.conditions[::3]] == [True, True]
    assert built == []
    for name in ("c3_z_rationals", "c2_z_gf3_twisted"):
        v = fc.verdict(fc.instance_from_json(cli.bundled_instance(name)))
        assert v.theorem == "T4"
        assert v.conditions[0].passed is True
    assert scans == []


def test_t4_4_names_a_noncentral_torsion_element_on_a_direct_call():
    # the verdict screens S3 over Q out at L4 and L6; the criterion itself
    # still scans a noncommutative torsion subalgebra for its witness
    inst = fc.instance_from_json(spec(
        RATIONALS, {"table": symmetric_group_3_table()}))
    v = fc.check_theorem4(inst)
    c1, c4 = v.conditions[0], v.conditions[3]
    assert c1.passed is None
    assert (v.result, c4.passed) == ("NotFC", False)
    assert c4.witness["torsion_element"] == inst.group.from_key(1)


def test_every_valid_cocycle_is_trivial_on_the_commutator_subgroup():
    # T5.4 averages over H = G' with no failure route: every normalized
    # torsion table on C2 x C2 over GF(3) that validates with the pairing
    # into key 1 multiplies the u_h as H does.  The same tables on the
    # same group without the pairing include some that do not, so the
    # check below can fail.
    slots = [(a, b) for a in range(1, 4) for b in range(1, 4)]
    twisted_on_h = Counter()
    for values in itertools.product([1, 2], repeat=len(slots)):
        table = {f"({a},{b})": v for (a, b), v in zip(slots, values)
                 if v != 1}
        for paired in (True, False):
            group = {"kind": "central-extension", "rank": 2,
                     "torsion": {"invariants": [2, 2]}}
            if paired:
                group["pairing"] = {"matrix": [[0, 1], [0, 0]],
                                    "target_index": 1}
            inst = fc.instance_from_json({
                "field": gf(3), "group": group,
                "cocycle": {"torsion_table": table},
                "caps": {"box_radius": 1}})
            if not inst.validate().valid:
                continue
            H = [inst.group.from_key(0), inst.group.from_key(1)]
            if paired:
                assert list(inst.group.commutator_subgroup().elements) == H
            try:
                averaging_idempotent(inst.algebra(), H)
            except ConditionsNotMet:
                twisted_on_h[paired] += 1
            twisted_on_h[paired, "valid"] += 1
    assert twisted_on_h[True] == 0
    assert twisted_on_h[True, "valid"] == 2
    assert twisted_on_h[False] == 8 and twisted_on_h[False, "valid"] == 16


def test_human_summary_renders_structure_orbits_and_oracle(capsys):
    from importlib import resources

    path = resources.files("fcunits") / "instances" / "gf3_c2_twisted.json"
    assert cli.main(["analyze", str(path), "--structure", "--orbits", "t1",
                     "--oracle", "--human"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith(f"fcunits {cli.TOOL_VERSION}  instance ")
    assert lines[0].endswith("  seed 0  (GF(3)C2 with twisted square)")
    assert lines[1:] == [
        "structure: torsion dim 2, radical 0, idempotents 2",
        "orbit u[t1]: sizes [1, 1] (stabilized)",
        "oracle: |A| = 9, units 8, idempotents 2, radical dim 0, "
        "cross-check agrees",
    ]

