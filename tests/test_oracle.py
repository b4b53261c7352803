"""Exhaustive-oracle counts against hand computations, the structural path
and the sweep the index tables replaced.

`ref_oracle_report` below is that sweep: vectors of raw field values,
dense products with the field's raw operations, each left-multiplication
matrix built from n products against unit vectors, a square recomputed
inside the nilpotency test and the nil-ideal filter run on products.
The index-coded sweep of `fcunits.oracle` must report the same counts on
the benchmark's oracle instances, on six noncommutative algebras and on
drawn cyclic and S3 instances.
"""

import importlib.util
import itertools
import json
import pathlib
from collections import Counter
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcunits import cli, fields, oracle
from fcunits.errors import (
    CapExceeded,
    CertificateFailed,
    InstanceFormatError,
    InvalidCocycle,
)
from fcunits.fc import instance_from_json
from fcunits.fields import make_field
from fcunits.groups import symmetric_group_3_table
from fcunits.oracle import oracle_report, predicted_unit_count
from fcunits.structure import block_structure, count_idempotents, \
    fields_decomposition, jacobson_radical

_TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" \
    / "make_goldens.py"
_spec = importlib.util.spec_from_file_location("make_goldens", _TOOL)
make_goldens = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_goldens)


def finite_instance(field, invariants, table=None):
    return {
        "field": field,
        "group": {"kind": "central-extension", "rank": 0,
                  "torsion": {"invariants": invariants}},
        "cocycle": {"torsion_table": table} if table else {},
    }


def carry_table(n, value):
    """The cyclic carry cocycle: tau(i,j) = value exactly when i+j wraps."""
    return {f"({i},{j})": value
            for i in range(1, n) for j in range(1, n) if i + j >= n}


def test_gf3_c2_twisted_is_a_field():
    # u^2 = 2 is not a square mod 3, so the sweep walks GF(9)
    rep = oracle_report(finite_instance(
        {"kind": "prime-power", "p": 3}, [2], {"(1,1)": 2}))
    assert rep.dimension == 2
    assert rep.algebra_size == 9
    assert rep.commutative
    assert rep.unit_count == 8
    assert rep.idempotent_count == 2
    assert rep.nilpotent_count == 1
    assert rep.radical_dimension == 0
    assert rep.to_json()["unit_count"] == 8


def test_gf3_c2_trivial_splits():
    rep = oracle_report(finite_instance({"kind": "prime-power", "p": 3}, [2]))
    assert rep.unit_count == 4
    assert rep.idempotent_count == 4
    assert rep.radical_dimension == 0


def test_gf2_c2_is_local():
    # char 2 divides |C2|: radical spanned by 1 + u
    rep = oracle_report(finite_instance({"kind": "prime-power", "p": 2}, [2]))
    assert rep.unit_count == 2
    assert rep.idempotent_count == 2
    assert rep.nilpotent_count == 2
    assert rep.radical_dimension == 1


def test_gf5_c4_splits_completely():
    rep = oracle_report(finite_instance({"kind": "prime-power", "p": 5}, [4]))
    assert rep.algebra_size == 625
    assert rep.unit_count == 256
    assert rep.idempotent_count == 16
    assert rep.radical_dimension == 0


def test_gf4_c2_twisted_is_local():
    # u^2 = omega has the square root omega^2, so (u - omega^2)^2 = 0
    rep = oracle_report(finite_instance(
        {"kind": "prime-power", "p": 2, "k": 2, "modulus": [1, 1, 1]},
        [2], {"(1,1)": [0, 1]}))
    assert rep.algebra_size == 16
    assert rep.unit_count == 12
    assert rep.idempotent_count == 2
    assert rep.nilpotent_count == 4
    assert rep.radical_dimension == 1


def test_unit_count_formula():
    assert predicted_unit_count(3, 0, [2]) == 8
    assert predicted_unit_count(3, 0, [1, 1]) == 4
    assert predicted_unit_count(2, 1, [1]) == 2
    assert predicted_unit_count(5, 0, [1, 1, 1, 1]) == 256


def structural_counts(spec):
    inst = instance_from_json(spec)
    S = inst.torsion_subalgebra()
    return (len(jacobson_radical(S.fd).basis),
            count_idempotents(S.fd),
            fields_decomposition(S.fd))


@pytest.mark.parametrize("spec", [
    finite_instance({"kind": "prime-power", "p": 3}, [2], {"(1,1)": 2}),
    finite_instance({"kind": "prime-power", "p": 3}, [2]),
    finite_instance({"kind": "prime-power", "p": 2}, [2]),
    finite_instance({"kind": "prime-power", "p": 2}, [3]),
    finite_instance({"kind": "prime-power", "p": 5}, [2, 2]),
    finite_instance({"kind": "prime-power", "p": 2, "k": 2,
                     "modulus": [1, 1, 1]}, [2], {"(1,1)": [0, 1]}),
    finite_instance({"kind": "prime-power", "p": 7}, [3], carry_table(3, 3)),
])
def test_oracle_agrees_with_structural_modules(spec):
    rep = oracle_report(spec)
    rad_dim, idem_count, decomposition = structural_counts(spec)
    assert rep.radical_dimension == rad_dim
    assert rep.idempotent_count == idem_count
    if decomposition.is_sum_of_fields:
        dims = [c.dim for c in decomposition.components]
        assert rep.unit_count == predicted_unit_count(
            rep.field_size, rad_dim, dims)


def dihedral_table(n):
    """D_n as pairs (reflection bit, rotation), identity first."""
    elems = [(e, a) for e in (0, 1) for a in range(n)]
    index = {el: i for i, el in enumerate(elems)}
    return [[index[((e1 + e2) % 2, ((-a2 if e1 else a2) + a1) % n)]
             for e2, a2 in elems] for e1, a1 in elems]


def quaternion_table():
    """Q8 as pairs (sign, unit) with units 1, i, j, k, identity first."""
    # i j = k, j k = i, k i = j, and each unit squares to -1
    cyclic = {(1, 2): 3, (2, 3): 1, (3, 1): 2}
    elems = [(s, u) for s in (1, -1) for u in range(4)]
    index = {el: i for i, el in enumerate(elems)}

    def unit_product(u, v):
        if u == 0 or v == 0:
            return 1, u + v
        if u == v:
            return -1, 0
        if (u, v) in cyclic:
            return 1, cyclic[(u, v)]
        return -1, cyclic[(v, u)]

    table = []
    for s1, u in elems:
        row = []
        for s2, v in elems:
            sign, w = unit_product(u, v)
            row.append(index[(s1 * s2 * sign, w)])
        table.append(row)
    return table


def cayley_spec(table, p, k=1, modulus=None):
    field = {"kind": "prime-power", "p": p}
    if k > 1:
        field.update(k=k, modulus=modulus)
    return {"field": field, "group": {"kind": "cayley", "table": table},
            "cocycle": {}}


def twisted_klein_spec(p):
    """tau(a, b) = (-1)^(a2 b1) on C2 x C2: the quaternion algebra
    (-1, -1), which is M2(GF(p)) for odd p."""
    return finite_instance({"kind": "prime-power", "p": p}, [2, 2],
                           {key: p - 1 for key in
                            ("(1,2)", "(1,3)", "(3,2)", "(3,3)")})


def exhaustive_idempotent_count(fd):
    """The enumeration the block count replaced, kept as a reference."""
    values = [x.value for x in fd.field.elements()]
    return sum(1 for combo in itertools.product(values, repeat=fd.dim)
               if fd.is_idempotent(list(combo)))


NONCOMMUTATIVE = {
    "s3-gf2": cayley_spec(symmetric_group_3_table(), 2),
    "s3-gf3": cayley_spec(symmetric_group_3_table(), 3),
    "d4-gf2": cayley_spec(dihedral_table(4), 2),
    "q8-gf3": cayley_spec(quaternion_table(), 3),
    "klein-gf3": twisted_klein_spec(3),
    "klein-gf5": twisted_klein_spec(5),
}


@pytest.mark.parametrize("spec", NONCOMMUTATIVE.values(),
                         ids=NONCOMMUTATIVE.keys())
def test_oracle_agrees_on_a_noncommutative_table(spec):
    rep = oracle_report(spec)
    assert rep == ref_oracle_report(spec)
    assert not rep.commutative
    fd = instance_from_json(spec).torsion_subalgebra().fd
    blocks = block_structure(fd)
    assert rep.radical_dimension == len(blocks.radical.basis)
    assert rep.idempotent_count == count_idempotents(fd)
    assert rep.unit_count == blocks.unit_count()


GF4 = {"kind": "prime-power", "p": 2, "k": 2, "modulus": [1, 1, 1]}
OMEGA, OMEGA2 = [0, 1], [1, 1]


def local_counts(q, order):
    """K_lambda P for a p-group P over GF(q) of characteristic p is local
    with residue field GF(q): its radical has codimension 1."""
    return {"radical_dimension": order - 1, "idempotent_count": 2,
            "nilpotent_count": q ** (order - 1),
            "unit_count": (q - 1) * q ** (order - 1)}


P_GROUP_ALGEBRAS = {
    "gf2-c4": (finite_instance({"kind": "prime-power", "p": 2}, [4]), 2, 4),
    "gf2-c8": (finite_instance({"kind": "prime-power", "p": 2}, [8]), 2, 8),
    "gf3-c3-carry": (finite_instance({"kind": "prime-power", "p": 3}, [3],
                                     carry_table(3, 2)), 3, 3),
    "gf4-c2": (finite_instance(GF4, [2]), 4, 2),
    # a carry twist by omega on the first factor and by omega^2 on the
    # second, positions (a1, a2) in the order (0,0), (0,1), (1,0), (1,1);
    # at (3,3) the two cancel
    "gf4-c2xc2-twisted": (finite_instance(GF4, [2, 2], {
        "(2,2)": OMEGA, "(2,3)": OMEGA, "(3,2)": OMEGA,
        "(1,1)": OMEGA2, "(1,3)": OMEGA2, "(3,1)": OMEGA2}), 4, 4),
    "gf2-d4": (cayley_spec(dihedral_table(4), 2), 2, 8),
}


@pytest.mark.parametrize("spec, q, order", P_GROUP_ALGEBRAS.values(),
                         ids=P_GROUP_ALGEBRAS.keys())
def test_oracle_counts_a_p_group_algebra_as_local(spec, q, order):
    rep = oracle_report(spec)
    assert rep.algebra_size == q ** order
    assert {key: getattr(rep, key) for key in local_counts(q, order)} \
        == local_counts(q, order)


@pytest.mark.parametrize("spec, units", [
    (cayley_spec(symmetric_group_3_table(), 2, 2, [1, 1, 1]), 2160),
    (cayley_spec(symmetric_group_3_table(), 5), 7680),
    (cayley_spec(dihedral_table(4), 3), 768),
], ids=["s3-gf4", "s3-gf5", "d4-gf3"])
def test_block_counts_match_enumeration_beyond_the_oracle(spec, units):
    fd = instance_from_json(spec).torsion_subalgebra().fd
    assert count_idempotents(fd) == exhaustive_idempotent_count(fd)
    assert block_structure(fd).unit_count() == units


def test_oracle_cap_counts_the_nil_ideal_filter(monkeypatch):
    # GF(3)[S3] sweeps its 3^6 elements in 3^6 * 6^2 product steps; a cap
    # of exactly that lets the sweep run and stops the noncommutative
    # filter, which costs as much again per nilpotent
    monkeypatch.setattr(oracle, "ORACLE_SIZE_CAP", 3 ** 6 * 6 ** 2)
    with pytest.raises(CapExceeded, match="nil-ideal filter over"):
        oracle_report(NONCOMMUTATIVE["s3-gf3"])


def test_oracle_caps_and_gates():
    with pytest.raises(CapExceeded, match="finite field"):
        oracle_report(finite_instance({"kind": "rationals"}, [2]))
    with pytest.raises(CapExceeded, match="rank 0"):
        oracle_report({
            "field": {"kind": "prime-power", "p": 3},
            "group": {"kind": "central-extension", "rank": 1,
                      "torsion": {"invariants": [2]}},
            "cocycle": {},
        })
    with pytest.raises(CapExceeded, match="Pruefer"):
        oracle_report({
            "field": {"kind": "prime-power", "p": 3},
            "group": {"kind": "central-extension", "rank": 0,
                      "torsion": {"invariants": []},
                      "prufer": {"q": 2, "levels": 3}},
            "cocycle": {},
        })
    with pytest.raises(CapExceeded, match="cap"):
        oracle_report(finite_instance({"kind": "prime-power", "p": 3}, [16]))
    # one dimension, but the field tables would hold 3163^2 > 10^7 entries
    with pytest.raises(CapExceeded, match="field tables 10004569 entries"):
        oracle_report(finite_instance({"kind": "prime-power", "p": 3163}, []))


def test_oracle_rejects_malformed_and_invalid():
    with pytest.raises(InstanceFormatError):
        oracle_report({"field": {"kind": "prime-power", "p": 3}})
    with pytest.raises(InstanceFormatError, match="key"):
        oracle_report(finite_instance(
            {"kind": "prime-power", "p": 3}, [2], {"(1)": 2}))
    with pytest.raises(InvalidCocycle, match="zero"):
        oracle_report(finite_instance(
            {"kind": "prime-power", "p": 3}, [2], {"(1,1)": 0}))
    with pytest.raises(InvalidCocycle, match="normalized"):
        oracle_report(finite_instance(
            {"kind": "prime-power", "p": 3}, [2], {"(0,1)": 2}))
    with pytest.raises(InvalidCocycle, match="identity"):
        oracle_report(finite_instance(
            {"kind": "prime-power", "p": 5}, [3], {"(1,2)": 2}))


@pytest.mark.parametrize("group", [
    # a float or bool rank was compared with 0 and accepted
    {"kind": "central-extension", "rank": 0.0,
     "torsion": {"invariants": [2]}},
    {"kind": "central-extension", "rank": False,
     "torsion": {"invariants": [2]}},
    # a list or null torsion ended in an AttributeError or a TypeError
    {"kind": "central-extension", "rank": 0, "torsion": [2]},
    {"kind": "central-extension", "rank": 0, "torsion": None},
    # the oracle read the table where the structural side read invariants
    {"kind": "central-extension", "rank": 0,
     "torsion": {"invariants": [3], "table": [[0, 1], [1, 0]]}},
], ids=["rank-float", "rank-bool", "torsion-list", "torsion-null",
        "torsion-both"])
def test_oracle_rejects_hostile_group_data(group):
    spec = {**finite_instance({"kind": "prime-power", "p": 3}, [2]),
            "group": group}
    with pytest.raises(InstanceFormatError):
        oracle_report(spec)


def cayley_instance(table):
    return {"field": {"kind": "prime-power", "p": 3},
            "group": {"kind": "cayley", "table": table}, "cocycle": {}}


@pytest.mark.parametrize("spec", [
    # read by int() these were C2 and C3, and counted a different algebra
    finite_instance({"kind": "prime-power", "p": 3}, [2.5]),
    finite_instance({"kind": "prime-power", "p": 3}, ["3"]),
    finite_instance({"kind": "prime-power", "p": 3}, [True]),
    # a float Cayley entry ended in a TypeError
    cayley_instance([[0, 1], [1, 0.0]]),
    cayley_instance([[0, 1], [1, "0"]]),
    cayley_instance([[0, 1], 1]),
    # a float table key ended in a ValueError
    finite_instance({"kind": "prime-power", "p": 3}, [2], {"(1, 1.0)": 2}),
    finite_instance({"kind": "prime-power", "p": 3}, [2], {"(1, true)": 2}),
    finite_instance({"kind": "prime-power", "p": 3}, [2], {"(1, x)": 2}),
    # no identity ended in a StopIteration
    cayley_instance([[1, 0], [0, 0]]),
], ids=["invariant-float", "invariant-str", "invariant-bool",
        "cayley-float", "cayley-str", "cayley-row", "key-float", "key-bool",
        "key-name", "cayley-no-identity"])
def test_oracle_rejects_non_integer_group_and_key_data(spec):
    with pytest.raises(InstanceFormatError):
        oracle_report(spec)


@pytest.mark.parametrize("cocycle", [
    # these ended in an AttributeError or a TypeError traceback
    {"torsion_table": [1]},
    {"torsion_table": None},
    {"bilinear": 5},
    {"bilinear": [[0]]},
    {"bilinear": {"matrix": [1]}},
    {"bilinear": {"matrix": 1}},
], ids=["table-list", "table-null", "bilinear-int", "bilinear-list",
        "matrix-row", "matrix-int"])
def test_non_object_cocycle_parts_are_format_errors(cocycle, tmp_path,
                                                    capsys):
    spec = {**finite_instance({"kind": "prime-power", "p": 3}, [2]),
            "cocycle": cocycle}
    with pytest.raises(InstanceFormatError):
        oracle_report(spec)
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    for flag in ("--verdict", "--oracle"):
        assert cli.main(["analyze", str(path), flag]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1


def test_oracle_certificate_failure_exits_one(monkeypatch, capsys):
    """A nilpotent set whose size is no power of q fails a certificate,
    which the CLI reports with exit 1 instead of a traceback."""
    # over GF(3), the lines of (1, 0) and (1, 1) as the nilpotent ones:
    # with zero that makes 5 elements, no power of 3 (the indices of GF(3)
    # are its values)
    monkeypatch.setattr(oracle._IndexAlgebra, "is_nilpotent",
                        lambda self, a, square: a in ((1, 0), (1, 1)))
    path = str(resources.files("fcunits") / "instances"
               / "gf3_c2_trivial.json")
    with pytest.raises(CertificateFailed, match="not a power of 3"):
        oracle_report(cli.bundled_instance("gf3_c2_trivial"))
    assert cli.main(["analyze", path, "--oracle"]) == 1
    assert "not a power of 3" in capsys.readouterr().err


def test_exact_log_fails_its_certificate_off_the_powers():
    assert oracle._exact_log(27, 3) == 3
    with pytest.raises(CertificateFailed, match="is not a power of") as exc:
        oracle._exact_log(2, 3)
    assert str(exc.value).startswith("2 is not a power of 3:")


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.sampled_from([2, 3, 4]),
       st.integers(0, 30))
def test_oracle_cross_check_random_carry_twists(p, n, raw):
    value = raw % p or 1
    spec = finite_instance({"kind": "prime-power", "p": p}, [n],
                           carry_table(n, value))
    rep = oracle_report(spec)
    rad_dim, idem_count, decomposition = structural_counts(spec)
    assert rep.radical_dimension == rad_dim
    assert rep.idempotent_count == idem_count
    if decomposition.is_sum_of_fields:
        dims = [c.dim for c in decomposition.components]
        assert rep.unit_count == predicted_unit_count(p, rad_dim, dims)


# --- the reference sweep -----------------------------------------------------


class RefDenseAlgebra:
    """Vectors of canonical raw field values indexed by group position,
    multiplied densely."""

    def __init__(self, group, field, lam):
        self.group = group
        self.field = field
        self.lam = lam
        self.dim = group.size

    def unit_vector(self, i):
        vec = [self.field.raw_zero] * self.dim
        vec[i] = self.field.raw_one
        return vec

    def mul(self, a, b):
        field = self.field
        add, mul, zero = field.raw_add, field.raw_mul, field.raw_zero
        out = [zero] * self.dim
        for i, ai in enumerate(a):
            if ai == zero:
                continue
            row_idx, row_lam = self.group.mul_index[i], self.lam[i]
            for j, bj in enumerate(b):
                if bj != zero:
                    k = row_idx[j]
                    out[k] = add(out[k], mul(mul(ai, bj), row_lam[j]))
        return list(map(field.reduce, out))

    def is_zero(self, a):
        zero = self.field.raw_zero
        return all(x == zero for x in a)

    def is_nilpotent(self, a):
        power = list(a)
        steps = max(1, (self.dim - 1).bit_length())
        for _ in range(steps):
            if self.is_zero(power):
                return True
            power = self.mul(power, power)
        return self.is_zero(power)

    def is_commutative(self):
        units = [self.unit_vector(i) for i in range(self.dim)]
        return all(self.mul(units[i], units[j]) == self.mul(units[j],
                                                            units[i])
                   for i in range(self.dim) for j in range(i + 1, self.dim))

    def left_multiplication_matrix(self, a):
        cols = [self.mul(a, self.unit_vector(j)) for j in range(self.dim)]
        return [[cols[j][i] for j in range(self.dim)]
                for i in range(self.dim)]

    def is_unit(self, a):
        return ref_gaussian_invertible(self.left_multiplication_matrix(a),
                                       self.field)


def ref_gaussian_invertible(matrix, field):
    """Row reduction over the exact field; True iff full rank."""
    sub, mul, reduce = field.raw_sub, field.raw_mul, field.reduce
    zero = field.raw_zero
    n = len(matrix)
    rows = [list(r) for r in matrix]
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] != zero),
                     None)
        if pivot is None:
            return False
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = field.raw_inv(rows[col][col])
        rows[col] = [reduce(mul(x, inv)) for x in rows[col]]
        for r in range(n):
            factor = rows[r][col]
            if r != col and factor != zero:
                rows[r] = [reduce(sub(x, mul(factor, y)))
                           for x, y in zip(rows[r], rows[col])]
    return True


def ref_oracle_report(spec):
    """The raw-value sweep; it shares the group and cocycle parsers with
    `oracle_report` and reads the cocycle back into raw values."""
    field = make_field(spec["field"])
    group = oracle._EnumeratedGroup.from_json(spec["group"])
    values = [s.value for s in field.elements()]
    lam = [[values[x] for x in row] for row in oracle._cocycle_matrix(
        spec["cocycle"], group, field, oracle._FieldTables(field))]
    algebra = RefDenseAlgebra(group, field, lam)
    commutative = algebra.is_commutative()
    units = 0
    idempotents = 0
    nilpotents = []
    for combo in itertools.product(values, repeat=algebra.dim):
        vec = list(combo)
        if algebra.mul(vec, vec) == vec:
            idempotents += 1
        if algebra.is_nilpotent(vec):
            nilpotents.append(vec)
        elif algebra.is_unit(vec):
            units += 1
    if commutative:
        radical = nilpotents
    else:
        radical = [x for x in nilpotents
                   if all(algebra.is_nilpotent(algebra.mul(x, list(y)))
                          for y in itertools.product(
                              values, repeat=algebra.dim))]
    q = field.size()
    return oracle.OracleReport(
        dimension=algebra.dim, field_size=q, algebra_size=q ** algebra.dim,
        commutative=commutative, unit_count=units,
        idempotent_count=idempotents, nilpotent_count=len(nilpotents),
        radical_dimension=oracle._exact_log(len(radical), q))


@pytest.mark.parametrize("name", make_goldens.ORACLE_NAMES)
def test_sweep_matches_the_reference_on_the_oracle_instances(name):
    spec = cli.bundled_instance(name)
    assert oracle_report(spec) == ref_oracle_report(spec)


DRAWN_FIELDS = [
    {"kind": "prime-power", "p": 2},
    {"kind": "prime-power", "p": 3},
    {"kind": "prime-power", "p": 5},
    {"kind": "prime-power", "p": 7},
    {"kind": "prime-power", "p": 2, "k": 2, "modulus": [1, 1, 1]},
    {"kind": "prime-power", "p": 2, "k": 3, "modulus": [1, 1, 0, 1]},
    {"kind": "prime-power", "p": 3, "k": 2, "modulus": [1, 0, 1]},
]
# cyclic C_n for n <= 6 (C_1 is the trivial group) with at most 512
# elements, and S3 over GF(2)
DRAWN_SHAPES = [(f, n) for f in DRAWN_FIELDS for n in range(1, 7)
                if make_field(f).size() ** n <= 512]
DRAWN_SHAPES.append((DRAWN_FIELDS[0], "s3"))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(DRAWN_SHAPES), st.integers(0, 80))
def test_sweep_matches_the_reference_on_drawn_instances(shape, raw):
    field_spec, n = shape
    if n == "s3":
        spec = cayley_spec(symmetric_group_3_table(), 2)
    else:
        # a random nonzero carry twist
        field = make_field(field_spec)
        twist = list(field.elements())[1 + raw % (field.size() - 1)]
        spec = finite_instance(field_spec, [n] if n > 1 else [],
                               carry_table(n, field.value_to_json(
                                   twist.value)))
    assert oracle_report(spec) == ref_oracle_report(spec)


def test_the_sweep_reads_the_field_only_into_its_tables(monkeypatch):
    """The raw operations build the tables and nothing else, from one
    generator walk and one row of sums: for the 343 elements of GF(7)[C3],
    q additions, at most 3 q products, and no inverse."""
    calls = Counter()

    def counting_field(field_spec):
        field = make_field(field_spec)
        for name in ("raw_add", "raw_mul", "raw_inv"):
            def counted(*args, op=getattr(field, name), name=name):
                calls[name] += 1
                return op(*args)
            setattr(field, name, counted)
        return field

    monkeypatch.setattr(oracle, "make_field", counting_field)
    rep = oracle_report(cli.bundled_instance("lemma3/c3_gf7"))
    assert rep.algebra_size == 343
    q = rep.field_size
    assert calls["raw_add"] == q
    assert 0 < calls["raw_mul"] <= 3 * q
    assert calls["raw_inv"] == 0


def test_an_oracle_request_builds_one_set_of_field_tables(monkeypatch,
                                                         capsys):
    """`analyze --oracle` hands the request's field to the oracle, so a
    request over GF(81) builds its tables once; the call on JSON alone
    builds a field of its own and reports the same counts."""
    builds = []
    original = fields.ExtensionField._build_tables
    monkeypatch.setattr(fields.ExtensionField, "_build_tables",
                        lambda self: builds.append(self) or original(self))
    path = str(resources.files("fcunits") / "instances" / "lemma3"
               / "c2_gf81.json")
    assert cli.main(["analyze", path, "--oracle"]) == 0
    assert json.loads(capsys.readouterr().out)["sections"]["oracle"]["agree"]
    assert len(builds) == 1
    spec = cli.bundled_instance("lemma3/c2_gf81")
    assert oracle_report(spec, make_field(spec["field"])) \
        == oracle_report(spec)
    assert len(builds) == 3


GF81 = cli.bundled_instance("lemma3/c2_gf81")["field"]


@pytest.mark.parametrize("field_spec", DRAWN_FIELDS + [GF81],
                         ids=lambda f: f"gf{f['p']}^{f.get('k', 1)}")
def test_field_tables_match_the_raw_operations(field_spec):
    field = make_field(field_spec)
    tables = oracle._FieldTables(field)
    values = [s.value for s in field.elements()]
    assert [tables.index[v] for v in values] == list(range(len(values)))
    assert values[tables.zero] == field.raw_zero
    assert values[tables.one] == field.raw_one
    for i, a in enumerate(values):
        assert values[tables.neg[i]] == field.reduce(field.raw_neg(a))
        if a == field.raw_zero:
            assert tables.inv[i] is None
        else:
            assert values[tables.inv[i]] == field.reduce(field.raw_inv(a))
        for j, b in enumerate(values):
            assert values[tables.add[i][j]] == field.reduce(
                field.raw_add(a, b))
            assert values[tables.mul[i][j]] == field.reduce(
                field.raw_mul(a, b))


@pytest.mark.parametrize("product", [
    # every walk closes early
    lambda a, b: 1,
    # a walk of q - 1 steps that never returns to 1
    lambda a, b: 2,
    # the walk of 2 returns to 1 after q - 1 steps, but through zero
    lambda a, b: {(2, 2): 0, (0, 2): 3}.get((a, b), a * b),
], ids=["back-to-1", "stuck-at-2", "through-zero"])
def test_a_field_without_a_generator_fails_its_certificate(monkeypatch,
                                                           product):
    field = make_field({"kind": "prime-power", "p": 5})
    monkeypatch.setattr(field, "raw_mul", product)
    with pytest.raises(CertificateFailed,
                       match="nonzero powers: its multiplicative group"):
        oracle._FieldTables(field)


def test_the_generator_walk_skips_what_it_passed(monkeypatch):
    # modulo 71, 2 generates the 35 squares, among them 3, 4, 5 and 6:
    # one walk of 34 products passes them, and 7 generates in 69 more
    field = make_field({"kind": "prime-power", "p": 71})
    calls = []
    monkeypatch.setattr(field, "raw_mul",
                        lambda a, b: calls.append(a) or a * b)
    assert oracle._FieldTables(field).mul[2][36] == 1
    assert len(calls) == 34 + 69
