"""Exhaustive cross-checking oracle for finite twisted group algebras.

This module deliberately reimplements everything above the scalar layer:
its own group law straight from the instance JSON, its own cocycle table,
dense vector arithmetic, a Gaussian-elimination unit test, and radical
and idempotent counts by enumeration.  It shares only ``fields`` with the
rest of the package, so agreement between an oracle report and the
structural modules is meaningful cross-validation rather than the same
code agreeing with itself.

Algebra elements are vectors of raw field values, one per group element,
combined with the field's `raw_add`, `raw_sub`, `raw_mul` and `raw_inv`
and made canonical by one `reduce` per output coordinate, as the
`fields` docstring describes; no `Scalar` is built in the sweep.

Everything here is exponential in the algebra dimension and guarded by
ORACLE_SIZE_CAP.  The target is small finite instances used as anchors,
not production analysis.
"""

import itertools
import json
from dataclasses import dataclass

from .errors import (
    CapExceeded,
    InstanceFormatError,
    InvalidCocycle,
    certify,
    int_entries,
    int_matrix,
)
from .fields import make_field

ORACLE_SIZE_CAP = 10 ** 7


# --- an independent finite group law ---------------------------------------------


class _EnumeratedGroup:
    """Finite group as an indexed multiplication table built from JSON."""

    def __init__(self, size, mul_index, identity_index):
        self.size = size
        self.mul_index = mul_index
        self.identity = identity_index

    @classmethod
    def from_json(cls, obj):
        if not isinstance(obj, dict) or "kind" not in obj:
            raise InstanceFormatError("group spec must be an object with "
                                      "a 'kind'")
        kind = obj["kind"]
        if kind == "cayley":
            table = obj.get("table")
            if not isinstance(table, list) or not table:
                raise InstanceFormatError("cayley group needs a 'table'")
            table = [list(int_entries(row, "cayley table entries"))
                     for row in table]
            n = len(table)
            for row in table:
                if len(row) != n or any(not 0 <= v < n for v in row):
                    raise InstanceFormatError("cayley table is not square "
                                              "over 0..n-1")
            identity = next((e for e in range(n)
                             if all(table[e][x] == x and table[x][e] == x
                                    for x in range(n))), None)
            if identity is None:
                raise InstanceFormatError("cayley table has no identity")
            return cls(n, table, identity)
        if kind != "central-extension":
            raise InstanceFormatError(f"unknown group kind {kind!r}")
        if obj.get("rank", 0) != 0:
            raise CapExceeded("the exhaustive oracle needs a finite group "
                              "(rank 0)")
        if obj.get("prufer") is not None:
            raise CapExceeded("the exhaustive oracle needs a finite group "
                              "(no Pruefer component)")
        torsion = obj.get("torsion", {})
        if "table" in torsion:
            return cls.from_json({"kind": "cayley",
                                  "table": torsion["table"]})
        invariants = torsion.get("invariants")
        if invariants is None:
            raise InstanceFormatError("torsion needs 'invariants' or "
                                      "'table'")
        invariants = int_entries(invariants, "torsion invariants")
        if any(d < 2 for d in invariants):
            raise InstanceFormatError("torsion invariants must be >= 2")
        keys = list(itertools.product(*[range(d) for d in invariants]))
        index = {k: i for i, k in enumerate(keys)}
        n = len(keys)
        mul = [[index[tuple((a + b) % d for a, b, d
                            in zip(keys[i], keys[j], invariants))]
                for j in range(n)] for i in range(n)]
        return cls(n, mul, index[tuple(0 for _ in invariants)])


def _table_key(key):
    """The index pair (i, j) of a torsion-table key "(i, j)"."""
    try:
        pair = json.loads("[" + key.strip().lstrip("(").rstrip(")") + "]")
    except json.JSONDecodeError:
        pair = ()
    if len(pair) != 2:
        raise InstanceFormatError(f"bad torsion table key {key!r}")
    return int_entries(pair, f"torsion table key {key!r}")


def _cocycle_matrix(obj, group, field):
    """Dense n x n table of raw cocycle values from the cocycle JSON,
    identity-checked."""
    if obj is None:
        obj = {}
    if not isinstance(obj, dict):
        raise InstanceFormatError("cocycle spec must be an object")
    n = group.size
    one, zero = field.raw_one, field.raw_zero
    lam = [[one] * n for _ in range(n)]
    torsion = obj.get("torsion_table", {})
    if not isinstance(torsion, dict):
        raise InstanceFormatError("cocycle torsion_table must be an object")
    for key, raw in torsion.items():
        i, j = _table_key(key)
        if not (0 <= i < n and 0 <= j < n):
            raise InstanceFormatError(f"torsion table index ({i}, {j}) "
                                      f"out of range")
        val = field.value_from_json(raw)
        if val == zero:
            raise InvalidCocycle(f"cocycle value at ({i}, {j}) is zero")
        lam[i][j] = val
    # a rank-0 instance never evaluates the bilinear part, so an explicit
    # one must be trivial to be meaningful here
    bil = obj.get("bilinear")
    if bil is not None and not isinstance(bil, dict):
        raise InstanceFormatError("cocycle bilinear part must be an object")
    matrix = int_matrix((bil or {}).get("matrix", []), "bilinear matrix")
    if any(any(row) for row in matrix):
        raise InstanceFormatError("the oracle handles finite groups only, "
                                  "where a bilinear part has no effect")
    e = group.identity
    for i in range(n):
        if lam[e][i] != one or lam[i][e] != one:
            raise InvalidCocycle("cocycle is not normalized on the identity")
    mul, reduce, times = group.mul_index, field.reduce, field.raw_mul
    for g in range(n):
        for h in range(n):
            gh = mul[g][h]
            for k in range(n):
                if (reduce(times(lam[g][h], lam[gh][k]))
                        != reduce(times(lam[h][k], lam[g][mul[h][k]]))):
                    raise InvalidCocycle(
                        f"cocycle identity fails at indices ({g}, {h}, {k})")
    return lam


# --- dense arithmetic --------------------------------------------------------------


class _DenseAlgebra:
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
        """a^(2^steps) by repeated squaring, with 2^steps >= dim; the
        nilpotency index never exceeds the dimension."""
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
        return _gaussian_invertible(self.left_multiplication_matrix(a),
                                    self.field)


def _gaussian_invertible(matrix, field):
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


# --- the exhaustive sweep ----------------------------------------------------------


@dataclass
class OracleReport:
    dimension: int
    field_size: int
    algebra_size: int
    commutative: bool
    unit_count: int
    idempotent_count: int
    nilpotent_count: int
    radical_dimension: int

    def to_json(self):
        return {"dimension": self.dimension,
                "field_size": self.field_size,
                "algebra_size": self.algebra_size,
                "commutative": self.commutative,
                "unit_count": self.unit_count,
                "idempotent_count": self.idempotent_count,
                "nilpotent_count": self.nilpotent_count,
                "radical_dimension": self.radical_dimension}


def _exact_log(value, base):
    d = 0
    while base ** d < value:
        d += 1
    certify(base ** d == value,
            f"{value} is not a power of {base}: the nilpotent set is not "
            f"a subspace, which contradicts the radical computation")
    return d


def oracle_report(instance_json):
    """Sweep every element of a finite K_lambda G and count everything.

    Counts units (Gaussian rank test on the left multiplication matrix),
    idempotents, and nilpotents, and derives the radical from the
    nilpotent set: directly for commutative algebras, and through the
    largest-nil-ideal filter {x : x * y nilpotent for all y} otherwise.
    """
    if not isinstance(instance_json, dict):
        raise InstanceFormatError("instance must be a JSON object")
    for key in ("field", "group", "cocycle"):
        if key not in instance_json:
            raise InstanceFormatError(f"instance is missing {key!r}")
    field = make_field(instance_json["field"])
    if not field.is_finite():
        raise CapExceeded("the exhaustive oracle needs a finite field")
    group = _EnumeratedGroup.from_json(instance_json["group"])
    q = field.size()
    total = q ** group.size
    if total > ORACLE_SIZE_CAP:
        raise CapExceeded(
            f"algebra has {total} elements, above the oracle cap "
            f"{ORACLE_SIZE_CAP}")
    lam = _cocycle_matrix(instance_json["cocycle"], group, field)
    algebra = _DenseAlgebra(group, field, lam)

    commutative = algebra.is_commutative()
    values = [s.value for s in field.elements()]
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
        # the largest nil ideal: x with the whole right translate x*A nil
        radical = [x for x in nilpotents
                   if all(algebra.is_nilpotent(algebra.mul(x, list(y)))
                          for y in itertools.product(
                              values, repeat=algebra.dim))]
    radical_dim = _exact_log(len(radical), q)

    return OracleReport(
        dimension=algebra.dim, field_size=q, algebra_size=total,
        commutative=commutative, unit_count=units,
        idempotent_count=idempotents, nilpotent_count=len(nilpotents),
        radical_dimension=radical_dim)


def predicted_unit_count(field_size, radical_dimension, component_dims):
    """|U| from structure data: |K|^dim J * prod(|K|^dim F_i - 1)."""
    total = field_size ** radical_dimension
    for d in component_dims:
        total *= field_size ** d - 1
    return total
