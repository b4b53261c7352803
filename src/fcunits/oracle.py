"""Exhaustive cross-checking oracle for finite twisted group algebras.

This module deliberately reimplements everything above the scalar layer:
its own group law and cocycle table straight from the instance JSON,
dense vector arithmetic, a Gaussian-elimination unit test, and radical
and idempotent counts by enumeration.  It shares only ``fields`` (and
``errors``) with the rest of the package, so agreement with the
structural modules is cross-validation, not code agreeing with itself.

The sweep codes each element of GF(q) as its index 0..q-1 in
`field.elements()` order.  The field's raw operations are read once into
q x q addition and multiplication tables and negation and inverse lists,
so the cocycle is a table of indices, an algebra element a tuple of
indices, and the sweep makes no field call.  Everything here is
exponential in the dimension n.  ORACLE_SIZE_CAP bounds the q^2 entries
of each table and the work, counted in product steps: a product costs
n^2, the sweep makes a few per element, so q^n n^2 in all, and the
noncommutative nil-ideal filter one per pair of a nilpotent and an
element.
"""

import itertools
import json

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
        (rank,) = int_entries([obj.get("rank", 0)], "central-extension 'rank'")
        if rank != 0:
            raise CapExceeded("the exhaustive oracle needs a finite group "
                              "(rank 0)")
        if obj.get("prufer") is not None:
            raise CapExceeded("the exhaustive oracle needs a finite group "
                              "(no Pruefer component)")
        torsion = obj.get("torsion", {})
        if (not isinstance(torsion, dict)
                or ("table" in torsion) == ("invariants" in torsion)):
            raise InstanceFormatError("torsion must be an object with "
                                      "'invariants' or a 'table', not both")
        if "table" in torsion:
            return cls.from_json({"kind": "cayley",
                                  "table": torsion["table"]})
        invariants = int_entries(torsion["invariants"], "torsion invariants")
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


class _FieldTables:
    """A finite field's arithmetic on the indices of `field.elements()`:
    q x q `add` and `mul` tables and `neg` and `inv` lists (inv[zero] is
    None), read from the field's raw operations."""

    def __init__(self, field):
        values = [s.value for s in field.elements()]
        self.index = index = {v: i for i, v in enumerate(values)}
        self.zero, self.one = index[field.raw_zero], index[field.raw_one]
        reduce = field.reduce

        def row(op, a):
            return [index[reduce(op(a, b))] for b in values]

        # a row computed with raw_add for each element outside the span of
        # the earlier ones; the others as (g + x) + b = g + (x + b)
        add = [None] * len(values)
        for g, value in enumerate(values):
            if add[g] is None:
                add[g] = gen = row(field.raw_add, value)
                walk = [x for x, r in enumerate(add) if r is not None]
                for x in walk:      # the walk grows as it goes
                    y = gen[x]
                    if add[y] is None:
                        add[y] = [gen[v] for v in add[x]]
                        walk.append(y)
        self.add = add
        self.mul = [row(field.raw_mul, a) for a in values]
        self.neg = [index[reduce(field.raw_neg(a))] for a in values]
        self.inv = [None if i == self.zero
                    else index[reduce(field.raw_inv(a))]
                    for i, a in enumerate(values)]


def _cocycle_matrix(obj, group, field, tables):
    """Dense n x n table of cocycle value indices from the cocycle JSON,
    identity-checked."""
    obj = {} if obj is None else obj
    if not isinstance(obj, dict):
        raise InstanceFormatError("cocycle spec must be an object")
    n = group.size
    lam = [[tables.one] * n for _ in range(n)]
    torsion = obj.get("torsion_table", {})
    if not isinstance(torsion, dict):
        raise InstanceFormatError("cocycle torsion_table must be an object")
    for key, raw in torsion.items():
        i, j = _table_key(key)
        if not (0 <= i < n and 0 <= j < n):
            raise InstanceFormatError(f"torsion table index ({i}, {j}) "
                                      f"out of range")
        val = tables.index[field.value_from_json(raw)]
        if val == tables.zero:
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
    e, one = group.identity, tables.one
    if any(lam[e][i] != one or lam[i][e] != one for i in range(n)):
        raise InvalidCocycle("cocycle is not normalized on the identity")
    mul, times = group.mul_index, tables.mul
    for g, h, k in itertools.product(range(n), repeat=3):
        if (times[lam[g][h]][lam[mul[g][h]][k]]
                != times[lam[h][k]][lam[g][mul[h][k]]]):
            raise InvalidCocycle(
                f"cocycle identity fails at indices ({g}, {h}, {k})")
    return lam


class _IndexAlgebra:
    """K_lambda G on tuples of field indices, one per group position:
    e_i e_j = lambda(i, j) e_(g_i g_j)."""

    def __init__(self, group, tables, lam):
        self.tables = tables
        self.dim = n = group.size
        self.terms = [[(j, group.mul_index[i][j], lam[i][j])
                       for j in range(n)] for i in range(n)]
        self.zero_vector = (tables.zero,) * n
        # the nilpotency index never exceeds the dimension
        self.steps = max(1, (n - 1).bit_length())

    def mul(self, a, b):
        add, mul, zero = self.tables.add, self.tables.mul, self.tables.zero
        out = [zero] * self.dim
        for ai, terms in zip(a, self.terms):
            if ai != zero:
                scaled = mul[ai]
                for j, k, lam in terms:
                    out[k] = add[out[k]][mul[scaled[lam]][b[j]]]
        return tuple(out)

    def is_nilpotent(self, a, square):
        """a^(2^steps) == 0 by repeated squaring, given a^2 = square."""
        if a == self.zero_vector:
            return True
        power = square
        for _ in range(self.steps - 1):
            if power == self.zero_vector:
                return True
            power = self.mul(power, power)
        return power == self.zero_vector

    def is_commutative(self):
        """e_i e_j = e_j e_i: equal products g_i g_j and cocycle values."""
        return all(self.terms[i][j][1:] == self.terms[j][i][1:]
                   for i in range(self.dim) for j in range(i))

    def is_unit(self, a):
        """Full rank of the left multiplication matrix L_a, whose entry
        (g_i g_j, j) is a_i lambda(i, j), by forward elimination."""
        t, n = self.tables, self.dim
        add, mul, zero = t.add, t.mul, t.zero
        rows = [[zero] * n for _ in range(n)]
        for ai, terms in zip(a, self.terms):
            if ai != zero:
                scaled = mul[ai]
                for j, k, lam in terms:
                    rows[k][j] = scaled[lam]
        for col in range(n):
            for pivot in range(col, n):
                if rows[pivot][col] != zero:
                    break
            else:
                return False
            rows[col], rows[pivot] = rows[pivot], rows[col]
            prow, pinv = rows[col], t.inv[rows[col][col]]
            for r in range(col + 1, n):
                factor = rows[r][col]
                if factor != zero:
                    minus = mul[t.neg[mul[factor][pinv]]]
                    rows[r] = [add[x][minus[y]] for x, y in zip(rows[r], prow)]
        return True


# --- the exhaustive sweep ----------------------------------------------------------


class OracleReport:
    def __init__(self, dimension, field_size, algebra_size, commutative,
                 unit_count, idempotent_count, nilpotent_count,
                 radical_dimension):
        self.dimension = dimension
        self.field_size = field_size
        self.algebra_size = algebra_size
        self.commutative = commutative
        self.unit_count = unit_count
        self.idempotent_count = idempotent_count
        self.nilpotent_count = nilpotent_count
        self.radical_dimension = radical_dimension

    def to_json(self):
        """The fields by name, in the order `__init__` sets them."""
        return dict(vars(self))

    def __eq__(self, other):
        return isinstance(other, OracleReport) and vars(self) == vars(other)


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
    steps = total * group.size ** 2
    if max(steps, q * q) > ORACLE_SIZE_CAP:
        raise CapExceeded(
            f"algebra has {total} elements, a sweep of {steps} product "
            f"steps and field tables {q * q} entries, above the oracle cap "
            f"{ORACLE_SIZE_CAP}")
    tables = _FieldTables(field)
    lam = _cocycle_matrix(instance_json["cocycle"], group, field, tables)
    algebra = _IndexAlgebra(group, tables, lam)

    commutative = algebra.is_commutative()
    units = idempotents = 0
    nilpotents = []
    for a in itertools.product(range(q), repeat=algebra.dim):
        square = algebra.mul(a, a)
        if square == a:
            idempotents += 1
        if algebra.is_nilpotent(a, square):
            nilpotents.append(a)
        elif algebra.is_unit(a):
            units += 1

    if commutative:
        radical = nilpotents
    else:
        # the largest nil ideal: x with the whole right translate x*A nil
        steps *= 1 + len(nilpotents)
        if steps > ORACLE_SIZE_CAP:
            raise CapExceeded(
                f"the sweep and the nil-ideal filter over {len(nilpotents)} "
                f"nilpotents take {steps} product steps, above the oracle "
                f"cap {ORACLE_SIZE_CAP}")
        nil = set(nilpotents)
        radical = [x for x in nilpotents
                   if all(algebra.mul(x, y) in nil for y in itertools.product(
                       range(q), repeat=algebra.dim))]
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
