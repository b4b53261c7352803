"""Exhaustive cross-checking oracle for finite twisted group algebras.

This module deliberately reimplements everything above the scalar layer:
its own group law and cocycle table straight from the instance JSON,
dense vector arithmetic, a Gaussian-elimination unit test, and radical
and idempotent counts by enumeration.  It shares only ``fields`` (and
``errors``) with the rest of the package, so agreement with the
structural modules is cross-validation, not code agreeing with itself.
`oracle_report` takes the field object the request already built from
the same spec (`fcunits analyze --oracle` passes it), so a request
builds and certifies one set of GF(p^k) tables; both sides would call
the same `make_field` on that spec anyway.

The sweep codes each element of GF(q) as its index 0..q-1 in
`field.elements()` order and makes no field call: the cocycle is a table
of indices, an algebra element a tuple of indices, and q x q addition and
multiplication tables and negation and inverse lists come from the
logarithms of one walk over a generator's powers and from one row of raw
sums 1 + b, as a + b = a (1 + b / a).

The sweep tests one vector of each line K* a, a != 0, the one whose
first nonzero coordinate is 1, and multiplies the counts back out: c a
is a unit, or nilpotent, exactly when a is; (c a)^2 = c a exactly when
a^2 = c^-1 a, so a line holds at most one nonzero idempotent; and
x (c y) = c (x y), so the noncommutative nil-ideal filter needs only the
representatives y, each product scaled to its own line's representative.

Everything here is exponential in the dimension n.  ORACLE_SIZE_CAP
bounds the q^2 entries of each table and the work, counted in product
steps as if every element were visited (the line sweep does 1/(q - 1) of
it): q^n n^2, and n^2 more per pair of a nilpotent and an element in the
noncommutative nil-ideal filter.
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
    known_keys,
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
            known_keys(obj, ("kind", "table"), "cayley group")
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
        known_keys(obj, ("kind", "rank", "torsion", "pairing", "prufer"),
                   "central-extension group")
        targets = ("target_index", "target_vector")
        for name, keys in (("torsion", ("invariants", "table")),
                           ("pairing", ("matrix",) + targets),
                           ("prufer", ("q", "levels"))):
            if isinstance(obj.get(name), dict):
                known_keys(obj[name], keys, name)
        if isinstance(obj.get("pairing"), dict) and all(
                t in obj["pairing"] for t in targets):
            raise InstanceFormatError(
                "pairing gives both 'target_index' and 'target_vector'")
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
    None), read off the logarithms of one generator walk and off one row
    of raw sums 1 + b."""

    def __init__(self, field):
        values = [s.value for s in field.elements()]
        self.index = index = {v: i for i, v in enumerate(values)}
        q, zero = len(values), index[field.raw_zero]
        self.zero, self.one = zero, index[field.raw_one]

        exp = [index[v] for v in _generator_powers(field, values)]
        log = [q - 1] * q       # zero's q - 1 reads the zero after a window
        for i, x in enumerate(exp):
            log[x] = i
        exp2 = exp + exp        # row a in log order: its window at log a
        self.mul = mul = [
            list(map((exp2[la:la + q - 1] + [zero]).__getitem__, log))
            if x != zero else [zero] * q for x, la in enumerate(log)]
        self.inv = inv = [exp[-la % (q - 1)] if x != zero else None
                          for x, la in enumerate(log)]
        one_plus = [index[field.reduce(field.raw_add(field.raw_one, b))]
                    for b in values]
        self.add = [list(map(mul[a].__getitem__,
                             map(one_plus.__getitem__, mul[inv[a]])))
                    if a != zero else list(range(q)) for a in range(q)]
        self.neg = mul[one_plus.index(zero)]


def _generator_powers(field, values):
    """[g^0, ..., g^(q-2)] for the first g in `values` of order q - 1.  A
    walk stops at 1 or after q - 1 steps; an element that a failed walk
    passed lies in a proper cyclic subgroup, so it is not tried."""
    one, zero, m = field.raw_one, field.raw_zero, len(values) - 1
    passed = {zero}
    for g in (v for v in values if v not in passed):
        powers, x = [one], g
        while x != one and len(powers) < m:
            powers.append(x)
            x = field.reduce(field.raw_mul(x, g))
        if x == one and len(powers) == m == len(set(powers) - {zero}):
            return powers
        passed.update(powers)
    certify(False, f"no element of {field.shortname()} has {m} distinct "
            f"nonzero powers: its multiplicative group is not cyclic")


def _cocycle_matrix(obj, group, field, tables):
    """Dense n x n table of cocycle value indices from the cocycle JSON,
    identity-checked."""
    obj = {} if obj is None else obj
    if not isinstance(obj, dict):
        raise InstanceFormatError("cocycle spec must be an object")
    known_keys(obj, ("torsion_table", "bilinear"), "cocycle")
    n = group.size
    lam = [[tables.one] * n for _ in range(n)]
    torsion = obj.get("torsion_table", {})
    if not isinstance(torsion, dict):
        raise InstanceFormatError("cocycle torsion_table must be an object")
    given = set()
    for key, raw in torsion.items():
        i, j = _table_key(key)
        if not (0 <= i < n and 0 <= j < n):
            raise InstanceFormatError(f"torsion table index ({i}, {j}) "
                                      f"out of range")
        if (i, j) in given:
            raise InstanceFormatError(
                f"torsion table pair ({i}, {j}) is given twice")
        given.add((i, j))
        val = tables.index[field.value_from_json(raw)]
        if val == tables.zero:
            raise InvalidCocycle(f"cocycle value at ({i}, {j}) is zero")
        lam[i][j] = val
    # a rank-0 instance never evaluates the bilinear part, so an explicit
    # one must be trivial to be meaningful here
    bil = obj.get("bilinear")
    if bil is not None and not isinstance(bil, dict):
        raise InstanceFormatError("cocycle bilinear part must be an object")
    known_keys(bil or {}, ("matrix", "zeta"), "bilinear")
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

    def scale(self, c, a):
        return tuple(map(self.tables.mul[c].__getitem__, a))

    def lines(self):
        """One vector of each line K* a, a != 0: first nonzero entry one."""
        t, n = self.tables, self.dim
        for lead in range(n):
            head = (t.zero,) * lead + (t.one,)
            yield from (head + tail for tail in itertools.product(
                range(len(t.mul)), repeat=n - lead - 1))

    def representative(self, a):
        """The vector of `lines` on the line of a, or zero for a = 0."""
        t = self.tables
        return self.scale(t.inv[next((x for x in a if x != t.zero), t.one)],
                          a)

    def is_nilpotent(self, a, square):
        """a^(2^steps) == 0 by repeated squaring, given a^2 = square."""
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


def oracle_report(instance_json, field=None):
    """Sweep a finite K_lambda G line by line and count everything, over
    `field` when the caller already built it from the instance's spec.

    Counts units (Gaussian rank test on the left multiplication matrix),
    idempotents, and nilpotents, and derives the radical from the
    nilpotent set: directly for commutative algebras, and through the
    largest-nil-ideal filter {x : x * y nilpotent for all y} otherwise.
    Each test runs on one vector per line K* a, on the logarithm tables;
    the module docstring's three facts about lines give the counts, and
    the cap counts q^n n^2 product steps as before, so it reaches as far.
    """
    if not isinstance(instance_json, dict):
        raise InstanceFormatError("instance must be a JSON object")
    for key in ("field", "group", "cocycle"):
        if key not in instance_json:
            raise InstanceFormatError(f"instance is missing {key!r}")
    if field is None:
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
    unit_lines = idempotent_lines = 0
    nilpotent_lines = []
    for a in algebra.lines():
        square = algebra.mul(a, a)
        # a^2 = mu a, mu != 0, for the one idempotent mu^-1 a of the line
        mu = square[a.index(tables.one)]
        if mu != tables.zero and square == algebra.scale(mu, a):
            idempotent_lines += 1
        if algebra.is_nilpotent(a, square):
            nilpotent_lines.append(a)
        elif algebra.is_unit(a):
            unit_lines += 1
    nilpotents = 1 + (q - 1) * len(nilpotent_lines)

    if commutative:
        radical_lines = len(nilpotent_lines)
    else:
        # the largest nil ideal: x with the whole right translate x*A nil
        steps *= 1 + nilpotents
        if steps > ORACLE_SIZE_CAP:
            raise CapExceeded(
                f"the sweep and the nil-ideal filter over {nilpotents} "
                f"nilpotents take {steps} product steps, above the oracle "
                f"cap {ORACLE_SIZE_CAP}")
        nil = {algebra.zero_vector, *nilpotent_lines}
        radical_lines = sum(1 for x in nilpotent_lines if all(
            algebra.representative(algebra.mul(x, y)) in nil
            for y in algebra.lines()))

    return OracleReport(
        dimension=algebra.dim, field_size=q, algebra_size=total,
        commutative=commutative, unit_count=(q - 1) * unit_lines,
        idempotent_count=1 + idempotent_lines, nilpotent_count=nilpotents,
        radical_dimension=_exact_log(1 + (q - 1) * radical_lines, q))


def predicted_unit_count(field_size, radical_dimension, component_dims):
    """|U| from structure data: |K|^dim J * prod(|K|^dim F_i - 1)."""
    total = field_size ** radical_dimension
    for d in component_dims:
        total *= field_size ** d - 1
    return total
