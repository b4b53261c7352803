"""Two-cocycles on the supported groups, with trivial action.

A cocycle in the representable family is a product of two parts:

* a table tau on pairs of torsion keys (Pruefer coordinates contribute
  trivially; twisting along them is out of scope), held as one flat list
  of raw field values, ``raw_table[a * |T| + b]`` = tau(a, b), and
* a bilinear part zeta^(u^T N v) on the free coordinates, N strictly upper
  triangular over the integers, zeta a nonzero scalar.

Cross terms between free and torsion coordinates are identically 1.  The
cocycle identity lambda(g,h) lambda(gh,k) = lambda(h,k) lambda(g,hk) is
checked by `validate_cocycle` over a box of free coordinates and the whole
torsion part.  The algebra layer and the validator read canonical raw
values (`Cocycle.raw`, `raw_table`) and compute with the field's raw
operators; Scalars appear only where a value crosses the API
(`Cocycle.__call__`, `tau`, `torsion_table`, the derived scalars below)
and in JSON.
"""

import itertools
import math
import operator

from .errors import (
    ConditionsNotMet,
    FieldMismatch,
    InfiniteOrder,
    InstanceFormatError,
    ZeroValue,
    certify,
    int_matrix,
    known_keys,
)
from .fields import Scalar
from .groups import bilinear_exponent


class Cocycle:
    def __init__(self, group, field, torsion_table=None, zeta=None, matrix=None):
        self.group = group
        self.field = field
        r = group.rank
        self._size = size = group.torsion.size
        self.raw_table = [field.raw_one] * (size * size)
        for (i, j), val in (torsion_table or {}).items():
            if not (0 <= i < size and 0 <= j < size):
                raise InstanceFormatError(
                    f"torsion table index ({i}, {j}) out of range")
            if val.field != field:
                raise FieldMismatch("torsion table scalar field mismatch")
            if not val:
                raise ZeroValue(f"cocycle value at ({i}, {j}) is zero")
            self.raw_table[i * size + j] = val.value
        if zeta is None:
            zeta = field.one
        if zeta.field != field:
            raise FieldMismatch("zeta field mismatch")
        if not zeta:
            raise ZeroValue("zeta must be nonzero")
        self.zeta = zeta
        if matrix is None:
            matrix = tuple(tuple(0 for _ in range(r)) for _ in range(r))
        else:
            matrix = int_matrix(matrix, "bilinear matrix")
            if len(matrix) != r or any(len(row) != r for row in matrix):
                raise InstanceFormatError("bilinear matrix must be rank x rank")
            for i in range(r):
                for j in range(r):
                    if j <= i and matrix[i][j] != 0:
                        raise InstanceFormatError(
                            "bilinear matrix must be strictly upper triangular")
        self.matrix = matrix
        self._twisted = zeta != field.one and any(map(any, matrix))
        self._zeta_powers = {}

    @property
    def torsion_table(self):
        """{(a, b): tau(a, b)} over the key pairs where tau is not 1."""
        one, size = self.field.raw_one, self._size
        return {divmod(n, size): Scalar(self.field, v)
                for n, v in enumerate(self.raw_table) if v != one}

    def tau(self, a, b):
        """The torsion-table value at the torsion keys a, b."""
        return Scalar(self.field, self.raw_table[a * self._size + b])

    def raw(self, g, h):
        """lambda(g, h) as a canonical raw field value, unchecked."""
        val = self.raw_table[g.t * self._size + h.t]
        if self._twisted:
            e = bilinear_exponent(self.matrix, g.u, h.u)
            if e:
                z = self._zeta_powers.get(e)
                if z is None:
                    z = self._zeta_powers[e] = (self.zeta ** e).value
                val = self.field.reduce(self.field.raw_mul(val, z))
        return val

    def __call__(self, g, h):
        self.group._check(g, h)
        return Scalar(self.field, self.raw(g, h))

    def asymmetric_pair(self):
        """The first torsion key pair (a, b), a then b in key order, with
        tau(a, b) != tau(b, a), or None when the table is symmetric."""
        n, raw = self._size, self.raw_table
        return next(((a, b) for a in range(n) for b in range(n)
                     if raw[a * n + b] != raw[b * n + a]), None)

    @property
    def is_normalized(self):
        """lambda(1, g) = lambda(g, 1) = 1, i.e. identity row/column trivial."""
        row, column = self.raw_table[:self._size], self.raw_table[::self._size]
        return all(v == self.field.raw_one for v in row + column)

    def to_json(self):
        obj = {}
        table = {f"({i},{j})": val.to_json()
                 for (i, j), val in self.torsion_table.items()}
        one = self.field.one
        if table:
            obj["torsion_table"] = table
        if self.zeta != one or any(any(row) for row in self.matrix):
            obj["bilinear"] = {"zeta": self.zeta.to_json(),
                               "matrix": [list(r) for r in self.matrix]}
        return obj


def trivial_cocycle(group, field):
    return Cocycle(group, field)


def cocycle_from_json(group, field, obj):
    if obj is None:
        obj = {}
    if not isinstance(obj, dict):
        raise InstanceFormatError(f"cocycle spec must be an object: {obj!r}")
    known_keys(obj, ("torsion_table", "bilinear"), "cocycle")
    torsion = obj.get("torsion_table", {})
    if not isinstance(torsion, dict):
        raise InstanceFormatError(
            f"cocycle torsion_table must be an object: {torsion!r}")
    table = {}
    for key, raw in torsion.items():
        parts = key.strip().lstrip("(").rstrip(")").split(",")
        if len(parts) != 2:
            raise InstanceFormatError(f"bad torsion table key {key!r}")
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise InstanceFormatError(f"bad torsion table key {key!r}") from exc
        if (i, j) in table:
            raise InstanceFormatError(
                f"torsion table pair ({i}, {j}) is given twice")
        table[(i, j)] = Scalar(field, field.value_from_json(raw))
    zeta = None
    matrix = None
    if "bilinear" in obj and obj["bilinear"] is not None:
        bil = obj["bilinear"]
        if not isinstance(bil, dict) or "matrix" not in bil:
            raise InstanceFormatError("bilinear part needs a 'matrix'")
        known_keys(bil, ("matrix", "zeta"), "bilinear")
        matrix = bil["matrix"]
        if "zeta" in bil:
            zeta = Scalar(field, field.value_from_json(bil["zeta"]))
    return Cocycle(group, field, table, zeta, matrix)


# --- validation ---------------------------------------------------------------


class CounterexampleTriple:
    def __init__(self, g, h, k, lhs, rhs):
        self.g = g
        self.h = h
        self.k = k
        self.lhs = lhs
        self.rhs = rhs

    def describe(self):
        return (f"lambda(g,h) lambda(gh,k) = {self.lhs!r} but "
                f"lambda(h,k) lambda(g,hk) = {self.rhs!r} at "
                f"g={self.g!r}, h={self.h!r}, k={self.k!r}")


class ValidationResult:
    def __init__(self, valid, counterexample=None, checked_identities=0):
        self.valid = valid
        self.counterexample = counterexample    # CounterexampleTriple | None
        self.checked_identities = checked_identities


def free_box(group, radius):
    if group.rank == 0:
        return [()]
    return list(itertools.product(range(-radius, radius + 1),
                                  repeat=group.rank))


def generator_box(group, radius):
    """Elements with free coordinates in [-radius, radius]^r, any finite
    torsion coordinate, Pruefer coordinate zero."""
    return [group.from_key(t, u)
            for u in free_box(group, radius)
            for t in group.torsion.keys()]


def offset_pairs(group, box_radius):
    """{(c1, c2): (u, v, w)}: every pair of pairing offsets c1 = beta(u, v)
    and c2 = beta(v, w) achieved on the free box, each with the first
    witnesses (u, v, w) the box order gives it, the middle coordinate
    shared so that joint achievability is exact.  With no pairing, the
    one pair (0, 0) at the origin.

    Each scan stops once nothing can change: a form's witnesses once all
    L residues have one, and the pairs once all L^2 have one.  setdefault
    keeps a first witness, so the dict, its order and every witness are
    those of the scan of the whole box."""
    zero_u = (0,) * group.rank
    if group.rank == 0 or group.pairing_matrix is None:
        return {(0, 0): (zero_u, zero_u, zero_u)}
    L = group.pairing_order
    M = group.pairing_matrix
    box = free_box(group, box_radius)
    firsts = {}

    def witnesses(form):
        # beta(u, v) = u . (M v) and beta(v, u) = (v^T M) . u: the first
        # u of the box for each residue of the linear form mod L
        form = tuple(x % L for x in form)
        if form not in firsts:
            wit = firsts[form] = {}
            for u in box:
                wit.setdefault(sum(map(operator.mul, u, form)) % L, u)
                if len(wit) == L:
                    break
        return firsts[form]

    pairs = {}
    for v in box:
        c1_wit = witnesses([sum(map(operator.mul, row, v)) for row in M])
        c2_wit = witnesses([sum(map(operator.mul, col, v))
                            for col in zip(*M)])
        for c1, uw in c1_wit.items():
            for c2, ww in c2_wit.items():
                pairs.setdefault((c1, c2), (uw, v, ww))
        if len(pairs) == L * L:
            break
    return pairs


def validate_cocycle(group, cocycle, box_radius=3):
    """Check the cocycle identity over the generator box.

    Completeness of the reduction used here: over the box, the identity ratio
    for the triple (g, h, k) depends only on the torsion coordinates and the
    two pairing offsets beta(u_g, u_h) and beta(u_h, u_k), because the
    bilinear part cancels identically: B(u,v) + B(u+v,w) - B(v,w) - B(u,v+w)
    expands by linearity in each argument into terms that cancel in pairs,
    for every bilinear form B and every witness.  The validator therefore
    enumerates the achievable offset pairs with free-coordinate witnesses
    (`offset_pairs`), and then checks every torsion triple against every
    achievable pair.  This checks exactly the same set of identities as
    brute-force enumeration of the box, at a fraction of the cost;
    counterexamples are reconstructed from the stored witnesses and
    re-verified by direct evaluation before being returned.
    """
    tor = group.torsion
    pairs = offset_pairs(group, box_radius)
    n, table = tor.size, tor.table
    mul, reduce = cocycle.field.raw_mul, cocycle.field.reduce
    raw = cocycle.raw_table
    if raw.count(cocycle.field.raw_one) == len(raw):    # every side is 1
        return ValidationResult(True, None, n ** 3 * len(pairs))
    rows = [raw[x * n:x * n + n] for x in range(n)]
    checked = 0
    # rows[x][y] = tau(x, y); right_i[w] is the key of w times c_i * zvec
    for (c1, c2), (uw, vw, ww) in pairs.items():
        right1 = [row[group._target_multiple(c1)] for row in table]
        right2 = [row[group._target_multiple(c2)] for row in table]
        yzs = [[right2[w] for w in row] for row in table]
        for x, rx in enumerate(rows):
            for y, ry in enumerate(rows):
                txy = rx[y]
                lhs = [reduce(mul(txy, v)) for v in rows[right1[table[x][y]]]]
                rhs = [reduce(mul(a, rx[yz])) for a, yz in zip(ry, yzs[y])]
                if lhs == rhs:
                    checked += n
                    continue
                z = next(z for z in range(n) if lhs[z] != rhs[z])
                g = group.from_key(x, uw)
                h = group.from_key(y, vw)
                k = group.from_key(z, ww)
                direct_lhs = cocycle(g, h) * cocycle(group.mul(g, h), k)
                direct_rhs = cocycle(h, k) * cocycle(g, group.mul(h, k))
                certify(direct_lhs != direct_rhs,
                        "a counterexample must fail the cocycle "
                        "identity when evaluated directly")
                return ValidationResult(
                    False, CounterexampleTriple(g, h, k, direct_lhs,
                                                direct_rhs),
                    checked + z + 1)
    return ValidationResult(True, None, checked)


# --- coboundaries ----------------------------------------------------------------


def coboundary(group, field, mu_torsion, mu_free=None):
    """The coboundary cocycle (g, h) -> mu_g mu_h mu_{gh}^(-1).

    mu_torsion lists one nonzero scalar per finite torsion element, indexed
    by torsion key like the torsion table.  mu_free gives one nonzero
    scalar per free generator; those values cancel identically in the
    coboundary (the free part of mu is multiplicative on the u-coordinates)
    and are only validated.  The result is normalized by dividing mu
    through by its value at the identity, which replaces the coboundary by
    the cohomologous normalized representative.

    For groups with a nonzero pairing, the coboundary stays inside the
    representable family (torsion table x bilinear, trivial cross terms)
    only when mu is constant along shifts by the pairing image; otherwise
    the true coboundary has nontrivial cross terms and this raises
    ConditionsNotMet.
    """
    size = group.torsion.size
    if len(mu_torsion) != size:
        raise InstanceFormatError(
            f"mu needs {size} torsion values, got {len(mu_torsion)}")
    for val in mu_torsion:
        if val.field != field:
            raise FieldMismatch("mu scalar field mismatch")
        if not val:
            raise ZeroValue("coboundary data must be nonzero scalars")
    if mu_free is not None:
        for val in mu_free:
            if not val:
                raise ZeroValue("coboundary data must be nonzero scalars")
    base = mu_torsion[0]
    mu = [val / base for val in mu_torsion]
    tor = group.torsion
    if group.pairing_content:
        shift = group._target_multiple(group.pairing_content)
        for key in tor.keys():
            if mu[key] != mu[tor.mul_key(key, shift)]:
                raise ConditionsNotMet(
                    "mu is not constant along the pairing image, so its "
                    "coboundary leaves the representable cocycle family")
    table = {}
    for a in tor.keys():
        for b in tor.keys():
            table[(a, b)] = mu[a] * mu[b] * mu[tor.mul_key(a, b)].inv()
    result = Cocycle(group, field, table)
    check = validate_cocycle(group, result, box_radius=1)
    certify(check.valid, "a coboundary must satisfy the cocycle identity")
    return result


# --- derived scalar data -----------------------------------------------------------


def power_scalar(cocycle, g):
    """The scalar lambda_g with u_g^n = lambda_g * u_{g^n} for n = order(g)."""
    group, F, raw = cocycle.group, cocycle.field, cocycle.raw
    n = group.element_order(g)
    if n == math.inf:
        raise InfiniteOrder("power scalar needs a torsion element")
    acc, p = F.raw_one, g
    for _ in range(n - 1):
        acc = F.reduce(F.raw_mul(acc, raw(g, p)))
        p = group.mul(g, p)
    return Scalar(F, acc)


def commutator_scalar(cocycle, a, b):
    """Scalar c with [u_a, u_b] = c * u_{[a,b]} (basis unit commutator).

    Five raw cocycle values: the three products in a^-1 b^-1 a b over the
    two inverse normalizations.
    """
    group, F, raw = cocycle.group, cocycle.field, cocycle.raw
    mul, reduce = F.raw_mul, F.reduce
    ai, bi = group.inv(a), group.inv(b)
    ab = group.mul(ai, bi)
    c = mul(mul(raw(ai, bi), raw(ab, a)), raw(group.mul(ab, a), b))
    return Scalar(F, reduce(mul(c, F.raw_inv(
        reduce(mul(raw(ai, a), raw(bi, b)))))))


def conjugation_map(cocycle, a):
    """Conjugation y -> u_a^-1 y u_a on raw terms {h: c}: each term c u_h
    maps to the one term c s lambda(a^-1, h) lambda(a^-1 h, a) u_(a^-1 h a)
    with s = lambda(a^-1, a)^-1; the image of each h is kept."""
    group, F, lam = cocycle.group, cocycle.field, cocycle.raw
    ai, seen = group.inv(a), {}
    s = F.raw_inv(lam(ai, a))

    def conjugate(terms):
        out = {}
        for h, c in terms.items():
            if h not in seen:
                g = group.mul(ai, h)
                seen[h] = group.mul(g, a), F.raw_mul(s, F.raw_mul(
                    lam(ai, h), lam(g, a)))
            g, v = seen[h]
            out[g] = F.reduce(F.raw_mul(c, v))
        return out
    return conjugate


class ScalarOrbit:
    """The condition-4 value set {lambda(h,h^-1)^-1 lambda(h^-1,g)
    lambda(h^-1 g, h)} with h over the (truncated) torsion part."""

    def __init__(self, g, values, cardinality, truncated):
        self.g = g
        self.values = values                    # frozenset
        self.cardinality = cardinality
        self.truncated = truncated


def condition4_set(cocycle, g, prufer_level=None):
    """The `ScalarOrbit` of g: c with u_h^-1 u_g u_h = c u_(h^-1 g h), from
    three raw cocycle values per torsion h; one Scalar per distinct c."""
    group, F, raw = cocycle.group, cocycle.field, cocycle.raw
    mul, inv = F.raw_mul, F.raw_inv
    values = set()
    for h in group.torsion_elements(prufer_level):
        hi = group.inv(h)
        values.add(F.reduce(mul(mul(raw(hi, g), raw(group.mul(hi, g), h)),
                                inv(raw(h, hi)))))
    return ScalarOrbit(g, frozenset(Scalar(F, v) for v in values),
                       len(values), truncated=group.prufer is not None)
