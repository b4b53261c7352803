"""Supported group families, exact and closed-form.

An element is a triple (u, t, s): free coordinates u in Z^r, a key t of
the finite torsion part T, and, for abelian T, an optional Pruefer
coordinate of Z(q^infinity) truncated at q^levels, held as the int
numerator s of s/Q mod 1, Q = q^levels the group's ``prufer_modulus``
(1 without a Pruefer part, so s is then 0).  T has one
representation whatever its source: the keys 0..|T|-1, key 0 the
identity, multiplied through a precomputed product table with inverse
and order lists.  T comes from

* abelian invariants (d_1, ..., d_m): the key of the coordinates
  (c_1, ..., c_m) is their mixed-radix number, so keys sort like the
  coordinate tuples and the table is correct by construction; or
* an explicit Cayley table for a finite group W, validated on entry.

An abelian T may receive a central pairing from the free part:
(u, a)(v, b) = (u+v, a + b + beta(u, v)) with
beta(u, v) = (sum_{i<j} M[i][j] u_i v_j) * zvec, M strictly upper
triangular.  Without one the group is the direct product Z^r x T; a plain
finite group is the rank-0 case.  Coordinates and Pruefer fractions
appear only at the edges: JSON, ``Group.element`` and element reprs.
Every representable group is an FC-group with conjugacy classes bounded
in closed form.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from . import fields
from .errors import (
    GroupMismatch,
    GroupValidationError,
    InfiniteIndexUnsupported,
    InfiniteOrder,
    InstanceFormatError,
    SubgroupTooLarge,
    int_entries,
    int_matrix,
    known_keys,
)

MAX_TORSION = 64
# the largest free rank a JSON group may declare; checked before the group
# allocates anything per free coordinate
MAX_RANK = 8


def _lcm(a, b):
    return a * b // math.gcd(a, b)


def bilinear_exponent(M, u, v):
    """sum_{i<j} M[i][j] u_i v_j for a strictly upper triangular M."""
    total = 0
    for i, row in enumerate(M):
        if u[i]:
            for j in range(i + 1, len(row)):
                if row[j] and v[j]:
                    total += row[j] * u[i] * v[j]
    return total


class Element:
    """One group element: free coordinates, torsion key, Pruefer numerator."""

    __slots__ = ("group", "u", "t", "s")

    def __init__(self, group, u, t, s):
        self.group = group
        self.u = u
        self.t = t
        self.s = s

    def __mul__(self, other):
        return self.group.mul(self, other)

    def inv(self):
        return self.group.inv(self)

    def __pow__(self, n):
        return self.group.power(self, n)

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return (self.group is other.group and self.u == other.u
                and self.t == other.t and self.s == other.s)

    def __hash__(self):
        return hash((self.u, self.t, self.s))

    def order(self):
        return self.group.element_order(self)

    def sort_key(self):
        return (self.u, self.t, self.s)

    def __repr__(self):
        return (f"El(u={list(self.u)}, t={self.group.torsion.coords(self.t)}, "
                f"s={Fraction(self.s, self.group.prufer_modulus)})")


class _Torsion:
    """A finite group on the keys 0..size-1, key 0 the identity, multiplied
    through a product table with precomputed inverses and orders.

    A subclass sets ``generator_keys`` and ``is_abelian`` and provides the
    codec between the input form of a torsion element and its key:
    ``key`` reads it (checked), ``coords`` and ``key_to_json`` write it.
    """

    def __init__(self, table):
        self.table = table
        self.size = len(table)
        self._inverse = [row.index(0) for row in table]
        self._order = []
        for a in range(self.size):
            o, acc = 1, a
            while acc:
                acc = table[acc][a]
                o += 1
            self._order.append(o)

    def mul_key(self, a, b):
        return self.table[a][b]

    def inv_key(self, a):
        return self._inverse[a]

    def order_key(self, a):
        return self._order[a]

    def keys(self):
        return range(self.size)

    def coords(self, key):
        return key

    def key_to_json(self, key):
        return key


class InvariantsTorsion(_Torsion):
    """Finite abelian group Z_{d_1} x ... x Z_{d_m} on mixed-radix keys.

    The key of the coordinates (c_1, ..., c_m) is sum c_i w_i, w_i the
    product of the later invariants; w_i is the key of the i-th unit
    vector, and keys sort like coordinate tuples.  The table is the
    coordinatewise sum, correct by construction, so it skips the Cayley
    table checks.
    """

    kind = "invariants"
    is_abelian = True

    def __init__(self, invariants):
        invariants = int_entries(invariants, "torsion invariants")
        if any(d < 2 for d in invariants):
            raise GroupValidationError(
                f"torsion invariants must all be >= 2, got {list(invariants)}")
        size = math.prod(invariants)
        if size > MAX_TORSION:
            raise GroupValidationError(
                f"torsion size {size} exceeds the cap {MAX_TORSION}")
        self.invariants = invariants
        table = [[0]]
        weights = []
        for d in reversed(invariants):
            w = len(table)
            weights.append(w)
            table = [[(i + j) % d * w + x for j in range(d) for x in row]
                     for i in range(d) for row in table]
        super().__init__(table)
        self.generator_keys = weights[::-1]

    def key(self, coords, what="torsion coordinates"):
        coords = int_entries(coords, what)
        if len(coords) != len(self.invariants):
            raise InstanceFormatError(
                f"{what} must be {len(self.invariants)} ints, one per "
                f"invariant, got {list(coords)}")
        return sum(c % d * w for c, d, w
                   in zip(coords, self.invariants, self.generator_keys))

    def coords(self, key):
        return tuple(key // w % d
                     for d, w in zip(self.invariants, self.generator_keys))

    def key_to_json(self, key):
        return list(self.coords(key))


class TableTorsion(_Torsion):
    """Finite group given by a Cayley table over the keys 0..n-1.

    Key 0 is the identity.  Construction validates the identity row and
    column, the Latin square property, exhaustive associativity, and the
    existence of inverses.  Keys are the element names, in and out.
    """

    kind = "table"

    def __init__(self, table):
        table = int_matrix(table, "Cayley table")
        n = len(table)
        if n == 0 or n > MAX_TORSION:
            raise GroupValidationError(
                f"Cayley table size must be 1..{MAX_TORSION}, got {n}")
        if any(len(row) != n for row in table):
            raise GroupValidationError("Cayley table is not square")
        if any(x < 0 or x >= n for row in table for x in row):
            raise GroupValidationError("Cayley table entry out of range")
        for i in range(n):
            if table[0][i] != i or table[i][0] != i:
                raise GroupValidationError(
                    "index 0 must be the identity of the Cayley table")
        full = frozenset(range(n))
        for i in range(n):
            if frozenset(table[i]) != full:
                raise GroupValidationError(f"row {i} is not a permutation")
            if frozenset(table[j][i] for j in range(n)) != full:
                raise GroupValidationError(f"column {i} is not a permutation")
        for a in range(n):
            for b in range(n):
                tab = table[a][b]
                for c in range(n):
                    if table[tab][c] != table[a][table[b][c]]:
                        raise GroupValidationError(
                            f"associativity fails at ({a}, {b}, {c})")
        super().__init__(table)
        self.is_abelian = all(table[i][j] == table[j][i]
                              for i in range(n) for j in range(i))
        self.generator_keys = self._greedy_generators()

    def _greedy_generators(self):
        """Greedy minimal generating keys."""
        gens = []
        closure = {0}
        for key in range(1, self.size):
            if key in closure:
                continue
            gens.append(key)
            closure = set()
            stack = [0]
            while stack:
                x = stack.pop()
                if x in closure:
                    continue
                closure.add(x)
                for g in gens:
                    stack.append(self.mul_key(x, g))
                    stack.append(self.mul_key(x, self.inv_key(g)))
            if len(closure) == self.size:
                break
        return gens

    def key(self, t, what="torsion key"):
        (t,) = int_entries([t], what)
        if not 0 <= t < self.size:
            raise InstanceFormatError(f"{what} {t} out of range")
        return t


class FiniteSubgroup:
    """A verified finite subgroup: element list closed under the group law."""

    def __init__(self, group, elements, generators):
        self.group = group
        self.elements = tuple(sorted(elements, key=lambda e: e.sort_key()))
        self.generators = tuple(generators)
        self.index_of = {e: i for i, e in enumerate(self.elements)}

    def __len__(self):
        return len(self.elements)

    def __contains__(self, el):
        return el in self.index_of

    def product_table(self):
        """(prod, one): prod[i][j] indexes elements[i] * elements[j], one
        the identity.  Every element has free part u = 0: u != 0 means
        infinite order, which `finite_subgroup` rejects in a generator, and
        u adds under the law.  So the pairing exponent is 0 and g h has key
        table[g.t][h.t] and Pruefer numerator (g.s + h.s) mod Q."""
        table, Q = self.group.torsion.table, self.group.prufer_modulus
        index = {(e.t, e.s): i for i, e in enumerate(self.elements)}
        prod = [[index[table[g.t][h.t], (g.s + h.s) % Q]
                 for h in self.elements] for g in self.elements]
        return prod, index[0, 0]


def finite_subgroup(group, generators, cap=MAX_TORSION):
    """Close a generator list under multiplication (elements have finite
    order) one element at a time: one in the closure H so far is skipped,
    a new g gives <H, g> as the cosets H r, r closed under those kept."""
    for g in generators:
        if g.group is not group:
            raise GroupMismatch("generator from a different group")
        if group.element_order(g) == math.inf:
            raise InfiniteOrder(f"{g!r} generates an infinite subgroup")
    seen, kept = {group.identity}, []
    for g in generators:
        if g in seen:
            continue
        kept.append(g)
        H, reps = list(seen), [group.identity]
        for r in reps:
            for y in (r * s for s in kept):
                if y not in seen:
                    reps.append(y)
                    seen.update(h * y for h in H)
                    if len(seen) > cap:
                        raise SubgroupTooLarge(
                            f"subgroup closure exceeds the cap {cap}")
    return FiniteSubgroup(group, seen, generators)


class Group:
    """A group from the supported family.  See the module docstring."""

    def __init__(self, rank, torsion, pairing_matrix=None, pairing_target=None,
                 prufer=None, json_kind="central-extension"):
        # The law is associative by construction, so no triple is checked
        # here: an invariants table is built correct, a Cayley table is
        # checked for associativity exhaustively, a pairing needs an abelian
        # torsion part and a strictly upper triangular int matrix, which
        # makes the pairing term a bilinear (so 2-cocycle) central twist,
        # and a Pruefer component needs an abelian torsion part.
        if rank < 0:
            raise GroupValidationError("rank must be nonnegative")
        self.rank = rank
        self.torsion = torsion
        self.json_kind = json_kind
        self._zero_u = (0,) * rank
        if (pairing_matrix is not None) != (pairing_target is not None):
            raise GroupValidationError(
                "pairing needs both a matrix and a target")
        self._target_powers = [0]
        if pairing_matrix is not None:
            if not torsion.is_abelian:
                raise GroupValidationError(
                    "a central pairing requires an abelian torsion part")
            M = int_matrix(pairing_matrix, "pairing matrix")
            if len(M) != rank or any(len(row) != rank for row in M):
                raise GroupValidationError("pairing matrix must be rank x rank")
            for i in range(rank):
                for j in range(rank):
                    if j <= i and M[i][j] != 0:
                        raise GroupValidationError(
                            "pairing matrix must be strictly upper triangular")
            self.pairing_matrix = M
            self.pairing_target = torsion.key(pairing_target,
                                              "pairing target")
            entries = [e for row in M for e in row if e]
            self.pairing_content = math.gcd(*entries) if entries else 0
            self.pairing_order = torsion.order_key(self.pairing_target)
            for _ in range(1, self.pairing_order):
                self._target_powers.append(torsion.mul_key(
                    self._target_powers[-1], self.pairing_target))
        else:
            self.pairing_matrix = None
            self.pairing_target = None
            self.pairing_content = 0
            self.pairing_order = 1
        if prufer is not None:
            q, levels = int_entries(prufer, "Pruefer q and levels")
            if not torsion.is_abelian:
                raise GroupValidationError(
                    "a Pruefer component requires an abelian torsion part")
            if not fields.is_prime(q):
                raise GroupValidationError(f"Pruefer parameter {q} not prime")
            if not 1 <= levels <= 12:
                raise GroupValidationError("Pruefer levels must be 1..12")
            self.prufer = (q, levels)
        else:
            self.prufer = None
        self.prufer_modulus = q ** levels if prufer is not None else 1
        self.identity = self.from_key(0)

    # --- basic law ---------------------------------------------------------

    def _target_multiple(self, c):
        """The torsion key c * zvec (the identity when there is no pairing)."""
        return self._target_powers[c % self.pairing_order]

    def _check(self, *els):
        for e in els:
            if e.group is not self:
                raise GroupMismatch("element belongs to a different group")

    def mul(self, a, b):
        self._check(a, b)
        table = self.torsion.table
        t = table[a.t][b.t]
        M = self.pairing_matrix
        c = bilinear_exponent(M, a.u, b.u) if M else 0
        if c:
            t = table[t][self._target_multiple(c)]
        return Element(self, tuple(map(operator.add, a.u, b.u)), t,
                       (a.s + b.s) % self.prufer_modulus)

    def inv(self, a):
        self._check(a)
        u = tuple(-x for x in a.u)
        t = self.torsion.inv_key(a.t)
        M = self.pairing_matrix
        c = bilinear_exponent(M, u, a.u) if M else 0  # so a^-1 * a = 1
        if c:
            t = self.torsion.mul_key(t, self._target_multiple(-c))
        return Element(self, u, t, -a.s % self.prufer_modulus)

    def power(self, a, n):
        if n < 0:
            return self.power(self.inv(a), -n)
        return fields.power(a, n, self.mul, self.identity)

    def commutator(self, a, b):
        """[a, b] = a^-1 b^-1 a b."""
        return self.mul(self.mul(self.inv(a), self.inv(b)), self.mul(a, b))

    # --- elements and orders -----------------------------------------------

    def element(self, u=None, t=None, s=0):
        """The element with free coordinates u, torsion part t in its input
        form (coordinates for invariants, a key for a table) and Pruefer
        coordinate s, a fraction mod 1, each checked."""
        u = self._zero_u if u is None else tuple(int(x) for x in u)
        if len(u) != self.rank:
            raise InstanceFormatError(
                f"free part needs {self.rank} coordinates, got {len(u)}")
        t = 0 if t is None else self.torsion.key(t)
        s = Fraction(s) % 1
        if s != 0:
            if self.prufer is None:
                raise InstanceFormatError(
                    "nonzero Pruefer coordinate in a group without one")
            q, levels = self.prufer
            den = s.denominator
            k = 0
            while den % q == 0:
                den //= q
                k += 1
            if den != 1 or k > levels:
                raise InstanceFormatError(
                    f"Pruefer coordinate {s} is not s/{q}^k with k <= {levels}")
        return Element(self, u, t, s.numerator * self.prufer_modulus
                       // s.denominator)

    def from_key(self, t, u=None, s=0):
        """The element with torsion key t, free part u (zero by default) and
        Pruefer numerator s, the int in range(prufer_modulus) that stands
        for s / prufer_modulus mod 1; unchecked, for callers that already
        hold keys."""
        return Element(self, self._zero_u if u is None else u, t, s)

    def element_order(self, a):
        self._check(a)
        if any(x != 0 for x in a.u):
            return math.inf
        o = self.torsion.order_key(a.t)
        if a.s:
            Q = self.prufer_modulus
            o = _lcm(o, Q // math.gcd(a.s, Q))
        return o

    def is_finite(self):
        return self.rank == 0 and self.prufer is None

    def elements(self):
        if not self.is_finite():
            raise InfiniteIndexUnsupported("group is infinite")
        return [self.from_key(k) for k in self.torsion.keys()]

    @property
    def is_abelian(self):
        return (self.torsion.is_abelian
                and self.pairing_content % self.pairing_order == 0)

    def torsion_elements(self, prufer_level=None):
        """All torsion elements, Pruefer part truncated at prufer_level."""
        keys = self.torsion.keys()
        if self.prufer is None:
            return [self.from_key(k) for k in keys]
        q, levels = self.prufer
        if prufer_level is None:
            prufer_level = levels
        step = q ** (levels - min(prufer_level, levels))
        return [self.from_key(k, s=s) for k in keys
                for s in range(0, self.prufer_modulus, step)]

    def generators(self, prufer_level=None):
        """Canonical labeled generators: free, then torsion, then Pruefer."""
        out = [(f"f{i + 1}",
                self.from_key(0, tuple(int(j == i) for j in range(self.rank))))
               for i in range(self.rank)]
        out += [(f"t{n + 1}", self.from_key(key))
                for n, key in enumerate(self.torsion.generator_keys)]
        if self.prufer is not None:
            q, levels = self.prufer
            level = levels if prufer_level is None else min(prufer_level, levels)
            out.append(("p", self.from_key(0, s=q ** (levels - level))))
        return out

    # --- structure -----------------------------------------------------------

    def commutator_subgroup(self):
        """G', closed from the torsion commutators and the pairing image.

        The free part commutes with T, so G' is generated by the
        commutators of T and by c * zvec with c the pairing content (the
        gcd of the pairing matrix entries).
        """
        tor = self.torsion
        keys = {self._target_multiple(self.pairing_content)}
        if not tor.is_abelian:
            keys.update(
                tor.mul_key(tor.mul_key(tor.inv_key(a), tor.inv_key(b)),
                            tor.mul_key(a, b))
                for a in tor.keys() for b in tor.keys())
        keys.discard(0)
        return finite_subgroup(self, [self.from_key(k) for k in sorted(keys)])

    def center_contains(self, el):
        """el is central iff its torsion key commutes with T and its free
        part pairs with every free generator into a multiple of the
        target order."""
        self._check(el)
        tor, M = self.torsion, self.pairing_matrix
        if not tor.is_abelian and any(
                tor.mul_key(el.t, w) != tor.mul_key(w, el.t)
                for w in tor.keys()):
            return False
        if M is None:
            return True
        for i in range(self.rank):
            w = sum(M[i][j] * el.u[j] for j in range(i + 1, self.rank)) \
                - sum(M[j][i] * el.u[j] for j in range(i))
            if w % self.pairing_order != 0:
                return False
        return True

    def torsion_is_central(self):
        """True when every torsion element is central: torsion elements
        have free part zero, so this holds exactly when T is abelian."""
        return self.torsion.is_abelian

    def is_fc(self):
        """(True, certificate): every group in the family is FC."""
        if not self.torsion.is_abelian:
            bound = self.torsion.size
            reason = "conjugacy classes lie inside cosets of the finite factor"
        elif self.pairing_matrix is None:
            bound = 1
            reason = "abelian"
        else:
            bound = self.pairing_order
            reason = ("conjugates differ by multiples of the pairing target, "
                      "a finite central subgroup")
        return True, {"fc": True, "max_class_size_bound": bound,
                      "reason": reason}

    # --- coset systems ---------------------------------------------------------

    def torsion_cosets(self):
        """Cosets of t(G); the quotient is the free abelian part Z^rank."""
        return _TorsionCosets(self)

    def cyclic_cosets(self, a):
        """Cosets of the normal cyclic subgroup <a>, for a torsion element
        a with Pruefer coordinate 0."""
        self._check(a)
        if self.element_order(a) == math.inf:
            raise InfiniteIndexUnsupported(
                "cyclic coset system needs a torsion element")
        if a.s != 0:
            raise InfiniteIndexUnsupported(
                "cyclic coset system over a Pruefer coordinate "
                "is not supported")
        return _CyclicCosets(self, a)

    # --- JSON ---------------------------------------------------------------

    def element_to_json(self, el):
        self._check(el)
        a = self.torsion.key_to_json(el.t)
        if self.json_kind == "cayley":
            return a
        obj = {"u": list(el.u), "a": a}
        if el.s:
            s = Fraction(el.s, self.prufer_modulus)
            obj["prufer"] = f"{s.numerator}/{s.denominator}"
        return obj


class _TorsionCosets:
    """Cosets of t(G): the quotient is the free abelian part Z^rank."""

    def __init__(self, group):
        self.group = group
        self.quotient = Group(group.rank, InvariantsTorsion(()),
                              json_kind="central-extension")

    def project(self, el):
        self.group._check(el)
        return self.quotient.from_key(0, el.u)

    def rep(self, h):
        self.quotient._check(h)
        return self.group.from_key(0, h.u)

    def factor(self, el):
        """el = rep(h) * t with t in t(G); returns (h, t)."""
        h = self.project(el)
        t = self.group.mul(self.group.inv(self.rep(h)), el)
        return h, t


class _CyclicCosets:
    """Cosets of a normal cyclic subgroup <a>, a torsion.

    The quotient torsion part is the table of the cosets of <a> in T, keyed
    in the order of their least keys; it keeps the free part, the pairing
    (its target projected, dropped when the target lies in <a>) and the
    Pruefer part.
    """

    def __init__(self, group, a):
        self.group = group
        self.a = a
        self.sub_order = group.element_order(a)
        self.a_powers = [group.power(a, k) for k in range(self.sub_order)]
        tor = group.torsion
        powers = {p.t for p in self.a_powers}
        for w in tor.keys():
            for p in powers:
                conj = tor.mul_key(tor.mul_key(tor.inv_key(w), p), w)
                if conj not in powers:
                    raise InfiniteIndexUnsupported(
                        "cyclic coset system needs a normal subgroup")
        self.rep_keys = []
        self.coset_of = [None] * tor.size
        for w in tor.keys():
            if self.coset_of[w] is None:
                for p in powers:
                    self.coset_of[tor.mul_key(w, p)] = len(self.rep_keys)
                self.rep_keys.append(w)
        reps = self.rep_keys
        table = [[self.coset_of[tor.mul_key(x, y)] for y in reps]
                 for x in reps]
        matrix, target = group.pairing_matrix, None
        if matrix is not None:
            target = self.coset_of[group.pairing_target]
            if target == 0:
                matrix, target = None, None
        plain = group.rank == 0 and group.prufer is None and matrix is None
        self.quotient = Group(group.rank, TableTorsion(table),
                              pairing_matrix=matrix, pairing_target=target,
                              prufer=group.prufer,
                              json_kind="cayley" if plain
                              else "central-extension")

    def project(self, el):
        self.group._check(el)
        return self.quotient.from_key(self.coset_of[el.t], el.u, el.s)

    def rep(self, h):
        """The coset representative with the least torsion key."""
        self.quotient._check(h)
        return self.group.from_key(self.rep_keys[h.t], h.u, h.s)

    def factor(self, el):
        """el = rep(h) * a^k; returns (h, k)."""
        h = self.project(el)
        base = self.rep(h)
        diff = self.group.mul(self.group.inv(base), el)
        for k, p in enumerate(self.a_powers):
            if p == diff:
                return h, k
        raise AssertionError("coset factorization failed")


# --- JSON construction ----------------------------------------------------------


def make_group(obj):
    """Build a group from its JSON description.

    {"kind": "cayley", "table": [[...]]}
    {"kind": "central-extension", "rank": r,
     "torsion": {"invariants": [...]} | {"table": [[...]]},
     "pairing": {"target_index": i, "matrix": [[...]]},   # optional
     "prufer": {"q": 2, "levels": 8}}                     # optional

    A pairing needs invariants torsion; its target is the i-th unit
    vector, or "target_vector": [c_1, ..., c_m], one int per invariant.
    """
    if not isinstance(obj, dict) or "kind" not in obj:
        raise InstanceFormatError(f"group spec must have a 'kind': {obj!r}")
    kind = obj["kind"]
    if kind == "cayley":
        known_keys(obj, ("kind", "table"), "cayley group")
        if "table" not in obj:
            raise InstanceFormatError("cayley group spec needs a 'table'")
        return Group(0, TableTorsion(obj["table"]), json_kind="cayley")
    if kind != "central-extension":
        raise InstanceFormatError(f"unknown group kind {kind!r}")
    known_keys(obj, ("kind", "rank", "torsion", "pairing", "prufer"),
               "central-extension group")
    (rank,) = int_entries([obj.get("rank")], "central-extension 'rank'")
    if rank < 0:
        raise InstanceFormatError("central-extension needs int 'rank' >= 0")
    if rank > MAX_RANK:
        raise InstanceFormatError(
            f"central-extension 'rank' {rank} exceeds the cap {MAX_RANK}")
    tor_spec = obj.get("torsion")
    if not isinstance(tor_spec, dict):
        raise InstanceFormatError("central-extension needs a 'torsion' object")
    known_keys(tor_spec, ("invariants", "table"), "torsion")
    if "invariants" in tor_spec and "table" in tor_spec:
        raise InstanceFormatError(
            "torsion must give 'invariants' or a 'table', not both")
    if "invariants" in tor_spec:
        torsion = InvariantsTorsion(tor_spec["invariants"])
    elif "table" in tor_spec:
        torsion = TableTorsion(tor_spec["table"])
    else:
        raise InstanceFormatError(
            "torsion must give 'invariants' or a 'table'")
    matrix = target = None
    if "pairing" in obj and obj["pairing"] is not None:
        pairing = obj["pairing"]
        if not isinstance(pairing, dict) or "matrix" not in pairing:
            raise InstanceFormatError("pairing needs a 'matrix'")
        known_keys(pairing, ("matrix", "target_index", "target_vector"),
                   "pairing")
        if "target_index" in pairing and "target_vector" in pairing:
            raise InstanceFormatError(
                "pairing gives both 'target_index' and 'target_vector'")
        if torsion.kind != "invariants":
            raise GroupValidationError(
                "pairing requires abelian invariants torsion")
        matrix = pairing["matrix"]
        if "target_index" in pairing:
            (idx,) = int_entries([pairing["target_index"]],
                                 "pairing target_index")
            m = len(torsion.invariants)
            if not 0 <= idx < m:
                raise InstanceFormatError(
                    f"pairing target_index {idx!r} out of range")
            target = tuple(1 if i == idx else 0 for i in range(m))
        elif "target_vector" in pairing:
            target = pairing["target_vector"]
        else:
            raise InstanceFormatError(
                "pairing needs 'target_index' or 'target_vector'")
    prufer = None
    if "prufer" in obj and obj["prufer"] is not None:
        ps = obj["prufer"]
        if not isinstance(ps, dict) or "q" not in ps or "levels" not in ps:
            raise InstanceFormatError("prufer spec needs 'q' and 'levels'")
        known_keys(ps, ("q", "levels"), "prufer")
        prufer = (ps["q"], ps["levels"])
    return Group(rank, torsion, pairing_matrix=matrix, pairing_target=target,
                 prufer=prufer)


def group_to_json(group):
    if group.json_kind == "cayley":
        return {"kind": "cayley",
                "table": [list(r) for r in group.torsion.table]}
    obj = {"kind": "central-extension", "rank": group.rank}
    if group.torsion.kind == "invariants":
        obj["torsion"] = {"invariants": list(group.torsion.invariants)}
    else:
        obj["torsion"] = {"table": [list(r) for r in group.torsion.table]}
    if group.pairing_matrix is not None:
        if group.torsion.kind != "invariants":
            raise GroupValidationError(
                "a pairing on a table torsion part has no JSON form")
        target = group.torsion.coords(group.pairing_target)
        pairing = {"matrix": [list(r) for r in group.pairing_matrix]}
        units = [i for i, z in enumerate(target) if z]
        if len(units) == 1 and target[units[0]] == 1:
            pairing["target_index"] = units[0]
        else:
            pairing["target_vector"] = list(target)
        obj["pairing"] = pairing
    if group.prufer is not None:
        obj["prufer"] = {"q": group.prufer[0], "levels": group.prufer[1]}
    return obj


# --- stock tables for tests and bundled instances --------------------------------


def cyclic_table(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def symmetric_group_3_table():
    """S3 via permutation composition, identity first.

    Elements indexed as: 0 = id, 1 = (12), 2 = (13), 3 = (23),
    4 = (123), 5 = (132), each stored as a tuple image of (0, 1, 2).
    """
    perms = [(0, 1, 2), (1, 0, 2), (2, 1, 0), (0, 2, 1), (1, 2, 0), (2, 0, 1)]
    index = {p: i for i, p in enumerate(perms)}

    def compose(p, q):  # apply q first, then p
        return tuple(p[q[i]] for i in range(3))

    return [[index[compose(perms[i], perms[j])] for j in range(6)]
            for i in range(6)]
