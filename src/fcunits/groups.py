"""Supported group families, exact and closed-form.

Two shapes of torsion part:

* abelian invariants (d_1, ..., d_m), optionally receiving a central pairing
  from the free part: (u, a)(v, b) = (u+v, a + b + beta(u, v)) with
  beta(u, v) = (sum_{i<j} M[i][j] u_i v_j) * zvec, M strictly upper triangular;
* an explicit Cayley table for a finite group W (then the pairing must be
  absent, so the whole group is the direct product Z^r x W).

On top of either shape: a free abelian part Z^r and, for abelian torsion, an
optional Pruefer component Z(q^infinity) stored as reduced fractions s/q^k
mod 1.  A plain finite group is the rank-0 table case.  Every representable
group is an FC-group with conjugacy classes bounded in closed form.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .errors import (
    GroupMismatch,
    GroupValidationError,
    InfiniteIndexUnsupported,
    InfiniteOrder,
    InstanceFormatError,
    SubgroupTooLarge,
    int_entries,
    int_matrix,
)
from .snf import smith_normal_form

MAX_TORSION = 64


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
    """One group element: free coordinates, torsion key, Pruefer fraction."""

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
        tkey = self.t if isinstance(self.t, tuple) else (self.t,)
        return (self.u, tkey, self.s)

    def __repr__(self):
        return f"El(u={list(self.u)}, t={self.t}, s={self.s})"


class InvariantsTorsion:
    """Finite abelian group as a product of cyclic groups Z_{d_i}."""

    kind = "invariants"

    def __init__(self, invariants):
        invariants = int_entries(invariants, "torsion invariants")
        if any(d < 2 for d in invariants):
            raise GroupValidationError(
                f"torsion invariants must all be >= 2, got {list(invariants)}")
        self.invariants = invariants
        self.size = math.prod(invariants) if invariants else 1
        if self.size > MAX_TORSION:
            raise GroupValidationError(
                f"torsion size {self.size} exceeds the cap {MAX_TORSION}")
        self._weights = []
        w = 1
        for d in reversed(invariants):
            self._weights.append(w)
            w *= d
        self._weights.reverse()

    @property
    def is_abelian(self):
        return True

    def identity_key(self):
        return (0,) * len(self.invariants)

    def normalize(self, key):
        return tuple(int(c) % d for c, d in zip(key, self.invariants))

    def mul_key(self, a, b):
        return tuple((x + y) % d for x, y, d in zip(a, b, self.invariants))

    def inv_key(self, a):
        return tuple((-x) % d for x, d in zip(a, self.invariants))

    def order_key(self, a):
        o = 1
        for x, d in zip(a, self.invariants):
            if x:
                o = _lcm(o, d // math.gcd(d, x))
        return o

    def keys(self):
        for key in itertools.product(*(range(d) for d in self.invariants)):
            yield key

    def index(self, key):
        return sum(c * w for c, w in zip(key, self._weights))

    def key_to_json(self, key):
        return list(key)

    def key_from_json(self, obj):
        if not isinstance(obj, list) or len(obj) != len(self.invariants):
            raise InstanceFormatError(
                f"torsion coordinate must be a list of "
                f"{len(self.invariants)} ints, got {obj!r}")
        return self.normalize(obj)


class TableTorsion:
    """Finite group given by a Cayley table over indices 0..n-1.

    Index 0 is the identity.  Construction validates the identity row and
    column, the Latin square property, exhaustive associativity, and the
    existence of inverses.
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
        self.table = table
        self.size = n
        self._inverse = [next(j for j in range(n) if table[i][j] == 0)
                         for i in range(n)]

    @property
    def is_abelian(self):
        t = self.table
        n = self.size
        return all(t[i][j] == t[j][i] for i in range(n) for j in range(i))

    def identity_key(self):
        return 0

    def normalize(self, key):
        key = int(key)
        if not 0 <= key < self.size:
            raise InstanceFormatError(f"element index {key} out of range")
        return key

    def mul_key(self, a, b):
        return self.table[a][b]

    def inv_key(self, a):
        return self._inverse[a]

    def order_key(self, a):
        o = 1
        acc = a
        while acc != 0:
            acc = self.table[acc][a]
            o += 1
        return o

    def keys(self):
        return iter(range(self.size))

    def index(self, key):
        return key

    def key_to_json(self, key):
        return key

    def key_from_json(self, obj):
        if not isinstance(obj, int):
            raise InstanceFormatError(
                f"table-group element must be an int index, got {obj!r}")
        return self.normalize(obj)


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


def finite_subgroup(group, generators, cap=MAX_TORSION):
    """Close a generator list under multiplication and inversion."""
    for g in generators:
        if g.group is not group:
            raise GroupMismatch("generator from a different group")
        if group.element_order(g) == math.inf:
            raise InfiniteOrder(f"{g!r} generates an infinite subgroup")
    seen = {group.identity}
    frontier = [group.identity]
    gens = [g for g in generators] + [g.inv() for g in generators]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = x * g
                if y not in seen:
                    seen.add(y)
                    if len(seen) > cap:
                        raise SubgroupTooLarge(
                            f"subgroup closure exceeds the cap {cap}")
                    nxt.append(y)
        frontier = nxt
    return FiniteSubgroup(group, seen, generators)


class SubgroupRecord:
    """A finite subgroup presented by explicit elements plus generators."""

    def __init__(self, group, elements, generators, note=""):
        self.group = group
        self.elements = tuple(sorted(elements, key=lambda e: e.sort_key()))
        self.generators = tuple(generators)
        self.note = note

    @property
    def order(self):
        return len(self.elements)


class Group:
    """A group from the supported family.  See the module docstring."""

    def __init__(self, rank, torsion, pairing_matrix=None, pairing_target=None,
                 prufer=None, json_kind="central-extension"):
        if rank < 0:
            raise GroupValidationError("rank must be nonnegative")
        self.rank = rank
        self.torsion = torsion
        self.json_kind = json_kind
        if (pairing_matrix is not None) != (pairing_target is not None):
            raise GroupValidationError(
                "pairing needs both a matrix and a target")
        if pairing_matrix is not None:
            if torsion.kind != "invariants":
                raise GroupValidationError(
                    "a central pairing requires abelian invariants torsion")
            M = int_matrix(pairing_matrix, "pairing matrix")
            if len(M) != rank or any(len(row) != rank for row in M):
                raise GroupValidationError("pairing matrix must be rank x rank")
            for i in range(rank):
                for j in range(rank):
                    if j <= i and M[i][j] != 0:
                        raise GroupValidationError(
                            "pairing matrix must be strictly upper triangular")
            self.pairing_matrix = M
            self.pairing_target = torsion.normalize(pairing_target)
            entries = [e for row in M for e in row if e]
            self.pairing_content = math.gcd(*entries) if entries else 0
            self.pairing_order = torsion.order_key(self.pairing_target)
        else:
            self.pairing_matrix = None
            self.pairing_target = None
            self.pairing_content = 0
            self.pairing_order = 1
        if prufer is not None:
            q, levels = int_entries(prufer, "Pruefer q and levels")
            if torsion.kind != "invariants":
                raise GroupValidationError(
                    "a Pruefer component requires abelian torsion")
            from .fields import is_prime
            if not is_prime(q):
                raise GroupValidationError(f"Pruefer parameter {q} not prime")
            if not 1 <= levels <= 12:
                raise GroupValidationError("Pruefer levels must be 1..12")
            self.prufer = (q, levels)
        else:
            self.prufer = None
        self.identity = Element(self, (0,) * rank, torsion.identity_key(),
                                Fraction(0))
        self._assoc_spot_check()

    # --- construction checks ---------------------------------------------

    def _assoc_spot_check(self):
        gens = [self.identity] + [g for _, g in self.generators()]
        gens = gens[:6]
        for a in gens:
            for b in gens:
                for c in gens:
                    if self.mul(self.mul(a, b), c) != self.mul(a, self.mul(b, c)):
                        raise GroupValidationError(
                            "associativity spot check failed")

    # --- basic law ---------------------------------------------------------

    def _target_multiple(self, c):
        """The torsion key c * zvec (identity when there is no pairing)."""
        if self.pairing_target is None or c == 0:
            return self.torsion.identity_key()
        return self.torsion.normalize(
            tuple(c * z for z in self.pairing_target))

    def _el(self, u, t, s):
        return Element(self, u, t, s)

    def _check(self, *els):
        for e in els:
            if e.group is not self:
                raise GroupMismatch("element belongs to a different group")

    def mul(self, a, b):
        self._check(a, b)
        u = tuple(x + y for x, y in zip(a.u, b.u))
        t = self.torsion.mul_key(a.t, b.t)
        M = self.pairing_matrix
        c = bilinear_exponent(M, a.u, b.u) if M else 0
        if c:
            t = self.torsion.mul_key(t, self._target_multiple(c))
        s = (a.s + b.s) % 1
        return self._el(u, t, s)

    def inv(self, a):
        self._check(a)
        u = tuple(-x for x in a.u)
        t = self.torsion.inv_key(a.t)
        M = self.pairing_matrix
        c = bilinear_exponent(M, u, a.u) if M else 0  # so a^-1 * a = 1
        if c:
            t = self.torsion.mul_key(t, self._target_multiple(-c))
        s = (-a.s) % 1
        return self._el(u, t, s)

    def power(self, a, n):
        if n < 0:
            return self.power(self.inv(a), -n)
        result = self.identity
        base = a
        while n:
            if n & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            n >>= 1
        return result

    def commutator(self, a, b):
        """[a, b] = a^-1 b^-1 a b."""
        return self.mul(self.mul(self.inv(a), self.inv(b)), self.mul(a, b))

    # --- elements and orders -----------------------------------------------

    def element(self, u=None, t=None, s=0):
        u = (0,) * self.rank if u is None else tuple(int(x) for x in u)
        if len(u) != self.rank:
            raise InstanceFormatError(
                f"free part needs {self.rank} coordinates, got {len(u)}")
        t = self.torsion.identity_key() if t is None else self.torsion.normalize(t)
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
        return self._el(u, t, s)

    def element_order(self, a):
        self._check(a)
        if any(x != 0 for x in a.u):
            return math.inf
        o = self.torsion.order_key(a.t)
        if a.s:
            o = _lcm(o, a.s.denominator)
        return o

    def is_finite(self):
        return self.rank == 0 and self.prufer is None

    def elements(self):
        if not self.is_finite():
            raise InfiniteIndexUnsupported("group is infinite")
        return [self._el((), k, Fraction(0)) for k in self.torsion.keys()]

    @property
    def is_abelian(self):
        return (self.torsion.is_abelian
                and self.pairing_content % self.pairing_order == 0)

    def torsion_elements(self, prufer_level=None):
        """All torsion elements, Pruefer part truncated at prufer_level."""
        base = [self._el((0,) * self.rank, k, Fraction(0))
                for k in self.torsion.keys()]
        if self.prufer is None:
            return base
        q, levels = self.prufer
        if prufer_level is None:
            prufer_level = levels
        prufer_level = min(prufer_level, levels)
        den = q ** prufer_level
        out = []
        for e in base:
            for num in range(den):
                out.append(self._el(e.u, e.t, Fraction(num, den)))
        return out

    def generators(self, prufer_level=None):
        """Canonical labeled generators: free, then torsion, then Pruefer."""
        out = []
        for i in range(self.rank):
            u = tuple(1 if j == i else 0 for j in range(self.rank))
            out.append((f"f{i + 1}",
                        self._el(u, self.torsion.identity_key(), Fraction(0))))
        zero_u = (0,) * self.rank
        if self.torsion.kind == "invariants":
            m = len(self.torsion.invariants)
            for i in range(m):
                key = tuple(1 if j == i else 0 for j in range(m))
                out.append((f"t{i + 1}", self._el(zero_u, key, Fraction(0))))
        else:
            gens = self._table_generators()
            for n, key in enumerate(gens):
                out.append((f"t{n + 1}", self._el(zero_u, key, Fraction(0))))
        if self.prufer is not None:
            q, levels = self.prufer
            level = levels if prufer_level is None else min(prufer_level, levels)
            out.append(("p", self._el(zero_u, self.torsion.identity_key(),
                                      Fraction(1, q ** level))))
        return out

    def _table_generators(self):
        """Greedy minimal generating keys for a table torsion part."""
        tor = self.torsion
        gens = []
        closure = {0}
        for key in range(1, tor.size):
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
                    stack.append(tor.mul_key(x, g))
                    stack.append(tor.mul_key(x, tor.inv_key(g)))
            if len(closure) == tor.size:
                break
        return gens

    # --- structure -----------------------------------------------------------

    def commutator_subgroup(self):
        """G' as an explicit SubgroupRecord inside this group."""
        zero_u = (0,) * self.rank
        if self.torsion.kind == "invariants":
            gen_key = self._target_multiple(self.pairing_content)
            gen = self._el(zero_u, gen_key, Fraction(0))
            order = self.torsion.order_key(gen_key)
            elements = [self.power(gen, k) for k in range(order)]
            gens = [] if order == 1 else [gen]
            return SubgroupRecord(self, elements, gens, note="cyclic")
        # direct product with a table group: G' = W'
        tor = self.torsion
        comms = {tor.mul_key(tor.mul_key(tor.inv_key(a), tor.inv_key(b)),
                             tor.mul_key(a, b))
                 for a in tor.keys() for b in tor.keys()}
        closure = {0}
        frontier = [0]
        while frontier:
            nxt = []
            for x in frontier:
                for c in comms:
                    y = tor.mul_key(x, c)
                    if y not in closure:
                        closure.add(y)
                        nxt.append(y)
            frontier = nxt
        elements = [self._el(zero_u, k, Fraction(0)) for k in sorted(closure)]
        gens = [self._el(zero_u, k, Fraction(0))
                for k in sorted(comms - {0})]
        return SubgroupRecord(self, elements, gens)

    def center_contains(self, el):
        self._check(el)
        if self.torsion.kind == "table":
            tor = self.torsion
            return all(tor.mul_key(el.t, w) == tor.mul_key(w, el.t)
                       for w in tor.keys())
        if self.pairing_matrix is None:
            return True
        L = self.pairing_order
        M = self.pairing_matrix
        for i in range(self.rank):
            w = sum(M[i][j] * el.u[j] for j in range(i + 1, self.rank)) \
                - sum(M[j][i] * el.u[j] for j in range(i))
            if w % L != 0:
                return False
        return True

    def torsion_is_central(self):
        """True when every torsion element is central."""
        if self.torsion.kind == "invariants":
            return True  # torsion never meets the pairing, free part commutes
        zero_u = (0,) * self.rank
        for k in self.torsion.keys():
            if not self.center_contains(self._el(zero_u, k, Fraction(0))):
                return False
        return True

    def is_fc(self):
        """(True, certificate): every group in the family is FC."""
        if self.torsion.kind == "table":
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

    def coset_system(self, sub):
        """Cosets modulo sub = ("torsion",) or ("cyclic", a) for torsion a."""
        if sub == ("torsion",) or sub == "torsion":
            return _TorsionCosets(self)
        if isinstance(sub, tuple) and len(sub) == 2 and sub[0] == "cyclic":
            a = sub[1]
            self._check(a)
            if self.element_order(a) == math.inf:
                raise InfiniteIndexUnsupported(
                    "cyclic coset system needs a torsion element")
            if a.s != 0:
                raise InfiniteIndexUnsupported(
                    "cyclic coset system over a Pruefer coordinate "
                    "is not supported")
            return _CyclicCosets(self, a)
        raise InfiniteIndexUnsupported(
            "only the torsion subgroup and torsion cyclic subgroups "
            "support coset systems")

    # --- JSON ---------------------------------------------------------------

    def element_to_json(self, el):
        self._check(el)
        if self.json_kind == "cayley":
            return self.torsion.key_to_json(el.t)
        obj = {"u": list(el.u), "a": self.torsion.key_to_json(el.t)}
        if el.s:
            obj["prufer"] = f"{el.s.numerator}/{el.s.denominator}"
        return obj

    def element_from_json(self, obj):
        if self.json_kind == "cayley":
            return self._el((), self.torsion.key_from_json(obj), Fraction(0))
        if not isinstance(obj, dict) or "u" not in obj or "a" not in obj:
            raise InstanceFormatError(
                f"element must be {{'u': [...], 'a': ...}}, got {obj!r}")
        s = 0
        if "prufer" in obj:
            try:
                s = Fraction(obj["prufer"])
            except (ValueError, ZeroDivisionError) as exc:
                raise InstanceFormatError(
                    f"bad Pruefer coordinate {obj['prufer']!r}") from exc
        return self.element(obj["u"], self.torsion.key_from_json(obj["a"]), s)


class _TorsionCosets:
    """Cosets of t(G): the quotient is the free abelian part Z^rank."""

    def __init__(self, group):
        self.group = group
        self.subgroup_kind = "torsion"
        self.quotient = Group(group.rank, InvariantsTorsion(()),
                              json_kind="central-extension")

    def project(self, el):
        self.group._check(el)
        return self.quotient._el(el.u, (), Fraction(0))

    def rep(self, h):
        self.quotient._check(h)
        return self.group._el(h.u, self.group.torsion.identity_key(),
                              Fraction(0))

    def factor(self, el):
        """el = rep(h) * t with t in t(G); returns (h, t)."""
        h = self.project(el)
        t = self.group.mul(self.group.inv(self.rep(h)), el)
        return h, t


class _CyclicCosets:
    """Cosets of a central-in-torsion cyclic subgroup <a>, a torsion."""

    def __init__(self, group, a):
        self.group = group
        self.a = a
        self.subgroup_kind = "cyclic"
        self.sub_order = group.element_order(a)
        self.a_powers = [group.power(a, k) for k in range(self.sub_order)]
        if group.torsion.kind == "invariants":
            self._init_invariants()
        else:
            self._init_table()

    def _init_invariants(self):
        group = self.group
        inv = group.torsion.invariants
        m = len(inv)
        if m == 0:
            raise InfiniteIndexUnsupported("trivial torsion has no quotient")
        rows = [[inv[i] if j == i else 0 for j in range(m)] for i in range(m)]
        rows.append(list(self.a.t))
        diag, _, V, Vinv = smith_normal_form(rows)
        keep = [t for t in range(m) if t < len(diag) and diag[t] > 1]
        self._V = V
        self._Vinv = Vinv
        self._diag = diag
        self._keep = keep
        new_inv = tuple(diag[t] for t in keep)
        target = None
        matrix = group.pairing_matrix
        if matrix is not None:
            target = self._project_key(group.pairing_target)
            if all(x == 0 for x in target):
                matrix, target = None, None
        self.quotient = Group(group.rank,
                              InvariantsTorsion(new_inv),
                              pairing_matrix=matrix,
                              pairing_target=target,
                              prufer=group.prufer)

    def _project_key(self, key):
        m = len(self.group.torsion.invariants)
        V = self._V
        y = [sum(key[i] * V[i][t] for i in range(m)) for t in range(m)]
        return tuple(y[t] % self._diag[t] for t in self._keep)

    def _lift_key(self, qkey):
        m = len(self.group.torsion.invariants)
        y = [0] * m
        for pos, t in enumerate(self._keep):
            y[t] = qkey[pos]
        Vinv = self._Vinv
        x = tuple(sum(y[t] * Vinv[t][i] for t in range(m)) for i in range(m))
        return self.group.torsion.normalize(x)

    def _init_table(self):
        group = self.group
        tor = group.torsion
        powers = {p.t for p in self.a_powers}
        for w in tor.keys():
            for p in powers:
                conj = tor.mul_key(tor.mul_key(tor.inv_key(w), p), w)
                if conj not in powers:
                    raise InfiniteIndexUnsupported(
                        "cyclic coset system needs a normal subgroup")
        reps = []
        seen = set()
        for w in tor.keys():
            if w in seen:
                continue
            coset = sorted(tor.mul_key(w, p) for p in powers)
            seen.update(coset)
            reps.append(coset[0])
        rep_index = {}
        for i, r in enumerate(reps):
            for p in powers:
                rep_index[tor.mul_key(r, p)] = i
        table = [[rep_index[tor.mul_key(reps[i], reps[j])]
                  for j in range(len(reps))] for i in range(len(reps))]
        self._reps = reps
        self._rep_index = rep_index
        self.quotient = Group(group.rank, TableTorsion(table),
                              json_kind="cayley" if group.rank == 0
                              else "central-extension")

    def project(self, el):
        self.group._check(el)
        if self.group.torsion.kind == "invariants":
            return self.quotient._el(el.u, self._project_key(el.t), el.s)
        return self.quotient._el(el.u, self._rep_index[el.t], el.s)

    def rep(self, h):
        """The coset representative with the least encoding."""
        self.quotient._check(h)
        if self.group.torsion.kind == "invariants":
            base = self.group._el(h.u, self._lift_key(h.t), h.s)
        else:
            base = self.group._el(h.u, self._reps[h.t], h.s)
        best = min((self.group.mul(base, p) for p in self.a_powers),
                   key=lambda e: e.sort_key())
        return best

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
    """
    if not isinstance(obj, dict) or "kind" not in obj:
        raise InstanceFormatError(f"group spec must have a 'kind': {obj!r}")
    kind = obj["kind"]
    if kind == "cayley":
        if "table" not in obj:
            raise InstanceFormatError("cayley group spec needs a 'table'")
        return Group(0, TableTorsion(obj["table"]), json_kind="cayley")
    if kind != "central-extension":
        raise InstanceFormatError(f"unknown group kind {kind!r}")
    (rank,) = int_entries([obj.get("rank")], "central-extension 'rank'")
    if rank < 0:
        raise InstanceFormatError("central-extension needs int 'rank' >= 0")
    tor_spec = obj.get("torsion")
    if not isinstance(tor_spec, dict):
        raise InstanceFormatError("central-extension needs a 'torsion' object")
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
        matrix = pairing["matrix"]
        if "target_index" in pairing:
            (idx,) = int_entries([pairing["target_index"]],
                                 "pairing target_index")
            if torsion.kind != "invariants":
                raise GroupValidationError(
                    "pairing requires abelian invariants torsion")
            m = len(torsion.invariants)
            if not 0 <= idx < m:
                raise InstanceFormatError(
                    f"pairing target_index {idx!r} out of range")
            target = tuple(1 if i == idx else 0 for i in range(m))
        elif "target_vector" in pairing:
            target = tuple(pairing["target_vector"])
        else:
            raise InstanceFormatError(
                "pairing needs 'target_index' or 'target_vector'")
    prufer = None
    if "prufer" in obj and obj["prufer"] is not None:
        ps = obj["prufer"]
        if not isinstance(ps, dict) or "q" not in ps or "levels" not in ps:
            raise InstanceFormatError("prufer spec needs 'q' and 'levels'")
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
        target = group.pairing_target
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
