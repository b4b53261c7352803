"""The twisted group algebra and its sparse elements.

Elements are finite K-linear combinations of basis units u_g, one per group
element, multiplied through the cocycle: u_g u_h = lambda(g, h) u_{gh}.
Everything stays sparse; only operations that genuinely need a dense view
(inversion through the regular representation) build matrices, and those
work inside a finite subgroup.

`AlgebraElement.terms` maps each group element of the support to its
coefficient as a canonical raw field value (see `fields`), and every
product, sum and inverse computes on raw values.  Scalars cross only at
the API: `element`, `scalar` and `scale` take them (or ints), and `coeff`
returns one.
"""

import operator

from . import linalg
from .cocycles import (
    commutator_scalar,
    generator_box,
    trivial_cocycle,
    validate_cocycle,
)
from .errors import (
    AlgebraMismatch,
    CharacteristicDividesOrder,
    CharacteristicEqualsQ,
    ConditionsNotMet,
    DivisionByZero,
    FieldMismatch,
    InfiniteOrder,
    InvalidCocycle,
    NotNormalized,
    NotUnitError,
    SubgroupTooLarge,
    SupportNotInSubgroup,
    certify,
)
from .fields import Scalar, power
from .groups import finite_subgroup


class AlgebraElement:
    __slots__ = ("algebra", "terms")

    def __init__(self, algebra, terms):
        self.algebra = algebra
        zero = algebra.field.raw_zero
        self.terms = {g: c for g, c in terms.items() if c != zero}

    def _check(self, other):
        if other.algebra is not self.algebra:
            raise AlgebraMismatch("elements of different algebras")

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.algebra is other.algebra and self.terms == other.terms

    __hash__ = None

    def __add__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        self._check(other)
        field = self.algebra.field
        add, reduce, zero = field.raw_add, field.reduce, field.raw_zero
        out = dict(self.terms)
        for g, c in other.terms.items():
            out[g] = reduce(add(out.get(g, zero), c))
        return AlgebraElement(self.algebra, out)

    def __neg__(self):
        field = self.algebra.field
        return AlgebraElement(self.algebra, {
            g: field.reduce(field.raw_neg(c)) for g, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self + (-other)

    def scale(self, s):
        field = self.algebra.field
        mul, reduce = field.raw_mul, field.reduce
        s = self.algebra._raw_value(s)
        return AlgebraElement(self.algebra, {
            g: reduce(mul(c, s)) for g, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (Scalar, int)):
            return self.scale(other)
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        self._check(other)
        alg = self.algebra
        field = alg.field
        add, mul, zero = field.raw_add, field.raw_mul, field.raw_zero
        lam, gmul = alg.cocycle.raw, alg.group.mul
        out = {}
        for g, a in self.terms.items():
            for h, b in other.terms.items():
                gh = gmul(g, h)
                out[gh] = add(out.get(gh, zero), mul(mul(a, b), lam(g, h)))
        return AlgebraElement(alg, {g: field.reduce(c)
                                    for g, c in out.items()})

    def __rmul__(self, other):
        if isinstance(other, (Scalar, int)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("algebra elements support nonnegative powers only")
        return power(self, n, operator.mul, self.algebra.one)

    def coeff(self, g):
        """The coefficient of u_g, as a Scalar."""
        field = self.algebra.field
        return Scalar(field, self.terms.get(g, field.raw_zero))

    def support(self):
        return sorted(self.terms, key=lambda g: g.sort_key())

    def is_idempotent(self):
        return self * self == self

    def commutes_with(self, other):
        return self * other == other * self

    def to_json(self):
        group = self.algebra.group
        field = self.algebra.field
        return [{"g": group.element_to_json(g),
                 "c": field.value_to_json(self.terms[g])}
                for g in self.support()]

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for g in self.support():
            bits.append(f"{self.terms[g]!r}*u[{g!r}]")
        return " + ".join(bits)


class TwistedGroupAlgebra:
    def __init__(self, group, field, cocycle=None, validate=True):
        if cocycle is None:
            cocycle = trivial_cocycle(group, field)
        if cocycle.group is not group:
            raise AlgebraMismatch("cocycle was built over a different group")
        if cocycle.field != field:
            raise FieldMismatch("cocycle scalars come from a different field")
        if not cocycle.is_normalized:
            raise NotNormalized(
                "the algebra needs lambda(1,g) = lambda(g,1) = 1")
        if validate:
            res = validate_cocycle(group, cocycle)
            if not res.valid:
                raise InvalidCocycle(res.counterexample.describe(),
                                     res.counterexample)
        self.group = group
        self.field = field
        self.cocycle = cocycle
        self.zero = AlgebraElement(self, {})
        self.one = AlgebraElement(self, {group.identity: field.raw_one})

    def _raw_value(self, s):
        """The raw value of a Scalar of the field or of an int."""
        if isinstance(s, int):
            return self.field.from_int(s).value
        if s.field != self.field:
            raise FieldMismatch("a scalar from another field")
        return s.value

    def basis_unit(self, g):
        self.group._check(g)
        return AlgebraElement(self, {g: self.field.raw_one})

    def scalar(self, s):
        return AlgebraElement(self, {self.group.identity: self._raw_value(s)})

    def element(self, pairs):
        field = self.field
        add, reduce, zero = field.raw_add, field.reduce, field.raw_zero
        terms = {}
        for g, c in pairs:
            self.group._check(g)
            terms[g] = reduce(add(terms.get(g, zero), self._raw_value(c)))
        return AlgebraElement(self, terms)

    def basis_unit_inverse(self, g):
        """u_g^(-1) = lambda(g^-1, g)^(-1) u_{g^-1}."""
        gi = self.group.inv(g)
        return AlgebraElement(
            self, {gi: self.field.raw_inv(self.cocycle.raw(gi, g))})

    def basis_commutator(self, a, b):
        """[u_a, u_b] = u_a^-1 u_b^-1 u_a u_b, as a single scaled unit."""
        c = commutator_scalar(self.cocycle, a, b)
        return AlgebraElement(self, {self.group.commutator(a, b): c.value})

    def is_central(self, x):
        """(True, None), or (False, g) for the first u_g of the radius-1 box
        that x does not commute with.  Testing the free and torsion
        generator units first is exact: up to scalars, they and their
        inverses multiply to every u_g with Pruefer coordinate 0, and Pruefer
        units are central.  The box is scanned only for the witness."""
        if all(x.commutes_with(self.basis_unit(g))
               for _, g in self.group.generators() if not g.s):
            return True, None
        return next((False, g) for g in generator_box(self.group, 1)
                    if not x.commutes_with(self.basis_unit(g)))


# --- inversion -----------------------------------------------------------------


class InversionResult:
    def __init__(self, status, inverse, strategy, certificate):
        self.status = status            # "unit" | "not-unit" | "unknown"
        self.inverse = inverse          # AlgebraElement | None
        self.strategy = strategy
        self.certificate = certificate

    @property
    def is_unit(self):
        return self.status == "unit"


def _verified_unit(algebra, x, y, strategy, certificate):
    certify(x * y == algebra.one and y * x == algebra.one,
            "a verified inverse must be two-sided")
    return InversionResult("unit", y, strategy, certificate)


def try_invert(algebra, x, decomposition=None):
    """Decide invertibility of x where the supported strategies apply.

    Unit results always carry an inverse that has been verified two-sided.
    Not-unit results carry a sound certificate (a zero annihilating product,
    or a singular regular representation over the finite subgroup generated
    by the support, which rules out an inverse in the whole algebra since
    the algebra is free as a module over that subalgebra).  Anything else
    comes back unknown rather than guessed.
    """
    if not x:
        return InversionResult("not-unit", None, "zero", "the zero element")
    field = algebra.field
    if len(x.terms) == 1:
        (g, c), = x.terms.items()
        gi = algebra.group.inv(g)
        lam = field.reduce(field.raw_mul(c, algebra.cocycle.raw(gi, g)))
        y = AlgebraElement(algebra, {gi: field.raw_inv(lam)})
        return _verified_unit(algebra, x, y, "monomial",
                              "scaled basis units invert term by term")
    try:
        W = finite_subgroup(algebra.group, list(x.terms))
    except (InfiniteOrder, SubgroupTooLarge):
        W = None
    if W is not None:
        M = left_regular_matrix(algebra, W, x)
        rhs = [field.raw_zero] * len(W)
        rhs[W.index_of[algebra.group.identity]] = field.raw_one
        sol = linalg.solve(field, M, rhs)
        if sol is None:
            return InversionResult(
                "not-unit", None, "regular-representation",
                f"left multiplication by x is singular on the group algebra "
                f"of the {len(W)}-element subgroup generated by the support; "
                f"the full algebra is a free module over it, so x has no "
                f"right inverse anywhere")
        y = AlgebraElement(algebra, dict(zip(W.elements, sol)))
        return _verified_unit(algebra, x, y, "regular-representation",
                              "solved x * y = 1 in the support subalgebra")
    if decomposition is not None:
        return _invert_by_decomposition(algebra, x, decomposition)
    return InversionResult(
        "unknown", None, "none",
        "support generates an infinite subgroup and no decomposition given")


def _corner_inverse(algebra, e, y):
    """z with y z = z y = e, for y = e x of the shape w u_c with w a unit
    of the corner of e in the torsion subalgebra and c = (u, 0, 0), or
    None.

    Every support element of y must have the one free part u, so w =
    y u_c^-1 has free part 0 on its support and lies in the torsion
    subalgebra.  The inverse v of w + 1 - e is read off the regular
    representation there, and z = u_c^-1 v e.  As y = e y, w = e w, so
    w v = e (w + 1 - e) v = e and y z = w u_c u_c^-1 v e = e.  Both
    y z = e and z y = e are checked, and None is returned unless they
    hold.
    """
    free = {g.u for g in y.terms}
    if len(free) != 1:
        return None
    (u,) = free
    u_c_inv = algebra.basis_unit_inverse(algebra.group.from_key(0, u))
    w = y * u_c_inv
    res = try_invert(algebra, w + algebra.one - e)
    if not res.is_unit:
        return None
    z = u_c_inv * res.inverse * e
    return z if y * z == e and z * y == e else None


def _invert_by_decomposition(algebra, x, idempotents):
    total = algebra.zero
    for e in idempotents:
        if not e:
            raise ConditionsNotMet("zero idempotent in the decomposition")
        if not e.is_idempotent():
            raise ConditionsNotMet("decomposition entries must be idempotent")
        total = total + e
    if total != algebra.one:
        raise ConditionsNotMet("decomposition idempotents must sum to 1")
    pieces = []
    for e in idempotents:
        y = e * x
        if not y:
            return InversionResult(
                "not-unit", None, "decomposition",
                "e * x = 0 for a nonzero idempotent e, so a two-sided "
                "inverse z would force e = e * x * z = 0")
        if x * e != y:
            return InversionResult(
                "unknown", None, "decomposition",
                "x does not commute with the decomposition")
        z = _corner_inverse(algebra, e, y)
        if z is None:
            return InversionResult(
                "unknown", None, "decomposition",
                "a component of x is not a unit of its corner times one "
                "coset unit u_c")
        pieces.append(z)
    # The pieces always assemble, orthogonal entries or not, so no result
    # here is unknown.  `_corner_inverse` returns z = u_c^-1 v e with
    # y z = z y = e, so z = z e = z (y z) = (z y) z = e z.  As y = e x
    # = x e, that gives x z = x e z = y z = e and z x = z e x = z y = e;
    # the sum Z of the pieces has x Z = Z x = (sum of the e) = 1.  The
    # certificate of `_verified_unit` still checks it.
    z = algebra.zero
    for p in pieces:
        z = z + p
    return _verified_unit(algebra, x, z, "decomposition",
                          "componentwise corner inverses, verified")


def unit_commutator(algebra, x, y):
    """x^-1 y^-1 x y, with the inverses `try_invert` certifies."""
    inverses = []
    for name, z in (("x", x), ("y", y)):
        res = try_invert(algebra, z)
        if not res.is_unit:
            raise NotUnitError(f"{name} is not a unit: {res.certificate}")
        inverses.append(res.inverse)
    return inverses[0] * inverses[1] * x * y


# --- subgroup-local helpers -----------------------------------------------------


def left_regular_matrix(algebra, subgroup, x):
    """Raw matrix of y -> x * y on the basis units of a finite subgroup."""
    for g in x.terms:
        if g not in subgroup:
            raise SupportNotInSubgroup(f"{g!r} lies outside the subgroup")
    n = len(subgroup)
    field = algebra.field
    add, mul = field.raw_add, field.raw_mul
    M = [[field.raw_zero] * n for _ in range(n)]
    lam, gmul = algebra.cocycle.raw, algebra.group.mul
    for g, a in x.terms.items():
        for j, w in enumerate(subgroup.elements):
            i = subgroup.index_of[gmul(g, w)]
            M[i][j] = add(M[i][j], mul(a, lam(g, w)))
    return [list(map(field.reduce, row)) for row in M]


def averaging_idempotent(algebra, elements, sub=None):
    """(1/|H|) sum of the units over a finite subgroup H.

    Raises CharacteristicDividesOrder when |H| is not invertible in K and
    ConditionsNotMet when the average fails to be idempotent (the units
    must multiply as H does), squared in the coordinates of ``sub`` when
    given, a finite subalgebra holding H.
    """
    n = len(elements)
    try:
        inv_n = algebra.field.from_int(n).inv()
    except DivisionByZero:
        raise CharacteristicDividesOrder(
            f"|H| = {n} vanishes in characteristic "
            f"{algebra.field.characteristic}")
    x = algebra.element([(h, inv_n) for h in elements])
    if not (sub.fd.is_idempotent(sub.from_ambient(x)) if sub
            else x.is_idempotent()):
        raise ConditionsNotMet(
            "the weighted average over H is not idempotent")
    return x


def prufer_idempotent_chain(algebra, levels, sub=None):
    """Averaging idempotents e_j over the level-j cyclic subgroups of the
    Pruefer part, certified in ``sub`` when given (see
    `averaging_idempotent`); e_j e_{j+1} = e_{j+1} = e_{j+1} e_j."""
    group = algebra.group
    if group.prufer is None:
        raise ConditionsNotMet("the group has no Pruefer component")
    q, max_levels = group.prufer
    if algebra.field.characteristic == q:
        raise CharacteristicEqualsQ(
            f"char K = {q} kills the averaging denominators")
    chain = []
    for j in range(1, min(levels, max_levels) + 1):
        step = q ** (max_levels - j)
        els = [group.from_key(0, s=s)
               for s in range(0, group.prufer_modulus, step)]
        chain.append(averaging_idempotent(algebra, els, sub=sub))
    return chain
