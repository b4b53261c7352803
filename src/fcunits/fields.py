"""Exact coefficient arithmetic: GF(p), GF(p^k) with explicit modulus, and Q,
and polynomials over them.

A field element is a canonical raw value: an int in [0, q) over GF(q), or
a Fraction.  All arithmetic is exact; there are no floats anywhere in this
package.

Every field has one set of operators, on raw values: `raw_add`, `raw_sub`,
`raw_mul`, `raw_neg` and `raw_inv`, the constants `raw_zero` and
`raw_one`, and `reduce`.  A computation combines raw values with the first
four and applies `reduce` once to each value it hands back, which makes
that value canonical again.  Over GF(p) the four are plain int operations
and `reduce` is the one `% p`, the C callable `p.__rmod__`, so a long sum
of products is reduced once; over GF(p^k) and Q they are exact and
`reduce` is the identity.
`raw_inv`, any test against `raw_zero`, and every operator over GF(p^k)
take canonical values.  A `Scalar` wraps one canonical value where it
crosses the API and JSON boundary; its operators are `reduce` of the raw
ones.  An int handed to `from_int` or `scalar` means an integer, n * 1.

Polynomials over a field are tuples of its canonical raw values, constant
coefficient first, trailing zeros stripped.  The `poly_*` routines compute
on them with the raw ops and one `reduce` per output coefficient, for every
field alike.  GF(p^k) is built on them over GF(p), modulo a monic
modulus that `poly_irreducible` checks.  The raw value of an element is
its code: the k coefficients of its residue, constant first, read as the
base-p digits of an int, most significant first, so code order is
coefficient order and `elements()` order.  JSON and `repr` keep the
coefficient lists.  The operators read logarithm tables and Zech's
logarithms log(1 + g^d) (K. Huber, "Some comments on Zech's logarithms",
IEEE Trans. IT 36, 1990): the first one a field object is asked for walks
the powers of a generator g of its multiplicative group, certifies the
walk and the Zech list on the polynomial layer, and installs all five on
the object; then a product is exp[log a + log b] and a sum a + b =
a (1 + b / a) is exp[log a + zech[log b - log a]].  Rational polynomials
are factored on the same layer, over Z by the modular route
(`poly_factor_rational`), which splits modulo p by the distinct-degree
splitting (`_distinct_degree`) that tests irreducibility over every
finite field.  Roots are read off one evaluation at all q elements at
once (`poly_roots`), Horner's rule on whole vectors over the nonzero
coefficients only: for the sparse minimal polynomials the splits make it
measured faster than gcd(a, x^q - x) and a degree-1 split, up to q = 2^16.

Every binary power in the package, of polynomials modulo m, scalars,
algebra vectors and elements, and group elements, is one call of
`power`, left-to-right square-and-multiply from its argument.

Finite fields are capped at 2^16 elements and extension degree 8, which
keeps every exhaustive search (root finding, discrete logs, unit scans)
cheap and predictable.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
from fractions import Fraction

from .errors import (
    DivisionByZero,
    FieldMismatch,
    InstanceFormatError,
    NonPrimeCharacteristic,
    ReducibleModulus,
    UnsupportedRationalDegree,
    certify,
    int_entries,
    known_keys,
)

MAX_FIELD_SIZE = 1 << 16
MAX_EXTENSION_DEGREE = 8


def is_prime(n):
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def prime_factors(n):
    """The distinct primes dividing n >= 1, in increasing order."""
    primes = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            primes.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        primes.append(n)
    return primes


# --- polynomials on raw values ------------------------------------------------
# A polynomial over F is a tuple of canonical raw values of F, constant
# coefficient first, trailing zeros stripped; zero is ().  The routines use
# only F's raw ops and `reduce`, so one loop body serves GF(p), GF(p^k) and
# Q, and they reduce once per output coefficient: over GF(p) a product
# coefficient is one `% p` of a plain int sum, and a division reduces its
# leading coefficient once per step and each remainder coefficient once at
# the end.


def poly_trim(F, a):
    n = len(a)
    while n and a[n - 1] == F.raw_zero:
        n -= 1
    return tuple(a[:n])


def poly_add(F, a, b):
    pairs = itertools.zip_longest(a, b, fillvalue=F.raw_zero)
    return poly_trim(F, [F.reduce(F.raw_add(x, y)) for x, y in pairs])


def poly_sub(F, a, b):
    pairs = itertools.zip_longest(a, b, fillvalue=F.raw_zero)
    return poly_trim(F, [F.reduce(F.raw_sub(x, y)) for x, y in pairs])


def poly_mul(F, a, b):
    if not a or not b:
        return ()
    add, mul, zero = F.raw_add, F.raw_mul, F.raw_zero
    out = [zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x != zero:
            for j, y in enumerate(b, i):
                out[j] = add(out[j], mul(x, y))
    return poly_trim(F, list(map(F.reduce, out)))


def poly_divmod(F, a, b):
    """Quotient and remainder of a by a nonzero b."""
    if not b:
        raise DivisionByZero("polynomial division by zero")
    db = len(b) - 1
    if len(a) <= db:
        return (), tuple(a)
    sub, mul, reduce, zero = F.raw_sub, F.raw_mul, F.reduce, F.raw_zero
    inv_lead = F.raw_inv(b[-1])
    r = list(a)
    q = [zero] * (len(r) - db)
    for top in range(len(r) - 1, db - 1, -1):
        c = reduce(mul(r[top], inv_lead))
        if c != zero:
            shift = top - db
            q[shift] = c
            for i in range(db):
                r[shift + i] = sub(r[shift + i], mul(c, b[i]))
    return tuple(q), poly_trim(F, list(map(reduce, r[:db])))


def power(x, n, mul, one):
    """x^n for n >= 0 under the product `mul`, `one` when n = 0: left-to-
    right square-and-multiply starting from x (von zur Gathen and Gerhard,
    *Modern Computer Algebra*, ch. 4), the one binary-powering loop of
    the package."""
    if n == 0:
        return one
    out = x
    for bit in bin(n)[3:]:
        out = mul(out, out)
        if bit == "1":
            out = mul(out, x)
    return out


def poly_powmod(F, a, n, m):
    """a^n modulo m, for n >= 0 and m of positive degree."""
    return power(poly_divmod(F, a, m)[1], n,
                 lambda x, y: poly_divmod(F, poly_mul(F, x, y), m)[1],
                 (F.raw_one,))


def poly_gcd(F, a, b):
    """The monic greatest common divisor of a and b, not both zero."""
    while b:
        a, b = b, poly_divmod(F, a, b)[1]
    c = F.raw_inv(a[-1])
    return tuple(F.reduce(F.raw_mul(x, c)) for x in a)


def poly_inv_mod(F, a, m):
    """The inverse of a modulo m, of degree below deg m, or None when a and
    m share a factor.  Half-extended Euclid: only the cofactor of a is
    carried, since s * a = r (mod m) is all an inverse needs."""
    r0, r1 = m, poly_divmod(F, a, m)[1]
    s0, s1 = (), (F.raw_one,)
    while len(r1) > 1:
        q, r = poly_divmod(F, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, poly_sub(F, s0, poly_mul(F, q, s1))
    if not r1:
        return None
    c = F.raw_inv(r1[0])
    return tuple(F.reduce(F.raw_mul(x, c)) for x in s1)


def _frobenius_rows(F, f):
    """The rows x^(q j) mod f, j < deg f, of the F-linear map a -> a^q
    modulo a monic f over a finite field F of size q, each as a tuple of
    deg f coefficients: x^q mod f by `poly_powmod`, then each row the one
    before times x^q mod f."""
    n, zero = len(f) - 1, F.raw_zero
    xq = poly_powmod(F, (zero, F.raw_one), F.size(), f)
    rows = [(F.raw_one,) + (zero,) * (n - 1)]
    for _ in range(n - 1):
        r = poly_divmod(F, poly_mul(F, rows[-1], xq), f)[1]
        rows.append(r + (zero,) * (n - len(r)))
    return rows


def _frobenius(F, rows, a):
    """a^q modulo the f of `rows`, for a of degree below deg f."""
    add, mul, zero = F.raw_add, F.raw_mul, F.raw_zero
    out = [zero] * len(rows)
    for c, row in zip(a, rows):
        if c != zero:
            out = [add(x, mul(c, y)) for x, y in zip(out, row)]
    return poly_trim(F, list(map(F.reduce, out)))


def _distinct_degree(F, f):
    """[(d, g_d)] for a monic f over a finite field F of size q, x^(q^d)
    run through the Frobenius rows of f: for a squarefree f, g_d is the
    product of the irreducible factors of f of degree d."""
    rows, x = _frobenius_rows(F, f), (F.raw_zero, F.raw_one)
    h, g, out, d = x, f, [], 0
    while 2 * (d + 1) <= len(g) - 1:
        d += 1
        h = _frobenius(F, rows, h)
        u = poly_gcd(F, g, poly_sub(F, h, x))
        if len(u) > 1:
            out.append((d, u))
            g = poly_divmod(F, g, u)[0]
    if len(g) > 1:
        out.append((len(g) - 1, g))
    return out


def poly_irreducible(F, m):
    """Whether m is irreducible over the finite field F: when splitting m
    made monic by distinct degrees finds one factor of full degree (a
    reducible m, squarefree or not, has a factor of degree <= deg m / 2,
    found at that step)."""
    n = len(m) - 1
    c = F.raw_inv(m[-1])
    m = tuple(F.reduce(F.raw_mul(x, c)) for x in m)
    return _distinct_degree(F, m) == [(n, m)]


def poly_roots(F, a):
    """The roots of a nonzero polynomial in a finite field F, in the order
    of F.elements(): Horner's rule over the nonzero coefficients of a, on
    the vector of its values at every raw value at once, where a gap of g
    degrees is one elementwise product by `F.power_vector(g)`."""
    add, mul, reduce, zero = F.raw_add, F.raw_mul, F.reduce, F.raw_zero
    terms = [(i, c) for i, c in enumerate(a) if c != zero]
    top, lead = terms.pop()
    values = [lead] * F.size()
    for i, c in reversed(terms):
        values = list(map(reduce, map(add, map(
            mul, values, F.power_vector(top - i)), itertools.repeat(c))))
        top = i
    if top:
        values = list(map(reduce, map(mul, values, F.power_vector(top))))
    return list(itertools.compress(range(F.size()), map(zero.__eq__, values)))


# --- factoring over Q -----------------------------------------------------------
# A rational polynomial is a constant times primitive integer polynomials.
# `poly_factor_rational` clears denominators, splits off the squarefree
# parts by Yun's algorithm, and factors each part by the modular route of
# H. Zassenhaus, "On Hensel factorization I", J. Number Theory 1 (1969):
# factor over GF(p) for a small prime p by distinct- and equal-degree
# splitting (D. Cantor and H. Zassenhaus, Math. Comp. 36, 1981), Hensel-lift
# the factors modulo p^(2^k) past the Mignotte bound, and recombine subsets
# of them by trial division.  Integer polynomials are int tuples in the
# layout above; `_Residues(m)` is Z/p^(2^k) and `_ZZ` is Z on the raw
# interface, so the poly_* routines run over them as over GF(p).

_FACTOR_PRIMES = 5      # good primes whose modular factor counts are compared


class _Residues:
    """Z/m with the raw ops the poly_* routines read.  m need not be prime
    as long as only unit leading coefficients are divided by."""

    raw_add = staticmethod(operator.add)
    raw_sub = staticmethod(operator.sub)
    raw_mul = staticmethod(operator.mul)
    raw_zero = 0
    raw_one = 1

    def __init__(self, m):
        self.m = m

    def reduce(self, a):
        return a % self.m

    def raw_inv(self, a):
        return pow(a, -1, self.m)


class _Integers(_Residues):
    """Z itself, for sums, products and trims; it has no division."""

    def __init__(self):
        super().__init__(0)

    def reduce(self, a):
        return a


_ZZ = _Integers()


def _zz_primitive(a):
    """A nonzero integer polynomial over its content, with positive leading
    coefficient."""
    c = math.gcd(*a)
    if a[-1] < 0:
        c = -c
    return tuple(x // c for x in a)


def _zz_derivative(a):
    return tuple(i * x for i, x in enumerate(a))[1:]


def _zz_divide(a, b):
    """a / b over Z for a nonzero b, or None when b does not divide a."""
    db = len(b) - 1
    if len(a) <= db:
        return None if a else ()
    r = list(a)
    q = [0] * (len(a) - db)
    lead = b[-1]
    for top in range(len(a) - 1, db - 1, -1):
        c, rem = divmod(r[top], lead)
        if rem:
            return None
        if c:
            shift = top - db
            q[shift] = c
            for i, x in enumerate(b):
                r[shift + i] -= c * x
    return None if any(r) else tuple(q)


def _zz_gcd(a, b):
    """The primitive gcd with positive leading coefficient of a nonzero a
    and b, by the primitive remainder sequence: each pseudo-remainder
    lc(b)^(deg a - deg b + 1) a mod b is divided by its content."""
    a = _zz_primitive(a)
    if not b:
        return a
    b = _zz_primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        db, lead = len(b) - 1, b[-1]
        r = list(a)
        for top in range(len(r) - 1, db - 1, -1):
            c = r[top]
            r = [x * lead for x in r[:top]]
            for i in range(db):
                r[top - db + i] -= c * b[i]
        r = poly_trim(_ZZ, r)
        if not r:
            return b
        a, b = b, _zz_primitive(r)
    return (1,)


def _zz_squarefree(f):
    """Yun's algorithm on a primitive f of positive degree and leading
    coefficient: [(a_i, i)] with f = prod a_i^i, each a_i squarefree,
    primitive and of positive degree.  Every division is by a primitive
    divisor over Q, hence exact over Z (Gauss)."""
    df = _zz_derivative(f)
    g = _zz_gcd(f, df)
    b, c = _zz_divide(f, g), _zz_divide(df, g)
    out, i = [], 1
    while len(b) > 1:
        d = poly_sub(_ZZ, c, _zz_derivative(b))
        a = _zz_gcd(b, d)
        if len(a) > 1:
            out.append((a, i))
        b, c = _zz_divide(b, a), _zz_divide(d, a)
        i += 1
    return out


def _equal_degree(F, g, d, rng):
    """The monic irreducible factors of g, a monic product of distinct
    irreducibles of degree d over F = GF(p) for an odd p: a random a splits
    g at gcd(a^((p^d - 1) / 2) - 1, g) with probability about 1/2.  The
    power is (a^(1 + p + ... + p^(d-1)))^((p - 1) / 2), its first factor
    built by b -> b^p a on the Frobenius rows of g."""
    n, p = len(g) - 1, F.p
    if n == d:
        return [g]
    rows = _frobenius_rows(F, g)
    while True:
        a = poly_trim(F, [rng.randrange(p) for _ in range(n)])
        if len(a) < 2:
            continue
        b = a
        for _ in range(d - 1):
            b = poly_divmod(F, poly_mul(F, _frobenius(F, rows, b), a), g)[1]
        w = poly_powmod(F, b, (p - 1) // 2, g)
        u = poly_gcd(F, g, poly_sub(F, w, (1,)))
        if 1 < len(u) <= n:
            return (_equal_degree(F, u, d, rng)
                    + _equal_degree(F, poly_divmod(F, g, u)[0], d, rng))


def _hensel_step(R, f, g, h, s, t):
    """From f = g h and s g + t h = 1 modulo m, with h monic, deg s < deg h
    and deg t < deg g, the same four relations modulo m^2, over R = Z/m^2
    (von zur Gathen and Gerhard, Modern Computer Algebra, Alg. 15.10)."""
    e = poly_sub(R, f, poly_mul(R, g, h))
    q, r = poly_divmod(R, poly_mul(R, s, e), h)
    g = poly_add(R, g, poly_add(R, poly_mul(R, t, e), poly_mul(R, q, g)))
    h = poly_add(R, h, r)
    b = poly_sub(R, poly_add(R, poly_mul(R, s, g), poly_mul(R, t, h)), (1,))
    c, d = poly_divmod(R, poly_mul(R, s, b), h)
    s = poly_sub(R, s, d)
    t = poly_sub(R, t, poly_add(R, poly_mul(R, t, b), poly_mul(R, c, g)))
    return g, h, s, t


def _hensel_lift(p, k, f, factors):
    """Monic F_i with f = lc(f) prod F_i modulo p^(2^k) and F_i = factors[i]
    modulo p, for pairwise coprime monic factors of f modulo p.  The list
    is halved into f = g h, lifted k quadratic steps, and each half lifted
    on, so every level costs k steps."""
    M = p ** (2 ** k)
    if len(factors) == 1:
        c = pow(f[-1], -1, M)
        return [tuple(x * c % M for x in f)]
    P = _Residues(p)
    half = len(factors) // 2
    g = (f[-1] % p,)
    for a in factors[:half]:
        g = poly_mul(P, g, a)
    h = (1,)
    for a in factors[half:]:
        h = poly_mul(P, h, a)
    s = poly_inv_mod(P, g, h)
    t = poly_divmod(P, poly_sub(P, (1,), poly_mul(P, s, g)), h)[0]
    m = p
    for _ in range(k):
        m *= m
        g, h, s, t = _hensel_step(_Residues(m), f, g, h, s, t)
    return (_hensel_lift(p, k, g, factors[:half])
            + _hensel_lift(p, k, h, factors[half:]))


def _symmetric(c, M):
    c %= M
    return c - M if c > M // 2 else c


def _recombine(f, lifted, M, degrees):
    """The irreducible factors of a squarefree primitive f over Z from its
    monic factors F_i modulo M, which exceeds twice the Mignotte bound.

    A subset S stands for g = lc(f) prod_S F_i in symmetric residues.  When
    S belongs to a factor of f, g is lc(f) / lc(factor) times it, and M
    exceeds twice its 1-norm, so g(x) for x in 0, 1, -1 is read off exactly
    and divides lc(f) f(x).  Subsets are tried by size, skipped unless their
    degree is a bit of `degrees` and they pass those three tests, and kept
    when the primitive part of g divides f.  Once 2 |S| exceeds the number
    of factors left, what is left of f is irreducible."""
    R = _Residues(M)
    points = (0, 1, -1)
    at = [[sum(c * x ** j for j, c in enumerate(a)) % M for x in points]
          for a in lifted]
    found, left, size = [], list(range(len(lifted))), 1
    while 2 * size <= len(left):
        lead = f[-1]
        targets = [lead * sum(c * x ** j for j, c in enumerate(f))
                   for x in points]
        for subset in itertools.combinations(left, size):
            if not degrees >> sum(len(lifted[i]) - 1 for i in subset) & 1:
                continue
            for k, target in enumerate(targets):
                v = lead
                for i in subset:
                    v = v * at[i][k] % M
                v = _symmetric(v, M)
                if target % v if v else target:
                    break
            else:
                g = (lead,)
                for i in subset:
                    g = poly_mul(R, g, lifted[i])
                g = _zz_primitive(tuple(_symmetric(c, M) for c in g))
                quotient = _zz_divide(f, g)
                if quotient is not None:
                    found.append(g)
                    f = quotient
                    left = [i for i in left if i not in subset]
                    break
        else:
            size += 1
    found.append(f)
    return found


def _zz_factor_squarefree(f):
    """The irreducible factors of a squarefree primitive f of positive
    degree and leading coefficient.

    Up to `_FACTOR_PRIMES` odd primes that keep f squarefree of the same
    degree are tried; each one's factor degrees bound the degrees a factor
    over Z can have (the subset sums, a bit mask), and the prime with the
    fewest factors is split and lifted."""
    n = len(f) - 1
    if n == 1:
        return [f]
    degrees, best, tried, p = -1, None, 0, 1
    while tried < _FACTOR_PRIMES:
        p += 2
        if not is_prime(p) or f[-1] % p == 0:
            continue
        F = PrimeField(p)
        c = pow(f[-1], -1, p)
        fp = tuple(x * c % p for x in f)
        if len(poly_gcd(F, fp, poly_trim(F, [x % p for x in
                                             _zz_derivative(fp)]))) > 1:
            continue
        tried += 1
        parts = _distinct_degree(F, fp)
        count, sums = 0, 1
        for d, g in parts:
            for _ in range((len(g) - 1) // d):
                count += 1
                sums |= sums << d
        degrees &= sums
        if degrees == 1 | 1 << n:     # no factor degree between 0 and n
            return [f]
        if best is None or count < best[0]:
            best = (count, p, parts)
    _, p, parts = best
    F, rng = PrimeField(p), random.Random(p)
    modular = sorted(a for d, g in parts for a in _equal_degree(F, g, d, rng))
    # twice lc(f) times Mignotte's 2^n ||f||_2, ||f||_2 <= sqrt(n + 1) |f|_max
    bound = 2 * (math.isqrt(n + 1) + 1) * 2 ** n * max(map(abs, f)) * f[-1]
    k, M = 0, p
    while M <= bound:
        k, M = k + 1, M * M
    return _recombine(f, _hensel_lift(p, k, f, modular), M, degrees)


def poly_factor_rational(a):
    """The factorization over Q of a polynomial with Fraction or int
    coefficients, constant first: [(f, e)] with f a primitive irreducible
    integer polynomial of positive leading coefficient (an int tuple,
    constant first) and e its multiplicity.  The list is sorted by degree,
    then multiplicity, then coefficients leading first, which is the order
    of sympy's `factor_list` over QQ.  A constant has no factors."""
    if len(a) < 2:
        return []
    den = math.lcm(*(Fraction(c).denominator for c in a))
    f = _zz_primitive(tuple(int(c * den) for c in a))
    factors = [(g, e) for part, e in _zz_squarefree(f)
               for g in _zz_factor_squarefree(part)]
    return sorted(factors, key=lambda ge: (len(ge[0]), ge[1], ge[0][::-1]))


# --- scalar wrapper -----------------------------------------------------------

class Scalar:
    """One field element.  Immutable, hashable, with exact operators."""

    __slots__ = ("field", "value")

    def __init__(self, field, value):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "value", value)

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    def _coerce(self, other):
        if isinstance(other, Scalar):
            if other.field != self.field:
                raise FieldMismatch(
                    f"cannot mix scalars of {self.field} and {other.field}")
            return other
        if isinstance(other, int):
            return self.field.from_int(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        F = self.field
        return Scalar(F, F.reduce(F.raw_add(self.value, other.value)))

    __radd__ = __add__

    def __neg__(self):
        F = self.field
        return Scalar(F, F.reduce(F.raw_neg(self.value)))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        F = self.field
        return Scalar(F, F.reduce(F.raw_mul(self.value, other.value)))

    __rmul__ = __mul__

    def inv(self):
        return Scalar(self.field, self.field.raw_inv(self.value))

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inv()

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return power(self.inv(), -n, operator.mul, self.field.one)
        return power(self, n, operator.mul, self.field.one)

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.field.from_int(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.field == other.field and self.value == other.value

    def __hash__(self):
        return hash((self.field, self.value))

    def __bool__(self):
        return self.value != self.field.raw_zero

    def sort_key(self):
        return self.field.value_sort_key(self.value)

    def to_json(self):
        return self.field.value_to_json(self.value)

    def __repr__(self):
        return f"{self.field.shortname()}({self.field.value_repr(self.value)})"


# --- field classes -------------------------------------------------------------

class Field:
    """Common interface: subclasses fix the raw value representation."""

    kind = None

    def __init__(self, key, raw_zero, raw_one):
        self._key = key
        self._hash = hash(key)
        self.raw_zero = raw_zero
        self.raw_one = raw_one
        self.zero = Scalar(self, raw_zero)
        self.one = Scalar(self, raw_one)
        self._power_vectors = {}        # g -> [x^g for x in elements()]

    def reduce(self, a):
        return a

    def __eq__(self, other):
        return isinstance(other, Field) and self._key == other._key

    def __hash__(self):
        return self._hash

    def scalar(self, raw):
        return Scalar(self, self._canonical(raw))

    def from_int(self, n):
        return Scalar(self, self._canonical(n))

    def size(self):
        return None

    def is_finite(self):
        return self.size() is not None

    def elements(self):
        """A finite field's elements, by raw value 0 .. q - 1."""
        if not self.is_finite():
            raise TypeError(f"{self.shortname()} is not finite")
        return (Scalar(self, v) for v in range(self.size()))

    def power_vector(self, g):
        """[x^g for x in elements()] as raw values, for g >= 1, kept."""
        if g not in self._power_vectors:
            mul, reduce = self.raw_mul, self.reduce
            self._power_vectors[g] = [
                pow(x, g, self.p) for x in range(self.p)
            ] if self.kind == "prime" else power(
                list(range(self.size())), g,
                lambda u, v: list(map(reduce, map(mul, u, v))), None)
        return self._power_vectors[g]

    def value_sort_key(self, v):
        return (v,)

    def __repr__(self):
        return self.shortname()


class _PlainField(Field):
    # ints (over GF(p) they may leave [0, p) until `reduce`) and Fractions

    raw_add = staticmethod(operator.add)
    raw_sub = staticmethod(operator.sub)
    raw_mul = staticmethod(operator.mul)
    raw_neg = staticmethod(operator.neg)


class PrimeField(_PlainField):
    kind = "prime"

    def __init__(self, p):
        if not is_prime(p):
            raise NonPrimeCharacteristic(f"{p} is not prime")
        if p > MAX_FIELD_SIZE:
            raise InstanceFormatError(
                f"field size {p} exceeds the cap {MAX_FIELD_SIZE}")
        self.p = self.characteristic = p
        self.degree = 1
        self.reduce = p.__rmod__        # a -> a % p, with no Python frame
        super().__init__(("prime", p), 0, 1)

    def shortname(self):
        return f"GF({self.p})"

    def size(self):
        return self.p

    def _canonical(self, raw):
        if not isinstance(raw, int) or isinstance(raw, bool):
            raise InstanceFormatError(
                f"GF({self.p}) scalar must be an integer, got {raw!r}")
        return raw % self.p

    def from_int(self, n):
        return Scalar(self, n % self.p)

    def raw_inv(self, a):
        if a == 0:
            raise DivisionByZero(f"0 has no inverse in {self.shortname()}")
        return pow(a, self.p - 2, self.p)

    def value_to_json(self, v):
        return v

    def value_from_json(self, obj):
        return self._canonical(obj)

    def value_repr(self, v):
        return str(v)


class ExtensionField(Field):
    kind = "extension"
    reduce = staticmethod(operator.pos)     # the identity on codes

    def __init__(self, p, k, modulus):
        base = PrimeField(p)
        if k < 2:
            raise InstanceFormatError("extension degree must be at least 2")
        if k > MAX_EXTENSION_DEGREE:
            raise InstanceFormatError(
                f"extension degree {k} exceeds the cap {MAX_EXTENSION_DEGREE}")
        if p ** k > MAX_FIELD_SIZE:
            raise InstanceFormatError(
                f"field size {p}^{k} exceeds the cap {MAX_FIELD_SIZE}")
        modulus = tuple(c % p for c in int_entries(modulus, "modulus"))
        if len(modulus) != k + 1:
            raise InstanceFormatError(
                f"modulus for GF({p}^{k}) needs {k + 1} coefficients "
                f"(constant first), got {len(modulus)}")
        if modulus[-1] == 0:
            raise InstanceFormatError("modulus leading coefficient vanishes")
        lead_inv = base.raw_inv(modulus[-1])
        modulus = tuple(c * lead_inv % p for c in modulus)
        if not poly_irreducible(base, modulus):
            raise ReducibleModulus(
                f"modulus {list(modulus)} is reducible over GF({p})")
        self.base, self.modulus = base, modulus
        self.p = self.characteristic = p
        self.k = self.degree = k
        self._places = [p ** (k - 1 - i) for i in range(k)]
        super().__init__(("extension", p, k, modulus), 0, self._places[0])

    def shortname(self):
        return f"GF({self.p}^{self.k})"

    def size(self):
        return self.p ** self.k

    def _code(self, poly):
        """The code of a polynomial over GF(p) of degree below k."""
        return sum(map(operator.mul, poly, self._places))

    def _digits(self, v):
        """The k coefficients of the code v, constant first."""
        return [v // d % self.p for d in self._places]

    def _canonical(self, raw):
        if isinstance(raw, int) and not isinstance(raw, bool):
            return raw % self.p * self.raw_one
        raw = poly_trim(self.base, [c % self.p for c in int_entries(
            raw, "extension field scalar coefficients")])
        return self._code(poly_divmod(self.base, raw, self.modulus)[1])

    def __getattr__(self, name):
        # reached only until `_build_tables` installs all five operators
        if name not in ("raw_add", "raw_sub", "raw_neg", "raw_mul", "raw_inv"):
            raise AttributeError(name)
        self._build_tables()
        return vars(self)[name]

    def _poly_product(self, a, b):
        """a * b on the polynomial layer, for trimmed a and b."""
        return poly_divmod(self.base, poly_mul(self.base, a, b),
                           self.modulus)[1]

    def _build_tables(self):
        """Install the five raw operators on this object, as closures over
        the tables of a generator g of order n = q - 1: `log[v]`, Z = 2n - 1
        for v = 0; `exp[i]` = g^i for i < Z and 0 from Z on, so a product
        or a negation needs no test for 0; and Zech's `zech[d]` =
        log(1 + g^d), Z where 1 + g^d = 0, stored twice over so that a
        difference of two logs indexes it as it stands.  g is the first
        element whose order the prime factors r of n show (g^(n/r) != 1).
        Times g is the k x k map over GF(p) whose column j is x^j g on the
        polynomial layer; the powers of g are walked with it."""
        base, m, k, n = self.base, self.modulus, self.k, self.size() - 1
        primes = prime_factors(n)
        g = next(x for x in (poly_trim(base, self._digits(v))
                             for v in range(1, n + 1))
                 if all(poly_powmod(base, x, n // r, m) != (1,)
                        for r in primes))
        rows = list(zip(*(self._digits(self._code(self._poly_product(
            (0,) * j + (1,), g))) for j in range(k))))
        powers, v = [], [1] + [0] * (k - 1)
        for _ in range(n):
            powers.append(poly_trim(base, v))
            v = [sum(map(operator.mul, row, v)) % self.p for row in rows]
        self._certify_tables(g, powers)
        codes = list(map(self._code, powers))
        Z = 2 * n - 1
        log = [Z] * (n + 1)
        for i, c in enumerate(codes):
            log[c] = i
        exp = (codes + codes)[:Z] + [0] * (Z + 1)
        # 1 + v adds 1 to the most significant digit of v, modulo p
        zech = [log[(c + self.raw_one) % (n + 1)] for c in codes]
        self._certify_zech(powers, zech)
        zech += zech
        minus = n // 2 if self.p > 2 else 0        # log(-1)

        def raw_add(a, b):
            if a and b:
                la = log[a]
                return exp[la + zech[log[b] - la]]
            return a or b

        def raw_sub(a, b):
            lb = log[b] + minus             # log(-b), or past Z for b = 0
            if a and b:
                la = log[a]
                return exp[la + zech[lb - la]]
            return a or exp[lb]

        def raw_neg(a):
            return exp[log[a] + minus]

        def raw_mul(a, b):
            return exp[log[a] + log[b]]

        def raw_inv(a):
            if not a:
                raise DivisionByZero(f"0 has no inverse in {self.shortname()}")
            return exp[n - log[a]]

        vars(self).update(raw_add=raw_add, raw_sub=raw_sub, raw_neg=raw_neg,
                          raw_mul=raw_mul, raw_inv=raw_inv)

    def _certify_tables(self, g, powers):
        """powers[i] = g^i for i < q - 1, as trimmed polynomials, are q - 1
        distinct nonzero elements, each the previous one times g."""
        n = self.size() - 1
        certify(len(powers) == n and () not in powers
                and len(set(powers)) == n,
                f"the powers of the generator of {self.shortname()} are "
                f"not q - 1 distinct nonzero elements")
        certify(all(self._poly_product(x, g) == y for x, y
                    in zip(powers, powers[1:] + powers[:1])),
                f"the exp table of {self.shortname()} is not the walk of "
                f"its generator")

    def _certify_zech(self, powers, zech):
        """zech[d] is the log of 1 + g^d for every d < n = q - 1, by the
        certified powers, and reads 2n - 1, the log of 0, at d = n / 2 for
        odd q and d = 0 for p = 2 only: there g^d = -1, as g has order n."""
        n, one = len(powers), powers[0]
        certify([d for d, z in enumerate(zech) if z == 2 * n - 1]
                == [n // 2 if self.p > 2 else 0] and all(
                    z == 2 * n - 1 or 0 <= z < n and powers[z] == poly_add(
                        self.base, one, x) for z, x in zip(zech, powers)),
                f"the Zech list of {self.shortname()} is not log(1 + g^d)")

    def value_to_json(self, v):
        return self._digits(v)

    def value_from_json(self, obj):
        if not isinstance(obj, list) or len(obj) != self.k:
            raise InstanceFormatError(
                f"{self.shortname()} scalar must be a list of {self.k} ints, "
                f"got {obj!r}")
        return self._canonical(obj)

    def value_repr(self, v):
        return str(self._digits(v))


class RationalField(_PlainField):
    kind = "rationals"

    def __init__(self):
        self.characteristic = 0
        super().__init__(("rationals",), Fraction(0), Fraction(1))

    def shortname(self):
        return "Q"

    def _canonical(self, raw):
        if isinstance(raw, Fraction):
            return raw
        return self.value_from_json(raw)

    def raw_inv(self, a):
        if a == 0:
            raise DivisionByZero("0 has no inverse in Q")
        return 1 / a

    def value_sort_key(self, v):
        return (v.numerator, v.denominator)

    def value_to_json(self, v):
        if v.denominator == 1:
            return str(v.numerator)
        return f"{v.numerator}/{v.denominator}"

    def value_from_json(self, obj):
        if isinstance(obj, int) and not isinstance(obj, bool):
            return Fraction(obj)
        if isinstance(obj, str):
            try:
                return Fraction(obj)
            except (ValueError, ZeroDivisionError) as exc:
                raise InstanceFormatError(
                    f"bad rational literal {obj!r}") from exc
        raise InstanceFormatError(
            f"rational scalar must be an int or 'a/b' string, got {obj!r}")

    def value_repr(self, v):
        return str(v)


@functools.cache
def rationals():
    return RationalField()


def gf(p, k=1, modulus=None):
    if k == 1:
        return PrimeField(p)
    if modulus is None:
        raise InstanceFormatError(
            f"GF({p}^{k}) needs an explicit irreducible modulus")
    return ExtensionField(p, k, modulus)


def make_field(spec):
    """Build a field from its JSON description.

    {"kind": "rationals"}                       -> Q
    {"kind": "prime-power", "p": 3}             -> GF(3)
    {"kind": "prime-power", "p": 3, "k": 2,
     "modulus": [1, 0, 1]}                      -> GF(9) = GF(3)[x]/(x^2+1)
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        raise InstanceFormatError(f"field spec must have a 'kind': {spec!r}")
    kind = spec["kind"]
    if kind == "rationals":
        known_keys(spec, ("kind",), "rationals field")
        return rationals()
    if kind == "prime-power":
        known_keys(spec, ("kind", "p", "k", "modulus"), "prime-power field")
        p, k = spec.get("p"), spec.get("k", 1)
        if not isinstance(p, int) or isinstance(p, bool):
            raise InstanceFormatError("prime-power field spec needs int 'p'")
        if not isinstance(k, int) or isinstance(k, bool) or k < 1:
            raise InstanceFormatError("field spec 'k' must be a positive int")
        return gf(p, k, spec.get("modulus"))
    raise InstanceFormatError(f"unknown field kind {kind!r}")


def field_to_json(field):
    if field.kind == "rationals":
        return {"kind": "rationals"}
    if field.kind == "prime":
        return {"kind": "prime-power", "p": field.p}
    return {"kind": "prime-power", "p": field.p, "k": field.k,
            "modulus": list(field.modulus)}


# --- root extraction and multiplicative structure -----------------------------

def _rational_sqrt(fr):
    """Exact nonnegative square root of a Fraction, or None."""
    if fr < 0:
        return None
    num, den = fr.numerator, fr.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn != num or rd * rd != den:
        return None
    return Fraction(rn, rd)


def solve_power_equation(field, n, target):
    """All x in the field with x^n = target, as a set of Scalars: over a
    finite field the roots of x^n - target by `poly_roots`, one product per
    element by the vector of n-th powers; over the rationals only for
    n = 1 and n = 2 (larger n raises UnsupportedRationalDegree)."""
    if not isinstance(n, int) or n < 1:
        raise InstanceFormatError(f"exponent must be a positive int, got {n!r}")
    if not isinstance(target, Scalar) or target.field != field:
        raise FieldMismatch("target scalar does not belong to the field")
    if field.is_finite():
        a = ((field.reduce(field.raw_neg(target.value)),)
             + (field.raw_zero,) * (n - 1) + (field.raw_one,))
        return {Scalar(field, x) for x in poly_roots(field, a)}
    if n == 1:
        return {target}
    if n == 2:
        root = _rational_sqrt(target.value)
        if root is None:
            return set()
        return {field.scalar(root), field.scalar(-root)}
    raise UnsupportedRationalDegree(
        f"rational root extraction supports n <= 2, got n = {n}")


def multiplicative_order(s):
    """Order of a nonzero scalar in the multiplicative group (finite fields)."""
    if not s:
        raise DivisionByZero("0 has no multiplicative order")
    field = s.field
    if not field.is_finite():
        if s == field.one:
            return 1
        if s == -field.one:
            return 2
        return None
    order = field.size() - 1
    for q in prime_factors(order):
        while order % q == 0 and s ** (order // q) == field.one:
            order //= q
    return order
