"""Structure theory for finite-dimensional slices of the twisted algebra.

The twisted group algebra itself is usually infinite-dimensional; every
structural question this module answers (radical, semisimplicity, primitive
idempotents, sum-of-fields certificates) is asked of a finite-dimensional
algebra: the span of the basis units of a finite subgroup, or a quotient or
corner of one.  Those are carried around as `FDAlgebra` objects, plain
structure-constant algebras over one of the scalar fields.  A quotient,
or a noncommutative corner e A e, is built as a `Subquotient`; the corner
A e of a commutative algebra is held in the parent's coordinates, as its
identity e and its `corner_basis` of products b_i e.

Radical computation picks its method by field and shape:

* characteristic 0: the kernel of the trace bilinear form (exact there);
* characteristic p, commutative: the kernel of the iterated Frobenius map
  x -> x^(p^m) with p^m >= dim, a semilinear map whose kernel is found by
  linear algebra in Frobenius-twisted coordinates;
* characteristic p, noncommutative: the descending chain that refines the
  trace-form kernel by the characteristic-polynomial coefficient forms
  c_{p^i}(L_{xy}).  Plain traces of p-th matrix powers carry no new
  information in characteristic p (Tr(M^p) = Tr(M)^p), which is why the
  coefficient forms are needed.

Whatever the method, the result is certified before being returned: the
span is checked to be a two-sided ideal, nilpotent by explicit powering,
missing the identity, and the quotient algebra (the algebra itself when
the span is empty) is checked to have zero radical by a rerun on it.
Certificates are checked by `certify`, which raises CertificateFailed and,
unlike `assert`, also runs under `python -O`.

Each structural fact of a commutative algebra has one path:
`fields_decomposition` certifies the radical and the primitive idempotents
once and returns them in its report, which is where report builders read
the radical and the primitive count from, `count_idempotents` the
idempotent count 2^(number of primitives), and `count_units` the unit
count q^(dim J) prod_i (q^(d_i) - 1) over the components of A / J.  The
report is kept on the immutable `FDAlgebra`, so a repeated request costs
no products, and so is the certified `jacobson_radical` of any algebra,
with its A / J.  The primitive idempotents come from one corner
recursion, `_split`, over every field: a splitter b splits a corner's
identity e along every factor g of its minimal polynomial at once, by one
Chinese-remainder step on the powers of b the polynomial was read off.
Each step is certified by its splitter, g(b) e_g = 0 for every factor g
and the sum of the e_g, which together make the e_g orthogonal
idempotents; for a linear g that is one product b e_r = r e_r.  The
split's leaves are the field components: a primitive e, a basis of its
corner A e, and over Q the splitter that certified A e a field.

Idempotents of a noncommutative algebra A over GF(q) are counted from its
blocks, not by enumerating vectors (Ronyai, J. Symbolic Comput. 9, 1990;
Eberly and Giesbrecht, J. Symbolic Comput. 29, 2000).  `block_structure`
takes the certified radical J, splits A / J by the primitive idempotents
c_i of its center into blocks M_{n_i}(GF(q_i)), q_i = q^{d_i}, and
records J_ij = dim f_i J f_j for idempotent lifts f_i of the c_i.  An
idempotent of A / J has a rank r_i in each block, lifts to A, and the
lifts of one idempotent number q^delta(r), the size of e J (1 - e) +
(1 - e) J e; so the count is the sum over rank vectors r of
prod_i q_i^{r_i (n_i - r_i)} [n_i choose r_i]_{q_i} * q^delta(r), with
delta(r) = sum_ij J_ij (r_i (n_j - r_j) + (n_i - r_i) r_j) / (n_i n_j).
The same data give the unit count q^(dim J) prod_i |GL_{n_i}(GF(q_i))|.
The result is kept on the `FDAlgebra`, so the radical a report prints
and the count it makes rest on one certification.  Over Q the counts are
not decided.

Every power here (Frobenius powers of basis vectors and of raw field
values) is one call of `fields.power`.  Idempotents lift along the radical
by one Newton step e -> 3e^2 - 2e^3 in every characteristic (e^2 in
characteristic 2, e^3 in characteristic 3).  Each step squares the defect
e^2 - e, and the step stays in the commutative algebra K[x], where an
idempotent congruent to x modulo the nil ideal (x^2 - x) is unique; so
the lift does not depend on the iteration that reaches it.
"""

import itertools
import math
import random
from itertools import repeat

from . import linalg
from .algebra import AlgebraElement
from .errors import (
    ConditionsNotMet,
    DimensionTooLarge,
    IdealNotNilpotent,
    NotCommutative,
    SupportNotInSubgroup,
    TooLargeToCount,
    certify,
)
from .fields import (
    poly_divmod,
    poly_factor_rational,
    poly_inv_mod,
    poly_irreducible,
    poly_mul,
    poly_roots,
    power,
)

RADICAL_NONCOMMUTATIVE_DIM_CAP = 32
SPLITTER_ATTEMPTS = 500


class FDAlgebra:
    """Associative unital algebra by sparse structure constants.

    `rows[i]` lists the nonzero products of basis vector e_i as pairs
    (j, [(k, c), ...]) with e_i e_j = sum_k c * e_k, c nonzero; absent
    pairs multiply to zero, and `dim` is len(rows).  `label(i)` names
    basis vector i in a witness, and is called only when one is made.

    Row entries, `one` and every vector the methods take and return are
    canonical raw field values (see `fields`); a vector is a list of them,
    zero by `is_zero`.  The rows must not be mutated after construction,
    because the object caches what depends only on them: the trace
    vector, `is_commutative`, the basis powers b_i^n per exponent n
    (which the Frobenius radical and the fixed space of x -> x^q share
    over a prime field with p >= dim), the candidate of `_radical_raw`,
    and what is certified: `jacobson_radical`, `block_structure`, and the
    results of `primitive_idempotents`, with the split's leaves, and of
    `fields_decomposition` per seed.  A subclass may answer `basis_powers`
    and `is_commutative` from a law behind its rows, with the same exact
    values, but keeps the generic `mul` and `is_idempotent` (see
    `GroupFDAlgebra`).
    """

    def __init__(self, field, rows, one, label=None):
        self.field = field
        self.rows = rows
        self.dim = len(rows)
        self.one = list(one)
        self.label = label or "b{}".format
        self._trace_vector = None
        self._commutative = None
        self._basis_powers = {}         # n -> [b_i^n]
        self._raw_radical = None        # (candidate, method), read-only
        self._radical = None            # certified RadicalResult
        self._primitives = {}           # seed -> (primitives, leaves)
        self._decompositions = {}       # seed -> certified report
        self._blocks = None             # certified BlockStructure

    def mul(self, x, y):
        field = self.field
        add, mul, zero = field.raw_add, field.raw_mul, field.raw_zero
        out = [zero] * self.dim
        for xi, row in zip(x, self.rows):
            if xi == zero:
                continue
            for j, terms in row:
                yj = y[j]
                if yj == zero:
                    continue
                c = mul(xi, yj)
                for k, s in terms:
                    out[k] = add(out[k], mul(c, s))
        return list(map(field.reduce, out))

    def zero_vec(self):
        return [self.field.raw_zero] * self.dim

    def basis_vec(self, i):
        v = self.zero_vec()
        v[i] = self.field.raw_one
        return v

    def add(self, x, y):
        return list(map(self.field.reduce, map(self.field.raw_add, x, y)))

    def sub(self, x, y):
        return list(map(self.field.reduce, map(self.field.raw_sub, x, y)))

    def scale(self, x, c):
        field = self.field
        return list(map(field.reduce, map(field.raw_mul, x, repeat(c))))

    def power(self, x, n):
        """x^n for n >= 0 by `fields.power`, a fresh list."""
        return list(power(x, n, self.mul, self.one))

    def basis_powers(self, n):
        """[b_i^n for each basis vector b_i], computed once per n and kept;
        callers must not mutate the lists."""
        if n not in self._basis_powers:
            self._basis_powers[n] = [self.power(self.basis_vec(i), n)
                                     for i in range(self.dim)]
        return self._basis_powers[n]

    def is_zero(self, x):
        zero = self.field.raw_zero
        return all(c == zero for c in x)

    def is_idempotent(self, x):
        return self.mul(x, x) == x

    def left_mult_matrix(self, x):
        field = self.field
        add, mul, zero = field.raw_add, field.raw_mul, field.raw_zero
        # column j is x e_j, so entry (k, j) collects x_i * c_ijk
        M = [[zero] * self.dim for _ in range(self.dim)]
        for xi, row in zip(x, self.rows):
            if xi == zero:
                continue
            for j, terms in row:
                for k, s in terms:
                    M[k][j] = add(M[k][j], mul(xi, s))
        return [list(map(field.reduce, r)) for r in M]

    def trace_vector(self):
        """tr[i] = trace of left multiplication by basis vector i."""
        if self._trace_vector is None:
            field = self.field
            tr = [field.raw_zero] * self.dim
            for i, row in enumerate(self.rows):
                for j, terms in row:
                    for k, s in terms:
                        if k == j:
                            tr[i] = field.raw_add(tr[i], s)
            self._trace_vector = list(map(field.reduce, tr))
        return self._trace_vector

    def is_commutative(self):
        """(True, None), or False and the names `label` gives the first
        basis pair i < j whose cells e_i e_j and e_j e_i differ."""
        if self._commutative is None:
            cells = {(i, j): set(terms)
                     for i, row in enumerate(self.rows)
                     for j, terms in row}
            pair = next(((i, j) for i, j in
                         itertools.combinations(range(self.dim), 2)
                         if cells.get((i, j), set())
                         != cells.get((j, i), set())), None)
            self._commutative = (True, None) if pair is None else \
                (False, (self.label(pair[0]), self.label(pair[1])))
        return self._commutative


class GroupFDAlgebra(FDAlgebra):
    """A twisted group algebra K_lambda W of a finite group W by its
    monomial law b_i b_j = lam[i][j] b_prod[i][j], lam[i][j] != 0, b_one
    the identity (Passman, The Algebraic Structure of Group Rings, 1977):
    b_i^n is the monomial power of the pair (i, 1), and b_i, b_j commute
    exactly when prod and lam agree at (i, j) and (j, i).  The generator
    units of W generate the algebra."""

    def __init__(self, field, prod, lam, one, label):
        rows = [[(j, [kc]) for j, kc in enumerate(zip(ks, cs))]
                for ks, cs in zip(prod, lam)]
        super().__init__(field, rows, [field.raw_zero] * len(rows), label)
        self.one[one] = field.raw_one
        self.prod, self.lam, self.one_index = prod, lam, one

    def basis_powers(self, n):
        if n not in self._basis_powers:
            field, prod, lam = self.field, self.prod, self.lam
            mul, reduce = field.raw_mul, field.reduce

            def monomial_mul(x, y):
                (i, a), (j, b) = x, y
                return prod[i][j], reduce(mul(mul(a, b), lam[i][j]))
            powers = []
            for i in range(self.dim):
                k, c = power((i, field.raw_one), n, monomial_mul,
                             (self.one_index, field.raw_one))
                powers.append(self.zero_vec())
                powers[-1][k] = c
            self._basis_powers[n] = powers
        return self._basis_powers[n]

    def is_commutative(self):
        if self._commutative is None:
            prod, lam = self.prod, self.lam
            pair = next(((i, j) for i, j in
                         itertools.combinations(range(self.dim), 2)
                         if prod[i][j] != prod[j][i]
                         or lam[i][j] != lam[j][i]), None)
            self._commutative = (True, None) if pair is None else \
                (False, (self.label(pair[0]), self.label(pair[1])))
        return self._commutative


class FiniteSubalgebra:
    """The span of the basis units of a finite subgroup, as a
    `GroupFDAlgebra` plus maps between its raw vectors and the ambient
    algebra's elements.  The subgroup's elements have finite order, so
    free part u = 0, and their products are read off keys
    (`FiniteSubgroup.product_table` has the proof).  So is lambda(g, h):
    with u = 0 the bilinear factor is 1, and lambda(g, h) is the torsion
    value raw_table[g.t * |T| + h.t]."""

    def __init__(self, algebra, subgroup):
        self.algebra = algebra
        self.subgroup = subgroup
        prod, one = subgroup.product_table()
        table, elements = algebra.cocycle.raw_table, subgroup.elements
        n = algebra.group.torsion.size
        self.fd = GroupFDAlgebra(
            algebra.field, prod,
            [[table[g.t * n + h.t] for h in elements] for g in elements],
            one, lambda i: f"u[{elements[i]!r}]")

    def to_ambient(self, vec):
        return AlgebraElement(self.algebra, dict(zip(self.subgroup.elements,
                                                     vec)))

    def from_ambient(self, el):
        """The vector of an element supported on the subgroup."""
        zero = self.fd.field.raw_zero
        vec = [el.terms.get(g, zero) for g in self.subgroup.elements]
        if len(el.terms) != sum(c != zero for c in vec):
            raise SupportNotInSubgroup("the support leaves the subgroup")
        return vec


# --- spans and ideals --------------------------------------------------------


def span_of(fd, vectors):
    S = linalg.SpanBasis(fd.field, fd.dim)
    for v in vectors:
        S.add(v)
    return S


def _is_ideal(fd, span):
    S = span_of(fd, span)
    for v in span:
        for i in range(fd.dim):
            b = fd.basis_vec(i)
            if not S.contains(fd.mul(b, v)) or not S.contains(fd.mul(v, b)):
                return False
    return True


def ideal_nilpotency_index(fd, span):
    """Least k with span^k = 0; raises IdealNotNilpotent if the powers of
    the span stop shrinking before they vanish."""
    current = [v for v in span if not fd.is_zero(v)]
    k = 1
    prev_dim = span_of(fd, current).dim
    while current:
        products = [fd.mul(a, b) for a in current for b in span]
        S = span_of(fd, products)
        if 0 < S.dim and S.dim >= prev_dim:
            raise IdealNotNilpotent(
                f"span powers stopped shrinking at dimension {S.dim}")
        prev_dim = S.dim
        current = [list(r) for r in S.inserted]
        k += 1
    return k


# --- quotients and corners ---------------------------------------------------


def linear_combination(fd, coeffs, vectors):
    """sum_i coeffs[i] * vectors[i], a vector of fd."""
    field = fd.field
    add, mul, zero = field.raw_add, field.raw_mul, field.raw_zero
    out = fd.zero_vec()
    for c, v in zip(coeffs, vectors):
        if c != zero:
            out = list(map(add, out, map(mul, repeat(c), v)))
    return list(map(field.reduce, out))


class Subquotient:
    """The algebra spanned by parent vectors modulo a two-sided ideal.

    The ideal's spanning vectors are reduced first; every candidate vector
    not in the span so far becomes a basis vector, and `fd` multiplies by
    projecting parent products onto that basis.  A quotient A / I takes the
    parent's basis as candidates; a corner e A e has no ideal and takes the
    vectors e b e (b e when the parent is commutative).  `project` gives
    the coordinates of a parent vector of the span modulo the ideal;
    `lift` maps back.
    """

    def __init__(self, parent, ideal_span, candidates, one):
        self.parent = parent
        S = self._span = linalg.SpanBasis(parent.field, parent.dim)
        self.ideal_basis = [list(v) for v in ideal_span if S.add(v)]
        self.basis = [v for v in candidates if S.add(v)]
        zero = parent.field.raw_zero
        rows = []
        for bi in self.basis:
            rows.append([])
            for j, bj in enumerate(self.basis):
                prod = self.project(parent.mul(bi, bj))
                terms = [(k, c) for k, c in enumerate(prod) if c != zero]
                if terms:
                    rows[-1].append((j, terms))
        self.fd = FDAlgebra(parent.field, rows, self.project(one))

    def project(self, vec):
        coords = self._span.coordinates(vec)
        certify(coords is not None,
                "vector outside the span of the ideal and the basis")
        return coords[len(self.ideal_basis):]

    def lift(self, vec):
        return linear_combination(self.parent, vec, self.basis)


def quotient_algebra(fd, ideal_span):
    """A / I for a two-sided ideal given by a spanning list."""
    return Subquotient(fd, ideal_span,
                       (fd.basis_vec(i) for i in range(fd.dim)), fd.one)


def corner_algebra(fd, e):
    """The corner e A e with identity e, spanned by the products b_i e when
    A is commutative, where e (b_i e) = b_i e exactly."""
    candidates = (fd.mul(fd.basis_vec(i), e) for i in range(fd.dim))
    if not fd.is_commutative()[0]:
        candidates = (fd.mul(e, c) for c in candidates)
    return Subquotient(fd, [], candidates, e)


def corner_basis(fd, e, indices=None):
    """The corner A e of a commutative algebra in fd's own coordinates: the
    products b_i e independent of the earlier ones, keyed by i in index
    order, which are the basis `corner_algebra` picks.  e is the corner's
    identity, and (b_i e)^n = b_i^n e.  Only the ``indices`` are tried when
    given, the keys of the basis of a corner A e' with e under e': for any
    other i, b_i e' and so b_i e = (b_i e') e depend on earlier ones."""
    S = linalg.SpanBasis(fd.field, fd.dim)
    products = ((i, fd.mul(fd.basis_vec(i), e))
                for i in (range(fd.dim) if indices is None else indices))
    return {i: v for i, v in products if S.add(v)}


# --- minimal and characteristic polynomials ----------------------------------


def minimal_polynomial(fd, x, e=None):
    """Monic minimal polynomial of x, a polynomial of `fields` (a tuple of
    raw values, constant first); of x in the corner A e if e is given."""
    return _krylov(fd, x, fd.one if e is None else e)[0]


def _krylov(fd, x, e):
    """The minimal polynomial m of x in the corner A e, and the powers e,
    e x, ..., e x^(deg m - 1) it was read off, one product each."""
    field = fd.field
    S = linalg.SpanBasis(field, fd.dim)
    p = e
    while S.add(p):
        p = fd.mul(p, x)
    neg = [field.reduce(field.raw_neg(c)) for c in S.coordinates(p)]
    return tuple(neg) + (field.raw_one,), S.inserted


def characteristic_polynomial(field, M):
    """char poly of a square matrix of raw values via Hessenberg form, a
    polynomial of `fields` (monic, so of length n + 1)."""
    add, sub, mul = field.raw_add, field.raw_sub, field.raw_mul
    reduce, zero, one = field.reduce, field.raw_zero, field.raw_one
    n = len(M)
    H = [list(row) for row in M]
    for col in range(n - 2):
        piv = next((i for i in range(col + 1, n) if H[i][col] != zero), None)
        if piv is None:
            continue
        if piv != col + 1:
            H[piv], H[col + 1] = H[col + 1], H[piv]
            for row in H:
                row[piv], row[col + 1] = row[col + 1], row[piv]
        inv = field.raw_inv(H[col + 1][col])
        for i in range(col + 2, n):
            if H[i][col] == zero:
                continue
            f = reduce(mul(H[i][col], inv))
            H[i] = [reduce(sub(a, mul(f, b))) for a, b in zip(H[i], H[col + 1])]
            for row in H:
                row[col + 1] = reduce(add(row[col + 1], mul(f, row[i])))
    # char polys of leading principal minors of the Hessenberg form:
    # p_m = (t - H[m-1][m-1]) p_{m-1}
    #       - sum_k H[k-1][m-1] * (prod_{j=k}^{m-1} H[j][j-1]) * p_{k-1}
    polys = [[one]]
    for m in range(1, n + 1):
        prev = polys[m - 1]
        cur = [zero] + prev
        h = H[m - 1][m - 1]
        if h != zero:
            for k in range(len(prev)):
                cur[k] = sub(cur[k], mul(h, prev[k]))
        run = one
        for i in range(m - 1, 0, -1):
            run = reduce(mul(run, H[i][i - 1]))
            if run == zero:
                break
            coeff = reduce(mul(run, H[i - 1][m - 1]))
            if coeff != zero:
                pi = polys[i - 1]
                for k in range(len(pi)):
                    cur[k] = sub(cur[k], mul(coeff, pi[k]))
        polys.append(list(map(reduce, cur)))
    return tuple(polys[n])


# --- radical ------------------------------------------------------------------


class RadicalResult:
    """A certified radical J of A: a reduced basis, its method, the least k
    with J^k = 0 and the `Subquotient` A / J (None when J = 0)."""

    def __init__(self, basis, method, nilpotency_index, quotient=None):
        self.basis = basis
        self.method = method
        self.nilpotency_index = nilpotency_index
        self.quotient = quotient


def _frobenius_pullback(field, vectors, twist_power):
    """Undo an eta = xi^(p^twist) substitution componentwise."""
    e = (-twist_power) % getattr(field, "degree", 1)
    if e == 0:
        return vectors
    back = field.characteristic ** e

    def mul(x, y):
        return field.reduce(field.raw_mul(x, y))
    return [[power(c, back, mul, field.raw_one) for c in vec]
            for vec in vectors]


def _semilinear_kernel(field, images, twist_power):
    """Solve sum_i xi_i^(p^t) * images[i] = 0.

    The underlying map is additive with a p^t Frobenius twist, so in
    eta = xi^(p^t) coordinates the system is plain linear; the kernel is
    pulled back through the inverse Frobenius, a field automorphism, so the
    solution set is an honest subspace.
    """
    if not images:
        return []
    rows = [[img[r] for img in images] for r in range(len(images[0]))]
    etas = linalg.kernel_basis(field, rows, len(images))
    return _frobenius_pullback(field, etas, twist_power)


def _trace_form_kernel(fd):
    """The kernel of the trace form (x, y) -> Tr(L_{xy}), with Gram entry
    Tr(L_{b_i b_j}) = sum_k c_ijk tr_k off the rows."""
    field, tr = fd.field, fd.trace_vector()
    add, mul, zero = field.raw_add, field.raw_mul, field.raw_zero
    rows = [[zero] * fd.dim for _ in range(fd.dim)]
    for row, cells in zip(rows, fd.rows):
        for j, terms in cells:
            acc = zero
            for k, c in terms:
                acc = add(acc, mul(c, tr[k]))
            row[j] = field.reduce(acc)
    return linalg.kernel_basis(field, rows, fd.dim)


def _radical_commutative_char_p(fd):
    p = fd.field.characteristic
    m, pm = 0, 1
    while pm < fd.dim:
        pm *= p
        m += 1
    images = fd.basis_powers(pm)
    # the standard basis makes coefficient vectors and algebra vectors agree
    basis = _semilinear_kernel(fd.field, images, m)
    return basis, "frobenius-kernel"


def _radical_noncommutative_char_p(fd):
    # J makes every L_(xy) nilpotent, so it lies in the trace-form kernel;
    # a zero kernel (Maschke: p does not divide |T|) runs no chain, no cap
    chain = _trace_form_kernel(fd)
    if chain and fd.dim > RADICAL_NONCOMMUTATIVE_DIM_CAP:
        raise DimensionTooLarge(
            f"noncommutative radical capped at dimension "
            f"{RADICAL_NONCOMMUTATIVE_DIM_CAP}, got {fd.dim}")
    p = fd.field.characteristic
    i = 1
    while p ** i <= fd.dim and chain:
        col = fd.dim - p ** i
        images = []
        for x in chain:
            vals = []
            for y in chain:
                M = fd.left_mult_matrix(fd.mul(x, y))
                vals.append(characteristic_polynomial(fd.field, M)[col])
            images.append(vals)
        chain = [linear_combination(fd, xi, chain)
                 for xi in _semilinear_kernel(fd.field, images, i)]
        i += 1
    return chain, "coefficient-chain"


def _radical_raw(fd):
    if fd._raw_radical is None:
        comm, _ = fd.is_commutative()
        if fd.field.characteristic == 0:
            basis, method = _trace_form_kernel(fd), "trace-form"
        elif comm:
            basis, method = _radical_commutative_char_p(fd)
        else:
            basis, method = _radical_noncommutative_char_p(fd)
        fd._raw_radical = [v for v in basis if not fd.is_zero(v)], method
    return fd._raw_radical


def jacobson_radical(fd):
    """The Jacobson radical with a verified certificate, kept on `fd`.

    Whatever method produced the candidate span, the certificate check is
    the same: two-sided ideal, nilpotent by explicit powering, identity not
    inside, and a rerun on the quotient algebra comes back zero.
    """
    if fd._radical is not None:
        return fd._radical
    candidate, method = _radical_raw(fd)
    S = span_of(fd, candidate)
    basis = [list(r) for r in S.inserted]
    certify(_is_ideal(fd, basis), "radical candidate is not an ideal")
    index = ideal_nilpotency_index(fd, basis)
    certify(not S.contains(fd.one),
            "radical candidate contains the identity")
    # the quotient by an empty candidate is fd itself, its candidate kept
    Q = quotient_algebra(fd, basis) if basis else None
    qraw, _ = _radical_raw(Q.fd if Q else fd)
    certify(not qraw, "quotient still has a radical; candidate too small")
    fd._radical = RadicalResult(basis, method, index, Q)
    return fd._radical


# --- idempotents ---------------------------------------------------------------


def _crt_idempotents(fd, powers, m, moduli):
    """E_g(b) for pairwise coprime moduli g (factor powers allowed) whose
    product is b's minimal polynomial m in A e up to a constant:
    E_g = (m / g) ((m / g)^-1 mod g) is 1 mod g and 0 mod the others (von
    zur Gathen and Gerhard, Modern Computer Algebra, 5.4).  deg E_g < deg m,
    so E_g(b) combines the powers e = b^0 .. b^(deg m - 1) of `_krylov`.
    `_split` hands it every irreducible factor of m over Q at once; over
    GF(q), where the factors are linear, `_lagrange_idempotents` makes the
    same idempotents in one pass."""
    field = fd.field
    out = []
    for g in moduli:
        h, _ = poly_divmod(field, m, g)
        s = poly_inv_mod(field, h, g)
        certify(s is not None, "factor powers must be coprime")
        out.append(linear_combination(fd, poly_mul(field, s, h), powers))
    return out


def _lagrange_idempotents(fd, powers, m, roots):
    """E_r = h_r(b) / h_r(r), h_r = m / (t - r), for the distinct roots r
    of b's minimal polynomial m in A e, in the order of `roots`, from the
    powers e = b^0 .. b^(deg m - 1) of `_krylov`.  Lagrange interpolation
    (von zur Gathen and Gerhard, Modern Computer Algebra, 5.2) gives
    sum_r h_r / h_r(r) = 1 and (t - r) h_r = m, so sum_r E_r = e and
    b E_r = r E_r; these are the CRT idempotents of the linear moduli
    t - r, since h_r (1 / h_r(r)) is 1 mod t - r and 0 mod the others.

    All h_r come from one synthetic division run across the roots at once,
    h_(d-1) = 1 and h_(k-1) = m_k + r h_k, and every h_r(r) from Horner's
    rule on the same coefficients.  Each power then adds its nonzero
    entries only, times the column of its coefficients over the roots, so
    a monomial splitter's powers cost deg m products per root."""
    field = fd.field
    add, mul, reduce = field.raw_add, field.raw_mul, field.reduce
    zero = field.raw_zero
    h = value = [field.raw_one] * len(roots)
    columns = [h]
    for c in reversed(m[1:-1]):
        h = list(map(reduce, map(add, map(mul, roots, h), repeat(c))))
        value = list(map(reduce, map(add, map(mul, roots, value), h)))
        columns.append(h)
    inverse = list(map(field.raw_inv, value))
    sums = [[zero] * len(roots)] * fd.dim
    for col, p in zip(reversed(columns), powers):
        col = list(map(reduce, map(mul, col, inverse)))
        for j, c in enumerate(p):
            if c != zero:
                sums[j] = list(map(add, sums[j], map(mul, col, repeat(c))))
    return [list(map(reduce, row)) for row in zip(*sums)]


def _fixed_splitter(fd, e, basis):
    """[b] for a q-fixed element b of the corner A e outside K e, given by
    e and its `corner_basis`; [] when every q-fixed element of A e lies in
    K e."""
    field = fd.field
    powers = fd.basis_powers(field.size())
    # (b_i e)^q - b_i e = b_i^q e - b_i e, with no product when e = 1
    images = [fd.sub(powers[i] if e is fd.one else fd.mul(powers[i], e), v)
              for i, v in basis.items()]
    vectors = list(basis.values())
    fixed = (linear_combination(fd, xi, vectors)
             for xi in _semilinear_kernel(field, images, 0))
    line = span_of(fd, [e])
    b = next((x for x in fixed if not line.contains(x)), None)
    return [] if b is None else [b]


def _splitter_candidates(fd, basis, rng):
    """The vectors of `basis`, their pairwise sums, random combinations."""
    yield from basis
    for i, j in itertools.combinations(range(len(basis)), 2):
        yield fd.add(basis[i], basis[j])
    for _ in range(SPLITTER_ATTEMPTS):
        coeffs = [fd.field.from_int(rng.randint(-3, 3)).value for _ in basis]
        yield linear_combination(fd, coeffs, basis)


def _split(fd, e, basis, rng):
    """The leaves (e_i, basis of A e_i, generator), one per primitive
    idempotent e_i of the corner A e of a commutative algebra, given by e
    and its `corner_basis`, by one recursion for every field.  Over Q the
    generator (b, m) certifies A e_i a field: b has the minimal polynomial
    m in A e_i of degree dim A e_i, one factor of multiplicity 1 by
    `poly_factor_rational`.  It is None for a line and a GF(q) corner.

    A splitter b in A e splits e along every factor g of its minimal
    polynomial m in A e at once, into the Chinese-remainder idempotents
    E_g(b) of those factors, and each corner A E_g is split in turn.  The
    fields differ in two places:

    * where b comes from.  Over GF(q) it is a q-fixed element of A e
      outside K e, and there is at most one try: every idempotent is
      q-fixed, so with no such element e is primitive.  Over Q, where A e
      is semisimple, b runs over `_splitter_candidates` until m factors,
      or is irreducible of degree dim A e, when A e is a field;
    * how m is split.  Over GF(q), m has distinct roots r in GF(q)
      (`poly_roots`), and `_lagrange_idempotents` makes every E_r in one
      pass.  Over Q, m is squarefree, and every factor of
      `poly_factor_rational(m)` goes to `_crt_idempotents` in one step.

    Each split is certified by its splitter: g(b) E_g = 0 for every factor
    g, evaluated by Horner's rule with the often sparse b on the left, and
    sum_g E_g = e.  That makes the E_g orthogonal idempotents.  For
    coprime g != h, Bezout gives u g + v h = 1, so any x with g(b) x =
    h(b) x = 0 is x = u(b) g(b) x + v(b) h(b) x = 0; E_g E_h is such an x,
    so E_g E_h = 0.  Next, E_g e = E_g: when g(0) != 0, E_g = g(0)^-1
    (g(0) - g(b)) E_g is a multiple of b, which lies in A e; the one
    factor with g(0) = 0, t up to a constant, has E_g = e - sum_(h != g)
    E_h.  So E_g = E_g e = sum_h E_g E_h = E_g^2.  For g = t - r the check
    is one product, b E_r = r E_r; a factor of degree d costs d."""
    vectors = list(basis.values())
    if len(vectors) == 1:
        return [(e, vectors, None)]
    field = fd.field
    finite = field.is_finite()
    splitters = (_fixed_splitter(fd, e, basis) if finite else
                 _splitter_candidates(fd, vectors, rng))
    for b in splitters:
        m, powers = _krylov(fd, b, e)
        if finite:
            roots = poly_roots(field, m)
            certify(len(roots) == len(m) - 1,
                    "a q-fixed element splits over GF(q)")
            factors = [(field.reduce(field.raw_neg(r)), field.raw_one)
                       for r in roots]
            family = _lagrange_idempotents(fd, powers, m, roots)
        else:
            factors = poly_factor_rational(m)
            if len(factors) < 2:
                if len(m) - 1 == len(basis):
                    # irreducible minimal polynomial of full degree: a field
                    certify(factors[0][1] == 1, "the minimal polynomial of "
                            "a field generator has a repeated factor")
                    return [(e, vectors, (b, m))]
                continue
            factors = [tuple(map(field._canonical, g)) for g, _ in factors]
            family = _crt_idempotents(fd, powers, m, factors)
        for g, f in zip(factors, family):
            # g(b) f = 0 as b v = -g(0) f, v = (g_d b^(d-1) + ... + g_1) f
            v = fd.scale(f, g[-1])
            for c in g[-2:0:-1]:
                v = fd.add(fd.mul(b, v), fd.scale(f, c))
            certify(fd.mul(b, v) == fd.scale(f, field.reduce(
                field.raw_neg(g[0]))),
                "a split idempotent is not annihilated by its factor at b")
        certify(linear_combination(fd, repeat(field.raw_one), family) == e,
                "the split idempotents do not sum to the corner identity")
        if len(family) == len(basis):
            # every corner is the line through its idempotent
            return [(f, [f], None) for f in family]
        return [leaf for f in family if not fd.is_zero(f)
                for leaf in _split(fd, f, corner_basis(fd, f, basis), rng)]
    if finite:
        return [(e, vectors, None)]
    raise ConditionsNotMet(
        "no splitting element found; the algebra resisted decomposition")


def primitive_idempotents(fd, seed=0):
    """The complete set of primitive idempotents of a commutative algebra
    A, in the order `_split` hands them out.

    Over GF(q), `_split` splits A itself, radical or not, along q-fixed
    elements.  Over Q it splits A / J for the certified radical J, where
    every corner is semisimple, and the primitives of A / J lift to A by
    `lift_idempotents`: an idempotent lifts uniquely along a nil ideal of
    a commutative algebra.  The lifts e_i stay orthogonal, and each premise
    of that is a certificate that has run: J is certified nilpotent by
    `jacobson_radical`; `lift_idempotents` certifies each e_i idempotent
    and congruent to its image in A / J; and the split certifies those
    images orthogonal.  So for i != j, e_i e_j lies in J and is idempotent,
    (e_i e_j)^2 = e_i^2 e_j^2, and an idempotent f of a nilpotent ideal is
    f = f^n = 0.  The set is complete, sum 1, without a check of its own:
    each split sums to the identity of the corner it splits, so the
    primitives of A / J sum to 1; then sum_i e_i is idempotent and
    congruent to 1, and 1 - sum_i e_i, an idempotent in J, is 0.  The set
    is kept on `fd` per seed, so a later call returns the same certified
    tuple, with the split's leaves for `fields_decomposition`.
    """
    if seed in fd._primitives:
        return fd._primitives[seed][0]
    comm, witness = fd.is_commutative()
    if not comm:
        raise NotCommutative(
            f"primitive idempotents need a commutative algebra; "
            f"{witness[0]} and {witness[1]} do not commute", witness)
    Q = None if fd.field.is_finite() else jacobson_radical(fd).quotient
    A = Q.fd if Q else fd
    # the standard basis is corner_basis(A, A.one) without its products
    leaves = _split(A, A.one, {i: A.basis_vec(i) for i in range(A.dim)},
                    random.Random(seed))
    prims = [e for e, _, _ in leaves]
    if Q:
        prims = lift_idempotents(fd, jacobson_radical(fd),
                                 list(map(Q.lift, prims)))
    fd._primitives[seed] = tuple(prims), leaves
    return fd._primitives[seed][0]


def count_idempotents(fd, seed=0):
    """Number of idempotents: 2^(number of primitives) of the kept
    `fields_decomposition` when commutative, the closed form of
    `BlockStructure.idempotent_count` otherwise."""
    comm, _ = fd.is_commutative()
    if comm:
        return 2 ** len(fields_decomposition(fd, seed).primitives)
    return block_structure(fd).idempotent_count()


def count_units(fd, seed=0):
    """Number of units: q^(dim J) * prod_i (q^(d_i) - 1) over the field
    components of the kept A / J when commutative, the closed form of
    `BlockStructure.unit_count` otherwise."""
    comm, _ = fd.is_commutative()
    if not comm:
        return block_structure(fd).unit_count()
    q = fd.field.size()
    if q is None:
        raise TooLargeToCount("an algebra over Q has infinitely many units")
    rad = jacobson_radical(fd)
    bar = rad.quotient.fd if rad.quotient else fd
    total = q ** len(rad.basis)
    for c in fields_decomposition(bar, seed).components:
        total *= q ** c.dim - 1
    return total


# --- Wedderburn blocks ----------------------------------------------------------


class BlockStructure:
    """A finite algebra A read through its radical J and the blocks of
    A / J = sum_i M_{n_i}(GF(q^{d_i})).

    `radical` is the record `jacobson_radical` keeps on A, `blocks`
    holds (n_i, d_i) and `coupling[i][j]` is dim f_i J f_j for idempotent
    lifts f_i of the central idempotents of A / J.  Over the rationals
    only the radical is decided, and `blocks` is None.
    """

    def __init__(self, field_size, radical, blocks=None, coupling=None):
        self.field_size = field_size
        self.radical = radical
        self.blocks = blocks
        self.coupling = coupling

    def _decided(self):
        if self.blocks is None:
            raise TooLargeToCount(
                "the idempotent and unit counts of a noncommutative "
                "algebra are not decided over Q")

    def idempotent_count(self):
        """Sum over rank vectors r of prod_i (idempotents of rank r_i in
        M_{n_i}(GF(q_i))) * q^delta(r), factored over the components of
        the graph joining blocks i != j with J_ij + J_ji > 0."""
        self._decided()
        q, blocks, J = self.field_size, self.blocks, self.coupling
        total = 1
        for comp in _components(J):
            total_c = 0
            for r in itertools.product(*(range(blocks[i][0] + 1)
                                         for i in comp)):
                term = 1
                for ri, i in zip(r, comp):
                    n, d = blocks[i]
                    term *= _rank_idempotents(n, ri, q ** d)
                delta = 0
                for ri, i in zip(r, comp):
                    for rj, j in zip(r, comp):
                        ni, nj = blocks[i][0], blocks[j][0]
                        delta += J[i][j] // (ni * nj) * (
                            ri * (nj - rj) + (ni - ri) * rj)
                total_c += term * q ** delta
            total *= total_c
        return total

    def unit_count(self):
        """|U(A)| = q^(dim J) * prod_i |GL_{n_i}(GF(q^{d_i}))|."""
        self._decided()
        q = self.field_size
        total = q ** len(self.radical.basis)
        for n, d in self.blocks:
            Q = q ** d
            for k in range(n):
                total *= Q ** n - Q ** k
        return total


def _rank_idempotents(n, r, Q):
    """Idempotents of rank r in M_n(GF(Q)): Q^(r(n-r)) * [n choose r]_Q,
    one per pair of complementary subspaces of dimensions r and n - r."""
    num = den = 1
    for k in range(r):
        num *= Q ** (n - k) - 1
        den *= Q ** (k + 1) - 1
    return Q ** (r * (n - r)) * (num // den)


def _components(J):
    """The connected components of the blocks, i and j joined when
    J_ij + J_ji > 0."""
    seen, comps = set(), []
    for start in range(len(J)):
        if start in seen:
            continue
        seen.add(start)
        comp, stack = [], [start]
        while stack:
            i = stack.pop()
            comp.append(i)
            for j in range(len(J)):
                if j not in seen and J[i][j] + J[j][i]:
                    seen.add(j)
                    stack.append(j)
        comps.append(sorted(comp))
    return comps


def block_structure(fd):
    """The certified radical and, over a finite field, the Wedderburn
    blocks of A / J and their radical coupling (see `BlockStructure`).

    Kept on `fd`, so a report that reads the radical and then counts
    idempotents certifies the radical once.
    """
    if fd._blocks is None:
        fd._blocks = _block_structure(fd)
    return fd._blocks


def _block_structure(fd):
    rad = jacobson_radical(fd)
    field = fd.field
    if not field.is_finite():
        return BlockStructure(None, rad)
    Q = rad.quotient
    bar = Q.fd if Q else fd
    # the center of A / J: the kernel of x -> ([x, b_j])_j, one row per
    # (j, k) coordinate of a commutator, entry i = c_ijk - c_jik, read off
    # the nonzero cells in one pass; the kernel comes from the unique
    # reduced echelon form, so neither the order of the rows nor a zero
    # row can change it
    zero, add, sub = field.raw_zero, field.raw_add, field.raw_sub
    commutators = {}
    for i, row in enumerate(bar.rows):
        for j, terms in row:
            for k, c in terms:
                # c_ijk adds to entry i of row (j, k), subtracts from
                # entry j of row (i, k)
                r = commutators.setdefault((j, k), [zero] * bar.dim)
                r[i] = add(r[i], c)
                r = commutators.setdefault((i, k), [zero] * bar.dim)
                r[j] = sub(r[j], c)
    rows = [list(map(field.reduce, r)) for r in commutators.values()]
    center = linalg.kernel_basis(field, rows, bar.dim)
    Z = Subquotient(bar, [], center, bar.one)
    blocks, central = [], []
    for z in primitive_idempotents(Z.fd):
        c = Z.lift(z)
        d = span_of(Z.fd, [Z.fd.mul(z, Z.fd.basis_vec(k))
                           for k in range(Z.fd.dim)]).dim
        block_dim = span_of(bar, [bar.mul(bar.basis_vec(k), c)
                                  for k in range(bar.dim)]).dim
        n = math.isqrt(block_dim // d)
        certify(n * n * d == block_dim,
                f"a block of dimension {block_dim} over a center of "
                f"dimension {d} is no full matrix algebra")
        blocks.append((n, d))
        central.append(c)
    lifts = central
    if Q:
        lifts = lift_idempotents(fd, rad, [Q.lift(c) for c in central])
    for f in lifts:
        certify(fd.is_idempotent(f), "block idempotent lift is not idempotent")
    certify(sum(n * n * d for n, d in blocks) == bar.dim,
            "the blocks do not fill the semisimple quotient")
    k = len(blocks)
    J = [[0] * k for _ in range(k)]
    if rad.basis:
        for j, fj in enumerate(lifts):
            right = [fd.mul(r, fj) for r in rad.basis]
            for i, fi in enumerate(lifts):
                J[i][j] = span_of(fd, [fd.mul(fi, x) for x in right]).dim
                ni, nj = blocks[i][0], blocks[j][0]
                certify(J[i][j] % (ni * nj) == 0,
                        f"dim f_{i} J f_{j} = {J[i][j]} is not a multiple of "
                        f"{ni * nj}, so a rank term would not be an integer")
        certify(sum(map(sum, J)) == len(rad.basis),
                "the block couplings do not add up to the radical")
    return BlockStructure(field.size(), rad, blocks, J)


# --- sum-of-fields certificates ------------------------------------------------


class FieldComponent:
    def __init__(self, dim, description, generator, min_poly, idempotent):
        self.dim = dim
        self.description = description
        self.generator = generator
        self.min_poly = min_poly
        self.idempotent = idempotent


class DecompositionReport:
    def __init__(self, is_sum_of_fields, reason, witness, components,
                 radical=None, primitives=None):
        self.is_sum_of_fields = is_sum_of_fields
        self.reason = reason
        self.witness = witness
        self.components = components
        self.radical = radical          # None when noncommutative
        self.primitives = primitives    # tuple, None when noncommutative


def _field_certificate(fd, e, basis, rng):
    """A generator of the corner A e over GF(q) spanned by `basis`, its
    minimal polynomial irreducible of full degree: A e is a field."""
    target = len(basis)
    for cand in _splitter_candidates(fd, basis, rng):
        m = minimal_polynomial(fd, cand, e)
        if len(m) - 1 == target and poly_irreducible(fd.field, m):
            return cand, m
    raise ConditionsNotMet("no primitive element found for a field corner")


def fields_decomposition(fd, seed=0):
    """Decide whether the algebra is a finite direct sum of fields, with a
    certificate either way.

    A commutative algebra's report also carries the certified radical,
    the record `jacobson_radical` keeps, and the primitive idempotents the
    decision rests on; 2^len(primitives) is its idempotent count.  Both
    are None for a noncommutative algebra.
    The report is kept on `fd` per seed once its certificates have passed.
    """
    if seed not in fd._decompositions:
        fd._decompositions[seed] = _fields_decomposition(fd, seed)
    return fd._decompositions[seed]


def _fields_decomposition(fd, seed):
    comm, witness = fd.is_commutative()
    if not comm:
        return DecompositionReport(False, "noncommutative", witness, [])
    rad = jacobson_radical(fd)
    prims = primitive_idempotents(fd, seed)
    if rad.basis:
        return DecompositionReport(False, "nonzero radical",
                                   rad.basis[0], [], rad, prims)
    # with no radical the split ran on fd itself, over Q as over GF(q)
    rng = random.Random(seed)
    components = [_field_component(fd, leaf, rng)
                  for leaf in fd._primitives[seed][1]]
    return DecompositionReport(True, "", None, components, rad, prims)


def _field_component(fd, leaf, rng):
    """The field component A e at a leaf (e, basis, generator) of
    `_split`.  A line K e has generator e and minimal polynomial t - 1; a
    larger corner keeps the leaf's generator over Q, and over GF(q) is
    certified a field by `_field_certificate`."""
    e, basis, generator = leaf
    certify(not fd.is_zero(e), "primitive idempotents are nonzero")
    field = fd.field
    d = len(basis)
    if d == 1:
        generator = e, (field.from_int(-1).value, field.raw_one)
    elif generator is None:
        generator = _field_certificate(fd, e, basis, rng)
    desc = (f"GF({field.size()}^{d})" if field.is_finite()
            else f"degree-{d} extension of Q")
    return FieldComponent(d, desc, *generator, e)


# --- idempotent lifting ----------------------------------------------------------


def lift_idempotents(fd, rad, xs):
    """Lift each x with x^2 - x in the radical to an honest idempotent
    congruent to x modulo it.  ``rad`` is the certified `RadicalResult` of
    fd, whose certificate has already proved the radical nilpotent."""
    S = span_of(fd, rad.basis)
    for x in xs:
        if not S.contains(fd.sub(fd.mul(x, x), x)):
            raise ConditionsNotMet("x is not idempotent modulo the ideal")
    bound = fd.dim.bit_length() + 3
    lifts = []
    for x in xs:
        e = list(x)
        steps = 0
        while not fd.is_idempotent(e):
            e = _lift_step(fd, e)
            steps += 1
            certify(steps <= bound, "idempotent lifting failed to converge")
        certify(S.contains(fd.sub(e, x)),
                "lift drifted from x modulo the ideal")
        lifts.append(e)
    return lifts


def _lift_step(fd, e):
    """One Newton step e -> 3e^2 - 2e^3 toward the idempotent of K[e]: the
    defect e^2 - e becomes (e^2 - e)^2 (4e^2 - 4e - 3)."""
    field = fd.field
    e2 = fd.mul(e, e)
    return fd.sub(fd.scale(e2, field.from_int(3).value),
                  fd.scale(fd.mul(e2, e), field.from_int(2).value))
