"""The raw-value kernel of FDAlgebra, SpanBasis and the polynomial layer
against the implementations it replaced.

The reference functions below are the plain Scalar implementations the
kernel replaced: the product loop over the structure constants, the Scalar
echelon reduction and the Scalar whole-matrix elimination behind `rref`.
The kernel takes and returns canonical raw field values; only the
harness converts, drawing Scalar vectors for the references, handing
their raw values to the kernel, and wrapping each kernel result into
Scalars, which must equal the reference.  The drawn vectors include the
zero vector and vectors with one nonzero coordinate.  A raw value of
GF(p^k) is an int code, read and written here only through the test's
own `encode` and `decode`.  The algebras are twisted
group algebras of finite groups with random coboundary cocycles and
bundled twisted cocycles, over GF(p), GF(p^k) and Q, together with
quotients and corners built from them; the matrices are random, over
GF(2), GF(7), GF(4), GF(9) and Q.

The polynomial layer of `fields` is checked against the GF(p) tuple
helpers that extension-field arithmetic used before it, against trial
division for irreducibility, and against Scalar long division.  The
log/exp tables that GF(p^k) multiplies and inverts with are checked, on
every pair of elements of each bundled extension field, against products
on the polynomial layer and against inverses by the half-extended
Euclidean algorithm, `ref_poly_inv_mod`, which the tables replaced.

Commutativity read off the rows is checked against the product
loop it replaced, `ref_is_commutative`, and the Lagrange idempotents,
built by `_lagrange_idempotents` at the roots c_i from the powers of b,
against the n(n-1)-product chain they replaced,
`ref_lagrange_idempotents`, on the torsion subalgebras of every valid
bundled instance and on drawn tables and elements.  On the commutative
ones, the corner at each primitive idempotent e, spanned by the products
b_i e, is checked against the two-sided corner e (b_i e) it replaced,
`ref_corner`, and every primitive family over GF(q), certified one split
at a time by its splitter, against the whole-family check it replaced,
`ref_family_defect`: pairwise idempotent, pairwise orthogonal, sum 1.  A second request for an algebra's primitive idempotents
or field decomposition must cost no products, because the certified
answer is kept on the algebra.
"""

import itertools
import operator
import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcunits import cli, linalg
from fcunits.algebra import TwistedGroupAlgebra
from fcunits.cocycles import coboundary
from fcunits.fc import instance_from_json
from fcunits import fields
from fcunits.errors import CertificateFailed, DivisionByZero
from fcunits.fields import (
    Scalar,
    gf,
    make_field,
    poly_divmod,
    poly_irreducible,
    poly_mul,
    poly_sub,
    poly_trim,
    rationals,
)
from fcunits.groups import (
    Element,
    Group,
    cyclic_table,
    finite_subgroup,
    make_group,
    symmetric_group_3_table,
)
from fcunits.structure import (
    FDAlgebra,
    FiniteSubalgebra,
    GroupFDAlgebra,
    Subquotient,
    _krylov,
    _lagrange_idempotents,
    _trace_form_kernel,
    corner_algebra,
    count_idempotents,
    fields_decomposition,
    jacobson_radical,
    linear_combination,
    minimal_polynomial,
    primitive_idempotents,
    quotient_algebra,
)


def raw(vec):
    return [c.value for c in vec]


def scalars(field, vec):
    return [Scalar(field, c) for c in vec]


# --- Scalar references ---------------------------------------------------------


def cells(fd):
    """The structure constants as {(i, j): {k: c}}, read off the rows."""
    return {(i, j): dict(terms) for i, row in enumerate(fd.rows)
            for j, terms in row}


def rows_of(table, dim, zero):
    """The rows of a {(i, j): {k: c}} table, zero terms and cells
    dropped, in the order of the table's pairs."""
    rows = [[] for _ in range(dim)]
    for (i, j), cell in table.items():
        terms = [(k, c) for k, c in cell.items() if c != zero]
        if terms:
            rows[i].append((j, terms))
    return rows


def ref_mul(fd, x, y):
    """The product loop on Scalars, reading the raw cells."""
    field, table = fd.field, cells(fd)
    out = [field.zero] * fd.dim
    for i, xi in enumerate(x):
        if not xi:
            continue
        for j, yj in enumerate(y):
            if not yj:
                continue
            cell = table.get((i, j))
            if not cell:
                continue
            c = xi * yj
            for k, s in cell.items():
                out[k] = out[k] + c * Scalar(field, s)
    return out


def ref_power(fd, x, n):
    result = scalars(fd.field, fd.one)
    for _ in range(n):
        result = ref_mul(fd, result, x)
    return result


class RefSpanBasis:
    def __init__(self, field):
        self.field = field
        self.rows = []
        self.leads = []
        self.combos = []
        self.inserted = []

    def reduce(self, vec):
        v = list(vec)
        coeffs = [self.field.zero] * len(self.rows)
        for i, (row, lead) in enumerate(zip(self.rows, self.leads)):
            c = v[lead]
            if c:
                coeffs[i] = c
                v = [x - c * y for x, y in zip(v, row)]
        return v, coeffs

    def coordinates(self, vec):
        v, coeffs = self.reduce(vec)
        if any(v):
            return None
        out = [self.field.zero] * len(self.inserted)
        for c, combo in zip(coeffs, self.combos):
            if c:
                for j, w in enumerate(combo):
                    out[j] = out[j] + c * w
        return out

    def add(self, vec):
        v, coeffs = self.reduce(vec)
        lead = next((i for i, x in enumerate(v) if x), None)
        if lead is None:
            return False
        inv = v[lead].inv()
        v = [x * inv for x in v]
        combo = [self.field.zero] * (len(self.inserted) + 1)
        for c, prev in zip(coeffs, self.combos):
            if c:
                for j, w in enumerate(prev):
                    combo[j] = combo[j] - c * w
        combo[len(self.inserted)] = self.field.one
        combo = [c * inv for c in combo]
        self.inserted.append(list(vec))
        for existing in self.combos:
            existing.append(self.field.zero)
        for i, row in enumerate(self.rows):
            c = row[lead]
            if c:
                self.rows[i] = [x - c * y for x, y in zip(row, v)]
                self.combos[i] = [x - c * y
                                  for x, y in zip(self.combos[i], combo)]
        self.rows.append(v)
        self.leads.append(lead)
        self.combos.append(combo)
        return True


def ref_rref(field, rows):
    R = [list(r) for r in rows]
    pivots = []
    lead = 0
    ncols = len(R[0]) if R else 0
    for col in range(ncols):
        pivot_row = None
        for i in range(lead, len(R)):
            if R[i][col]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        R[lead], R[pivot_row] = R[pivot_row], R[lead]
        inv = R[lead][col].inv()
        R[lead] = [x * inv for x in R[lead]]
        for i in range(len(R)):
            if i != lead and R[i][col]:
                c = R[i][col]
                R[i] = [x - c * y for x, y in zip(R[i], R[lead])]
        pivots.append(col)
        lead += 1
        if lead == len(R):
            break
    return R, pivots


def ref_kernel_basis(field, rows, ncols):
    R, pivots = ref_rref(field, rows)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = [field.zero] * ncols
        vec[free] = field.one
        for i, col in enumerate(pivots):
            vec[col] = -R[i][free]
        basis.append(vec)
    return basis


def ref_solve(field, rows, rhs):
    n = len(rows[0]) if rows else 0
    R, pivots = ref_rref(field, [list(r) + [b] for r, b in zip(rows, rhs)])
    if n in pivots:
        return None
    x = [field.zero] * n
    for i, col in enumerate(pivots):
        x[col] = R[i][n]
    return x


def ref_count_idempotents(fd):
    return sum(1 for combo in itertools.product(fd.field.elements(),
                                                repeat=fd.dim)
               if ref_mul(fd, combo, combo) == list(combo))


# --- algebras --------------------------------------------------------------------

GF4 = gf(2, 2, [1, 1, 1])
GF9 = gf(3, 2, [1, 0, 1])
Q = rationals()


def cayley(table):
    return make_group({"kind": "cayley", "table": table})


def random_scalar(field, rng):
    if field is Q:
        return Q.scalar(Fraction(rng.choice([-3, -1, 1, 2, 5]),
                                 rng.choice([1, 2, 3])))
    return rng.choice(list(filter(None, field.elements())))


def coboundary_subalgebra(group, field, rng):
    mu = [random_scalar(field, rng) for _ in range(group.torsion.size)]
    alg = TwistedGroupAlgebra(group, field, coboundary(group, field, mu))
    whole = finite_subgroup(group, list(group.torsion_elements()))
    return FiniteSubalgebra(alg, whole)


def coboundary_algebra(group, field, rng):
    return coboundary_subalgebra(group, field, rng).fd


def bundled_algebra(name):
    return instance_from_json(cli.bundled_instance(name)) \
        .torsion_subalgebra().fd


def derived(fd):
    """Quotient by the radical, or corners at the primitive idempotents."""
    radical = jacobson_radical(fd).basis
    if radical:
        yield quotient_algebra(fd, radical).fd
    elif fd.is_commutative()[0]:
        for e in primitive_idempotents(fd):
            yield corner_algebra(fd, e).fd


def _algebras():
    rng = random.Random(20240)
    base = [
        coboundary_algebra(cayley(cyclic_table(4)), gf(2), rng),
        coboundary_algebra(cayley(cyclic_table(4)), gf(5), rng),
        coboundary_algebra(cayley(cyclic_table(3)), GF4, rng),
        coboundary_algebra(cayley(cyclic_table(6)), gf(3), rng),
        coboundary_algebra(cayley(symmetric_group_3_table()), gf(2), rng),
        coboundary_algebra(cayley(symmetric_group_3_table()), gf(7), rng),
        coboundary_algebra(cayley(cyclic_table(2)), GF9, rng),
        coboundary_algebra(cayley(cyclic_table(3)), Q, rng),
        coboundary_algebra(cayley(cyclic_table(4)), Q, rng),
        bundled_algebra("c2_z2_gf4_twisted"),
        bundled_algebra("c3_z_rationals"),
        bundled_algebra("s3_z_gf5"),
        bundled_algebra("lemma3/c4_gf9"),
    ]
    return base + [d for fd in base for d in derived(fd)]


ALGEBRAS = _algebras()


def raw_values(field):
    if field is Q:
        return st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
    return st.integers(0, field.size() - 1)


def vectors(fd):
    """Scalar vectors of fd: the zero vector, one nonzero coordinate, or
    a third of the coordinates zero, so sparse vectors are common."""
    field = fd.field
    zero = [field.zero] * fd.dim
    value = st.one_of(st.just(field.raw_zero), raw_values(field))
    nonzero = raw_values(field).filter(lambda c: c != field.raw_zero)

    def single(i, c):
        v = list(zero)
        v[i] = Scalar(field, c)
        return v
    return st.one_of(
        st.just(zero),
        st.builds(single, st.integers(0, fd.dim - 1), nonzero),
        st.lists(value.map(lambda c: Scalar(field, c)), min_size=fd.dim,
                 max_size=fd.dim))


def assert_canonical(field, vec):
    """vec is a list of canonical raw values of field: ints in [0, q) over
    a finite field, Fractions over Q."""
    for c in vec:
        assert type(c) is type(field.raw_zero)
        assert not field.is_finite() or 0 <= c < field.size()


def encode(F, coeffs):
    """The raw value over GF(p^k) of the residue with these coefficients,
    constant first: the base-p number whose leading digit is the constant
    coefficient."""
    code = 0
    for c in tuple(coeffs) + (0,) * (F.k - len(coeffs)):
        code = code * F.p + c % F.p
    return code


def decode(F, code):
    """The k coefficients of a raw value over GF(p^k), constant first."""
    digits = []
    for _ in range(F.k):
        code, c = divmod(code, F.p)
        digits.append(c)
    return tuple(reversed(digits))


# --- FDAlgebra ---------------------------------------------------------------------


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_products_match_the_scalar_loop(data):
    fd = data.draw(st.sampled_from(ALGEBRAS))
    F = fd.field
    x = data.draw(vectors(fd))
    y = data.draw(vectors(fd))
    n = data.draw(st.integers(0, 5))
    product = fd.mul(raw(x), raw(y))
    assert scalars(F, product) == ref_mul(fd, x, y)
    assert_canonical(F, product)
    power = fd.power(raw(x), n)
    assert scalars(F, power) == ref_power(fd, x, n)
    assert_canonical(F, power)
    for v in (x, y, scalars(F, product), scalars(F, fd.one),
              scalars(F, fd.zero_vec())):
        assert fd.is_idempotent(raw(v)) == (ref_mul(fd, v, v) == v)
        assert fd.is_zero(raw(v)) == (not any(v))
    columns = [ref_mul(fd, x, scalars(F, fd.basis_vec(j)))
               for j in range(fd.dim)]
    M = fd.left_mult_matrix(raw(x))
    assert [scalars(F, row) for row in M] == \
        [[col[i] for col in columns] for i in range(fd.dim)]
    for row in M:
        assert_canonical(F, row)
    # Tr(L_x) is linear in x: its dot product with the trace vector
    trace = sum(map(operator.mul, x, scalars(F, fd.trace_vector())), F.zero)
    assert trace == sum((Scalar(F, M[i][i]) for i in range(fd.dim)), F.zero)
    assert_canonical(F, fd.trace_vector())


EXTENSION_SUBALGEBRAS = [
    coboundary_subalgebra(cayley(table), F, random.Random(7))
    for F in (GF4, GF9)
    for table in (cyclic_table(3), symmetric_group_3_table())]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_raw_zero_over_extension_fields(data):
    # every zero test over GF(4) and GF(9) reads the raw zero: is_zero, the
    # support to_ambient keeps, and the terms an ambient sum drops
    S = data.draw(st.sampled_from(EXTENSION_SUBALGEBRAS))
    fd = S.fd
    assert fd.is_zero(fd.zero_vec())
    v = raw(data.draw(vectors(fd)))
    support = {g for g, c in zip(S.subgroup.elements, v)
               if c != fd.field.raw_zero}
    element = S.to_ambient(v)
    assert set(element.terms) == support
    assert fd.is_zero(v) == (not support)
    assert S.from_ambient(element) == v
    assert not (element - element).terms
    assert S.to_ambient(fd.zero_vec()) == S.algebra.zero


def test_idempotents_and_commutativity_match_the_scalar_loop():
    for fd in ALGEBRAS:
        basis = [scalars(fd.field, fd.basis_vec(i)) for i in range(fd.dim)]
        commutative = all(ref_mul(fd, a, b) == ref_mul(fd, b, a)
                          for a, b in itertools.combinations(basis, 2))
        assert fd.is_commutative()[0] == commutative
        if commutative:
            for e in primitive_idempotents(fd):
                e = scalars(fd.field, e)
                assert fd.is_idempotent(raw(e)) and ref_mul(fd, e, e) == e
        if fd.field.is_finite() and fd.field.size() ** fd.dim <= 1024:
            assert count_idempotents(fd) == ref_count_idempotents(fd)


# --- table commutativity, Lagrange idempotents, cached facts -----------------------


def ref_is_commutative(fd):
    """Basis products e_i e_j against e_j e_i, the loop the table read
    replaced."""
    zero, one = fd.field.raw_zero, fd.field.raw_one
    e = [[one if k == i else zero for k in range(fd.dim)]
         for i in range(fd.dim)]
    for i in range(fd.dim):
        for j in range(i + 1, fd.dim):
            if fd.mul(e[i], e[j]) != fd.mul(e[j], e[i]):
                return False, (fd.label(i), fd.label(j))
    return True, None


def ref_lagrange_idempotents(fd, b, roots):
    """prod_{j != i} (b - c_j) / (c_i - c_j) as a chain of n - 1 products
    per root; b and the roots are Scalars."""
    one = scalars(fd.field, fd.one)
    out = []
    for ci in roots:
        e = one
        for cj in roots:
            if cj == ci:
                continue
            factor = [(x - cj * u) * (ci - cj).inv() for x, u in zip(b, one)]
            e = ref_mul(fd, e, factor)
        out.append(e)
    return out


def bundled_torsion_subalgebra(name):
    """The torsion subalgebra a structure report of the bundled instance
    reads, Pruefer part truncated at the instance's truncation level."""
    inst = instance_from_json(cli.bundled_instance(name))
    level = inst.caps.truncation_level if inst.group.prufer else 0
    return inst.torsion_subalgebra(level)


def bundled_torsion_algebra(name):
    return bundled_torsion_subalgebra(name).fd


def klein_twisted_sub():
    """C2 x C2 over GF(3) twisted into the 2 x 2 matrix algebra."""
    return instance_from_json({
        "field": {"kind": "prime-power", "p": 3},
        "group": {"kind": "central-extension", "rank": 0,
                  "torsion": {"invariants": [2, 2]}},
        "cocycle": {"torsion_table": {"(1,2)": 2, "(1,3)": 2, "(3,2)": 2,
                                      "(3,3)": 2}},
    }).torsion_subalgebra()


def klein_twisted_fd():
    return klein_twisted_sub().fd


BUNDLED_NAMES = [n for n in cli.bundled_names() if n != "broken_cocycle"] \
    + [f"lemma3/{n}" for n in cli.bundled_names("lemma3")]
BUNDLED = [bundled_torsion_algebra(n) for n in BUNDLED_NAMES]
SPLIT_ALGEBRAS = [fd for fd in BUNDLED + ALGEBRAS if fd.is_commutative()[0]]


def test_table_commutativity_matches_the_product_loop():
    assert len(BUNDLED) == 31
    klein = klein_twisted_fd()
    assert not klein.is_commutative()[0]
    for fd in BUNDLED + ALGEBRAS + [klein]:
        assert fd.is_commutative() == ref_is_commutative(fd)


TABLE_FIELDS = [gf(2), gf(7), GF4, GF9, Q]


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_table_commutativity_matches_on_drawn_tables(data):
    # cells may be empty, a drawn zero term is dropped from the rows, and
    # each mirrored cell is mostly a copy in reverse insertion order, so
    # both verdicts and every witness position occur, and equal cells need
    # not list terms alike
    field = data.draw(st.sampled_from(TABLE_FIELDS))
    dim = data.draw(st.integers(1, 4))
    cell = st.dictionaries(st.integers(0, dim - 1), raw_values(field),
                           max_size=2)
    table = {}
    for i, j in itertools.combinations_with_replacement(range(dim), 2):
        table[(i, j)] = data.draw(cell)
        mirror = dict(reversed(table[(i, j)].items()))
        table[(j, i)] = data.draw(st.one_of(st.just(mirror), cell))
    fd = FDAlgebra(field, rows_of(table, dim, field.raw_zero),
                   [field.raw_zero] * dim)
    assert fd.is_commutative() == ref_is_commutative(fd)


# --- the monomial law of the torsion subalgebra ------------------------------------


def closure_table(identity, generators, mul):
    """The Cayley table of the group the generators close to under mul,
    the identity first."""
    els = [identity]
    for a in els:
        for g in generators:
            c = mul(a, g)
            if c not in els:
                els.append(c)
    index = {e: i for i, e in enumerate(els)}
    return [[index[mul(a, b)] for b in els] for a in els]


def quaternion_table():
    """Q8 as the 2 x 2 matrices over GF(3) that i and j generate."""
    def mul(a, b):
        return tuple(sum(a[2 * r + k] * b[2 * k + c] for k in range(2)) % 3
                     for r in range(2) for c in range(2))
    return closure_table((1, 0, 0, 1), [(0, 1, 2, 0), (1, 1, 1, 2)], mul)


def heisenberg_table():
    """The Heisenberg group of order 27, (a, b, c)(x, y, z) =
    (a + x, b + y, c + z + a y) mod 3."""
    def mul(g, h):
        (a, b, c), (x, y, z) = g, h
        return (a + x) % 3, (b + y) % 3, (c + z + a * y) % 3
    return closure_table((0, 0, 0), [(1, 0, 0), (0, 1, 0)], mul)


def plain_twin(sub):
    """The plain FDAlgebra of a FiniteSubalgebra, its rows built from
    Element products and the subgroup's index, the loop the key table
    replaced, and answered by the generic code."""
    algebra, W, field = sub.algebra, sub.subgroup, sub.algebra.field
    lam, gmul = algebra.cocycle.raw, algebra.group.mul
    rows = [[(j, [(W.index_of[gmul(g, h)], lam(g, h))])
             for j, h in enumerate(W.elements)] for g in W.elements]
    one = [field.raw_zero] * len(W)
    one[W.index_of[algebra.group.identity]] = field.raw_one
    return FDAlgebra(field, rows, one, sub.fd.label)


def ref_trace_form_kernel(fd):
    """Tr(L_{b_i b_j}) as the trace vector's dot product with the full
    product b_i b_j, the loop the table read replaced."""
    F, tr = fd.field, scalars(fd.field, fd.trace_vector())
    rows = [[sum(map(operator.mul, tr, scalars(F, fd.mul(fd.basis_vec(i),
                                                          fd.basis_vec(j)))),
                 F.zero).value for j in range(fd.dim)]
            for i in range(fd.dim)]
    return linalg.kernel_basis(F, rows, fd.dim)


def assert_same_algebra(fd, ref):
    """A GroupFDAlgebra against a plain FDAlgebra of the same rows: rows,
    basis powers at 0, 2, p, q and the least p^m >= dim, commutativity
    with its witness, traces and the trace-form kernel."""
    assert type(fd) is GroupFDAlgebra
    assert fd.rows == ref.rows and fd.one == ref.one
    p = fd.field.characteristic
    exponents = {0, 2, 3, 5}
    if p:
        pm = 1
        while pm < fd.dim:
            pm *= p
        exponents = {0, 2, p, fd.field.size(), pm}
    for n in sorted(exponents):
        assert fd.basis_powers(n) == ref.basis_powers(n), n
    assert fd.is_commutative() == ref.is_commutative()
    assert fd.trace_vector() == ref.trace_vector()
    assert _trace_form_kernel(fd) == _trace_form_kernel(ref) \
        == ref_trace_form_kernel(ref)


def assert_monomial_law_matches(sub):
    """A fresh GroupFDAlgebra of sub against its plain twin."""
    assert_same_algebra(FiniteSubalgebra(sub.algebra, sub.subgroup).fd,
                        plain_twin(sub))


def twisted_whole(group, field, mu=None):
    """The FiniteSubalgebra over all of group's torsion, with the
    coboundary of mu when given."""
    cocycle = None if mu is None else coboundary(group, field, mu)
    alg = TwistedGroupAlgebra(group, field, cocycle)
    return FiniteSubalgebra(
        alg, finite_subgroup(group, list(group.torsion_elements())))


def test_monomial_law_matches_the_generic_algebra():
    inst = instance_from_json(cli.bundled_instance("prufer2_gf257"))
    subs = [bundled_torsion_subalgebra(name) for name in BUNDLED_NAMES]
    # every Pruefer level whose 2^level units fit MAX_TORSION = 64
    subs += [inst.torsion_subalgebra(level) for level in range(7)]
    noncommutative = [
        twisted_whole(cayley(symmetric_group_3_table()), gf(7)),
        twisted_whole(cayley(symmetric_group_3_table()), gf(2)),
        twisted_whole(cayley(quaternion_table()), gf(3)),
        twisted_whole(cayley(quaternion_table()), GF9),
        twisted_whole(cayley(heisenberg_table()), gf(2)),
        twisted_whole(cayley(heisenberg_table()), gf(3)),
        klein_twisted_sub(),
    ]
    assert not any(sub.fd.is_commutative()[0] for sub in noncommutative)
    for sub in subs + noncommutative:
        assert_monomial_law_matches(sub)


def test_monomial_law_matches_with_the_identity_last():
    # the basis of the twisted Klein algebra reversed, so the identity is
    # the last basis vector; the group is abelian, and the other units
    # anticommute by the cocycle alone
    sub = klein_twisted_sub()
    fd = sub.fd
    n = fd.dim
    rev = [n - 1 - i for i in range(n)]
    moved = GroupFDAlgebra(
        fd.field, [[rev[fd.prod[a][b]] for b in rev] for a in rev],
        [[fd.lam[a][b] for b in rev] for a in rev], rev[fd.one_index],
        lambda i: fd.label(rev[i]))
    table = dict(sorted(
        ((rev[i], rev[j]), {rev[k]: c for k, c in cell.items()})
        for (i, j), cell in cells(plain_twin(sub)).items()))
    assert moved.one_index == n - 1 and not moved.is_commutative()[0]
    assert_same_algebra(moved, FDAlgebra(
        fd.field, rows_of(table, n, fd.field.raw_zero), moved.one,
        moved.label))


MONOMIAL_GROUPS = [cayley(cyclic_table(4)), cayley(symmetric_group_3_table()),
                   cayley(quaternion_table())]


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_monomial_law_matches_on_drawn_coboundaries(data):
    group = data.draw(st.sampled_from(MONOMIAL_GROUPS))
    field = data.draw(st.sampled_from(TABLE_FIELDS))
    nonzero = raw_values(field).filter(lambda c: c != field.raw_zero)
    mu = [Scalar(field, data.draw(nonzero))
          for _ in range(group.torsion.size)]
    assert_monomial_law_matches(twisted_whole(group, field, mu))


def test_the_key_table_makes_no_group_product(monkeypatch):
    sub = bundled_torsion_subalgebra("prufer2_gf257")

    def refuse(*args):
        raise AssertionError("the subalgebra's law is read off keys, and "
                             "a basis label is rendered only in a witness")
    monkeypatch.setattr(Group, "mul", refuse)
    monkeypatch.setattr(Element, "__hash__", refuse)
    monkeypatch.setattr(Element, "__repr__", refuse)
    fd = FiniteSubalgebra(sub.algebra, sub.subgroup).fd
    assert fd.rows == sub.fd.rows
    assert fd.is_commutative() == (True, None)
    # bench/tracer.py counts these two on FDAlgebra, so the subclass keeps
    # the generic ones
    assert GroupFDAlgebra.mul is FDAlgebra.mul
    assert GroupFDAlgebra.is_idempotent is FDAlgebra.is_idempotent


def assert_lagrange_matches(fd, coeffs):
    """b = sum_i c_i e_i over the primitive idempotents e_i has the
    distinct c_i as the roots of its minimal polynomial."""
    F = fd.field
    b = linear_combination(fd, raw(coeffs), primitive_idempotents(fd))
    m, powers = _krylov(fd, b, fd.one)
    roots = list(dict.fromkeys(raw(coeffs)))
    assert len(m) - 1 == len(roots)
    got = _lagrange_idempotents(fd, powers, m, roots)
    assert [scalars(F, e) for e in got] == ref_lagrange_idempotents(
        fd, scalars(F, b), scalars(F, roots))
    for e in got:
        assert_canonical(F, e)


def test_lagrange_idempotents_match_the_product_chain():
    for fd in SPLIT_ALGEBRAS:
        n = len(primitive_idempotents(fd))
        assert_lagrange_matches(fd, [fd.field.from_int(i + 1)
                                     for i in range(n)])


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_lagrange_idempotents_match_on_drawn_elements(data):
    fd = data.draw(st.sampled_from(SPLIT_ALGEBRAS))
    n = len(primitive_idempotents(fd))
    coeffs = data.draw(st.lists(raw_values(fd.field), min_size=n,
                                max_size=n))
    assert_lagrange_matches(fd, [Scalar(fd.field, c) for c in coeffs])


def ref_corner(fd, e):
    """The corner spanned by the vectors e (b_i e), for any parent."""
    return Subquotient(fd, [], [fd.mul(e, fd.mul(fd.basis_vec(i), e))
                                for i in range(fd.dim)], e)


def test_commutative_corners_match_the_two_sided_corner():
    commutative = [(name, fd) for name, fd in zip(BUNDLED_NAMES, BUNDLED)
                   if fd.is_commutative()[0]]
    assert len(commutative) == 30
    for name, fd in commutative:
        for e in primitive_idempotents(fd):
            corner, ref = corner_algebra(fd, e), ref_corner(fd, e)
            assert corner.basis == ref.basis, name
            assert corner.fd.rows == ref.fd.rows, name
            assert corner.fd.one == ref.fd.one, name


def ref_family_defect(fd, prims):
    """The first failure of the whole family on Scalars: some e_i zero or
    no idempotent, some pair with e_i e_j or e_j e_i nonzero, or a sum
    other than 1; None when the family is a complete orthogonal set."""
    zero = [fd.field.zero] * fd.dim
    es = [scalars(fd.field, e) for e in prims]
    for i, e in enumerate(es):
        if e == zero or ref_mul(fd, e, e) != e:
            return ("idempotent", i)
        for f in es[i + 1:]:
            if ref_mul(fd, e, f) != zero or ref_mul(fd, f, e) != zero:
                return ("orthogonal", i)
    total = zero
    for e in es:
        total = [a + b for a, b in zip(total, e)]
    return None if total == scalars(fd.field, fd.one) else ("sum",)


# p | n gives a radical (GF(3)[C3], GF(7)[C14], GF(2)[C12], GF(5)[C15]);
# a degree above 1 leaves a corner that the first split does not cut to
# lines, split again by the recursion (all but GF(3)[C3], which is local,
# and GF(11)[C10], which splits into lines at once)
CYCLIC_SPLITS = [(3, 4), (2, 12), (5, 15), (3, 3), (7, 14), (2, 7),
                 (5, 8), (11, 10), (2, 15)]


def test_finite_families_pass_the_whole_family_check():
    finite = [(name, fd) for name, fd in zip(BUNDLED_NAMES, BUNDLED)
              if fd.is_commutative()[0] and fd.field.is_finite()]
    assert len(finite) == 29
    rng = random.Random(25)
    finite += [((p, n), coboundary_algebra(cayley(cyclic_table(n)), gf(p),
                                           rng)) for p, n in CYCLIC_SPLITS]
    for name, fd in finite:
        assert ref_family_defect(fd, primitive_idempotents(fd)) is None, name
    # the reference sees each defect
    fd = bundled_algebra("gf3_c2_trivial")
    e1, e2 = primitive_idempotents(fd)
    assert ref_family_defect(fd, [fd.scale(e1, 2), e2])[0] == "idempotent"
    assert ref_family_defect(fd, [e1, e1, e1, fd.add(e1, e2)])[0] \
        == "orthogonal"
    assert ref_family_defect(fd, [e1]) == ("sum",)


@pytest.mark.parametrize("name", BUNDLED_NAMES + ["klein"])
def test_cached_structure_costs_no_products(name, monkeypatch):
    fd = klein_twisted_fd() if name == "klein" \
        else bundled_torsion_algebra(name)
    products = []
    original = fd.mul

    def counted(x, y):
        products.append(1)
        return original(x, y)
    monkeypatch.setattr(fd, "mul", counted)
    commutative = fd.is_commutative()[0]
    report = fields_decomposition(fd)
    prims = primitive_idempotents(fd) if commutative else None
    assert (products != []) == (commutative and fd.dim > 1)
    products.clear()
    assert fields_decomposition(fd) is report
    if commutative:
        assert primitive_idempotents(fd) is prims
        assert report.primitives is prims
    assert products == []


# --- SpanBasis ---------------------------------------------------------------------


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_span_basis_matches_the_scalar_reduction(data):
    fd = data.draw(st.sampled_from(ALGEBRAS))
    field = fd.field
    inputs = data.draw(st.lists(vectors(fd), min_size=1, max_size=5))
    S = linalg.SpanBasis(field, fd.dim)
    R = RefSpanBasis(field)
    for v in inputs:
        assert S.add(raw(v)) == R.add(v)
        assert S.inserted == [raw(w) for w in R.inserted]
        assert S.dim == len(R.rows)
    combo = [Scalar(fd.field, c)
             for c in data.draw(st.lists(raw_values(field),
                                         min_size=len(inputs),
                                         max_size=len(inputs)))]
    inside = [field.zero] * fd.dim
    for c, v in zip(combo, inputs):
        inside = [a + c * x for a, x in zip(inside, v)]
    for probe in (inside, data.draw(vectors(fd))):
        coords = S.coordinates(raw(probe))
        ref = R.coordinates(probe)
        assert coords == (None if ref is None else raw(ref))
        assert S.contains(raw(probe)) == (coords is not None)
        if coords is not None:
            assert_canonical(field, coords)
    assert S.contains(raw(inside))


# --- whole-matrix routines ----------------------------------------------------------

MATRIX_FIELDS = [gf(2), gf(7), GF4, GF9, Q]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_rref_kernel_and_solve_match_the_scalar_elimination(data):
    F = data.draw(st.sampled_from(MATRIX_FIELDS))
    ncols = data.draw(st.integers(0, 7))
    entry = st.one_of(st.just(F.raw_zero), raw_values(F)).map(
        lambda c: Scalar(F, c))
    row = st.lists(entry, min_size=ncols, max_size=ncols)
    # zero rows, wide, square and tall shapes, and the empty matrix
    rows = data.draw(st.lists(st.one_of(st.just([F.zero] * ncols), row),
                              max_size=7))
    raw_rows = [raw(r) for r in rows]
    R, pivots = linalg.rref(F, raw_rows)
    ref_R, ref_pivots = ref_rref(F, rows)
    assert (R, pivots) == ([raw(r) for r in ref_R], ref_pivots)
    for r in R:
        assert_canonical(F, r)
    kernel = linalg.kernel_basis(F, raw_rows, ncols)
    assert kernel == [raw(v) for v in ref_kernel_basis(F, rows, ncols)]
    for v in kernel:
        assert_canonical(F, v)
    rhs = data.draw(st.lists(entry, min_size=len(rows), max_size=len(rows)))
    x = linalg.solve(F, raw_rows, raw(rhs))
    ref_x = ref_solve(F, rows, rhs)
    assert x == (None if ref_x is None else raw(ref_x))
    if x is not None:
        assert_canonical(F, x)


# --- polynomial layer ---------------------------------------------------------------
# GF(p) tuple helpers: polynomials are tuples of ints in [0, p), constant
# coefficient first, trailing zeros stripped.


def ref_ptrim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def ref_padd(a, b, p):
    n = max(len(a), len(b))
    out = [0] * n
    for i, x in enumerate(a):
        out[i] = x
    for i, x in enumerate(b):
        out[i] = (out[i] + x) % p
    return ref_ptrim(out)


def ref_pmul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return ref_ptrim(out)


def ref_pdivmod(a, b, p):
    a = list(a)
    q = [0] * max(1, len(a) - len(b) + 1)
    inv_lead = pow(b[-1], p - 2, p)
    while len(ref_ptrim(a)) >= len(b):
        a = list(ref_ptrim(a))
        shift = len(a) - len(b)
        coef = (a[-1] * inv_lead) % p
        q[shift] = coef
        for i, x in enumerate(b):
            a[shift + i] = (a[shift + i] - coef * x) % p
    return ref_ptrim(q), ref_ptrim(a)


def ref_pxgcd(a, b, p):
    r0, r1 = ref_ptrim(a), ref_ptrim(b)
    s0, s1 = (1,), ()
    t0, t1 = (), (1,)
    while r1:
        q, r = ref_pdivmod(r0, r1, p)
        r0, r1 = r1, r
        neg_q = tuple((-c) % p for c in q)
        s0, s1 = s1, ref_padd(s0, ref_pmul(neg_q, s1, p), p)
        t0, t1 = t1, ref_padd(t0, ref_pmul(neg_q, t1, p), p)
    return r0, s0, t0


def ref_remainder(F, a, b):
    """a modulo a monic b, by schoolbook division on F's raw ops."""
    r = list(a)
    while len(r) >= len(b):
        c, shift = r[-1], len(r) - len(b)
        for i, y in enumerate(b):
            r[shift + i] = F.reduce(F.raw_sub(r[shift + i], F.raw_mul(c, y)))
        while r and r[-1] == F.raw_zero:
            r.pop()
    return r


def ref_is_irreducible(F, m):
    """m of positive degree over a finite field F has no monic divisor of
    degree between 1 and deg m / 2, by trial division."""
    k = len(m) - 1
    values = [s.value for s in F.elements()]
    for d in range(1, k // 2 + 1):
        for tail in itertools.product(values, repeat=d):
            if not ref_remainder(F, m, tuple(tail) + (F.raw_one,)):
                return False
    return k >= 1


def ref_ext_mul(F, a, b):
    rem = ref_pdivmod(ref_pmul(ref_ptrim(a), ref_ptrim(b), F.p),
                      F.modulus, F.p)[1]
    return rem + (0,) * (F.k - len(rem))


def ref_ext_inv(F, a):
    g, s, _ = ref_pxgcd(ref_ptrim(a), F.modulus, F.p)
    c_inv = pow(g[0], F.p - 2, F.p)
    rem = ref_pdivmod(tuple((c * c_inv) % F.p for c in s),
                      F.modulus, F.p)[1]
    return rem + (0,) * (F.k - len(rem))


def ref_ext_canonical(F, raw):
    raw = tuple(c % F.p for c in raw)
    if len(raw) > F.k:
        raw = ref_pdivmod(raw, F.modulus, F.p)[1]
    return raw + (0,) * (F.k - len(raw))


def scalar_poly_divmod(F, a, b):
    """Schoolbook division on Scalars: (q, r) with a = q b + r."""
    r = [Scalar(F, c) for c in a]
    b = [Scalar(F, c) for c in b]
    q = [F.zero] * max(0, len(r) - len(b) + 1)
    while len(r) >= len(b):
        c = r[-1] / b[-1]
        shift = len(r) - len(b)
        q[shift] = c
        for i, y in enumerate(b):
            r[shift + i] = r[shift + i] - c * y
        while r and not r[-1]:
            r.pop()
    return q, r


EXTENSIONS = [gf(2, 2, [1, 1, 1]), gf(3, 2, [1, 0, 1]), gf(2, 3, [1, 0, 1, 1]),
              gf(3, 4, [1, 0, 1, 1, 1]), gf(5, 2, [1, 1, 1])]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_extension_arithmetic_matches_the_tuple_helpers(data):
    F = data.draw(st.sampled_from(EXTENSIONS))
    a = data.draw(raw_values(F))
    b = data.draw(raw_values(F))
    assert F.raw_mul(a, b) == encode(F, ref_ext_mul(F, decode(F, a),
                                                    decode(F, b)))
    if a:
        assert F.raw_inv(a) == encode(F, ref_ext_inv(F, decode(F, a)))
    raw = data.draw(st.lists(st.integers(-2 * F.p, 2 * F.p),
                             max_size=2 * F.k + 1))
    assert F._canonical(raw) == encode(F, ref_ext_canonical(F, raw))
    assert F.value_to_json(F._canonical(raw)) == list(
        ref_ext_canonical(F, raw))


@pytest.mark.parametrize("F, degree", [
    (gf(2), 4), (gf(3), 4), (EXTENSIONS[0], 4), (EXTENSIONS[2], 3),
    (EXTENSIONS[1], 3),
], ids=["gf2", "gf3", "gf4", "gf8", "gf9"])
def test_poly_irreducible_agrees_with_trial_division(F, degree):
    # every monic polynomial up to `degree`, squares and other repeated
    # factors among them, and each one times the last nonzero element,
    # which over GF(3), GF(4), GF(8) and GF(9) is not 1
    values = [s.value for s in F.elements()]
    c = values[-1]
    for n in range(1, degree + 1):
        for tail in itertools.product(values, repeat=n):
            m = tail + (F.raw_one,)
            expected = ref_is_irreducible(F, m)
            assert poly_irreducible(F, m) == expected
            scaled = tuple(F.reduce(F.raw_mul(c, x)) for x in m)
            assert poly_irreducible(F, scaled) == expected


def test_poly_irreducible_on_repeated_factors():
    # over Q, a field leaf of the split reads irreducibility off
    # poly_factor_rational (test_structure.py)
    assert not poly_irreducible(gf(2), (1, 0, 1))           # (x + 1)^2
    assert not poly_irreducible(gf(2), (1, 0, 1, 0, 1))     # (x^2 + x + 1)^2


def ref_poly_inv_mod(F, a, m):
    """The inverse of a modulo m, of degree below deg m, by the
    half-extended Euclidean algorithm: only the cofactor of a is carried,
    since s * a = r (mod m) is all an inverse needs."""
    r0, r1 = m, poly_divmod(F, a, m)[1]
    s0, s1 = (), (F.raw_one,)
    while len(r1) > 1:
        q, r = poly_divmod(F, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, poly_sub(F, s0, poly_mul(F, q, s1))
    if not r1:
        raise DivisionByZero("polynomial shares a factor with the modulus")
    c = F.raw_inv(r1[0])
    return tuple(F.reduce(F.raw_mul(x, c)) for x in s1)


# irreducible moduli over each field, for ref_poly_inv_mod; x^2 + x + w
# over GF(4) and GF(9), for w the residue of x
MODULI = [
    (gf(2), [(1, 1, 1), (1, 1, 0, 1)]),
    (gf(7), [(1, 0, 1), (2, 0, 0, 1)]),
] + [(F, [tuple(encode(F, c) for c in ((0, 1), (1,), (1,)))])
     for F in EXTENSIONS[:2]] + [
    (Q, [tuple(map(Fraction, m)) for m in ((-2, 0, 1), (-2, 0, 0, 1))]),
]


def polys(F):
    return st.lists(raw_values(F), max_size=6).map(
        lambda c: poly_trim(F, c))


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_poly_divmod_and_inv_mod(data):
    F, moduli = data.draw(st.sampled_from(MODULI))
    a = data.draw(polys(F))
    b = data.draw(polys(F).filter(bool))
    q, r = poly_divmod(F, a, b)
    assert len(r) < len(b)
    assert (list(q), list(r)) == tuple(
        [s.value for s in part] for part in scalar_poly_divmod(F, a, b))
    m = data.draw(st.sampled_from(moduli))
    if poly_divmod(F, a, m)[1]:
        inv = ref_poly_inv_mod(F, a, m)
        assert len(inv) < len(m)
        product = [F.zero] * (len(inv) + len(a) - 1)
        for i, x in enumerate(inv):
            for j, y in enumerate(a):
                product[i + j] += Scalar(F, x) * Scalar(F, y)
        rem = scalar_poly_divmod(F, [s.value for s in product], m)[1]
        assert rem == [F.one]


# --- log/exp tables of GF(p^k) --------------------------------------------------------


def bundled_extension_fields():
    """The extension fields of the bundled instances, one per modulus."""
    specs = {}
    for name in cli.bundled_names() + [f"lemma3/{n}"
                                       for n in cli.bundled_names("lemma3")]:
        spec = cli.bundled_instance(name)["field"]
        if spec.get("k", 1) > 1:
            specs[(spec["p"], spec["k"], tuple(spec["modulus"]))] = spec
    return [make_field(spec) for _, spec in sorted(specs.items())]


def poly_of(F, code):
    return poly_trim(F.base, decode(F, code))


def test_extension_tables_match_the_polynomial_layer():
    fields_seen = bundled_extension_fields()
    assert sorted(F.size() for F in fields_seen) == [4, 8, 9, 25, 27, 81]
    for F in fields_seen:
        base = F.base
        values = [s.value for s in F.elements()]
        assert values == list(range(F.size()))
        assert [decode(F, v) for v in values] == list(
            itertools.product(range(F.p), repeat=F.k))
        for a, b in itertools.product(values, repeat=2):
            product = poly_divmod(base, poly_mul(base, poly_of(F, a),
                                                 poly_of(F, b)),
                                  F.modulus)[1]
            assert F.raw_mul(a, b) == encode(F, product)
        for a in values[1:]:
            inverse = ref_poly_inv_mod(base, poly_of(F, a), F.modulus)
            assert F.raw_inv(a) == encode(F, inverse)


def coordinatewise(F, op, a, b):
    return encode(F, [op(x, y) for x, y in zip(decode(F, a), decode(F, b))])


def assert_raw_operators(F, pairs):
    """raw_add, raw_sub and raw_neg against the coordinatewise operations
    mod p, raw_mul against the product on the polynomial layer, and
    raw_inv against the half-extended Euclidean algorithm, on the pairs
    and on every a of a pair with 0, itself and -a: a + (-a) reads the
    one Zech entry log(1 + g^d) with 1 + g^d = 0."""
    base, zero = F.base, F.raw_zero
    values = sorted({v for pair in pairs for v in pair} | {zero})
    pairs = list(pairs) + [
        (a, b) for a in values
        for b in (zero, a, coordinatewise(F, operator.sub, zero, a))]
    for a, b in pairs:
        assert F.raw_add(a, b) == coordinatewise(F, operator.add, a, b)
        assert F.raw_sub(a, b) == coordinatewise(F, operator.sub, a, b)
        product = poly_divmod(base, poly_mul(base, poly_of(F, a),
                                             poly_of(F, b)), F.modulus)[1]
        assert F.raw_mul(a, b) == encode(F, product)
    for a in values:
        assert F.raw_neg(a) == coordinatewise(F, operator.sub, zero, a)
        if a:
            inverse = ref_poly_inv_mod(base, poly_of(F, a), F.modulus)
            assert F.raw_inv(a) == encode(F, inverse)
        else:
            with pytest.raises(DivisionByZero):
                F.raw_inv(a)
    minus_one = coordinatewise(F, operator.sub, zero, F.raw_one)
    assert F.raw_add(F.raw_one, minus_one) == zero


@pytest.mark.parametrize("F", bundled_extension_fields(), ids=str)
def test_raw_operators_on_every_pair_of_a_bundled_extension_field(F):
    assert_raw_operators(F, itertools.product(range(F.size()), repeat=2))


@pytest.mark.parametrize("F", [gf(2, 8, [1, 0, 1, 1, 1, 0, 0, 0, 1]),
                               gf(7, 3, [3, 0, 0, 1])], ids=str)
def test_raw_operators_on_drawn_pairs_of_a_larger_extension_field(F):
    rng = random.Random(F.size())
    q = F.size()
    assert_raw_operators(F, [(rng.randrange(q), rng.randrange(q))
                             for _ in range(400)])


def test_the_first_raw_operator_builds_the_tables_once(monkeypatch):
    """The five raw operators of one field object share one table build,
    on first use; another object of the same field builds its own."""
    builds = []
    original = fields.ExtensionField._build_tables

    def counted(self):
        builds.append(self)
        return original(self)

    monkeypatch.setattr(fields.ExtensionField, "_build_tables", counted)
    F = fields.ExtensionField(3, 2, (1, 0, 1))
    assert builds == []
    x = F.scalar([1, 1])
    assert [(-x) * x.inv() - x + x, x ** 3] == [-F.one, F.scalar([1, 2])]
    assert F.raw_add(x.value, F.raw_one) == F.scalar([2, 1]).value
    assert builds == [F]
    G = fields.ExtensionField(3, 2, (1, 0, 1))
    assert G == F and G.one * G.one == G.one
    assert builds == [F, G]


@pytest.mark.parametrize("corruption, message", [
    ("powers[5] = powers[6]", "distinct nonzero"),
    ("powers[5], powers[6] = powers[6], powers[5]", "walk of its generator"),
])
def test_corrupted_exp_table_fails_its_certificate_under_optimized_python(
        tmp_path, corruption, message):
    """A wrong power handed to the table certificate exits 1 under -O: a
    repeated power, and two swapped powers, which are still distinct."""
    script = tmp_path / "corrupt_exp.py"
    script.write_text(
        "from fcunits import errors, fields\n"
        "original = fields.ExtensionField._certify_tables\n"
        "def corrupt(self, g, powers):\n"
        f"    {corruption}\n"
        "    return original(self, g, powers)\n"
        "fields.ExtensionField._certify_tables = corrupt\n"
        "F = fields.gf(3, 2, [1, 0, 1])\n"
        "try:\n"
        "    F.one * F.one\n"
        "except errors.CertificateFailed as exc:\n"
        "    print(exc)\n"
        "    raise SystemExit(1)\n",
        encoding="utf-8")
    src = str(pathlib.Path(fields.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-O", str(script)],
                          capture_output=True, text=True, timeout=120,
                          env=env)
    assert proc.returncode == 1, proc.stderr
    assert message in proc.stdout


def test_corrupted_zech_list_fails_its_certificate_under_optimized_python(
        tmp_path):
    """A wrong Zech entry handed to its certificate exits 1 under -O."""
    script = tmp_path / "corrupt_zech.py"
    script.write_text(
        "from fcunits import errors, fields\n"
        "original = fields.ExtensionField._certify_zech\n"
        "def corrupt(self, powers, zech):\n"
        "    zech[2] = zech[3]\n"
        "    return original(self, powers, zech)\n"
        "fields.ExtensionField._certify_zech = corrupt\n"
        "F = fields.gf(3, 2, [1, 0, 1])\n"
        "try:\n"
        "    F.one + F.one\n"
        "except errors.CertificateFailed as exc:\n"
        "    print(exc)\n"
        "    raise SystemExit(1)\n",
        encoding="utf-8")
    src = str(pathlib.Path(fields.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-O", str(script)],
                          capture_output=True, text=True, timeout=120,
                          env=env)
    assert proc.returncode == 1, proc.stderr
    assert "the Zech list of GF(3^2) is not log(1 + g^d)" in proc.stdout


@pytest.mark.parametrize("d, entry", [
    (4, lambda zech, n: zech[0]),             # the zero entry moved
    (0, lambda zech, n: 2 * n - 1),           # a second zero entry
    (1, lambda zech, n: zech[1] + n),         # an index past the powers
], ids=["moved-zero", "second-zero", "past-the-powers"])
def test_misplaced_zech_zero_fails_its_certificate(monkeypatch, d, entry):
    original = fields.ExtensionField._certify_zech

    def corrupt(self, powers, zech):
        zech[d] = entry(zech, len(powers))
        return original(self, powers, zech)

    monkeypatch.setattr(fields.ExtensionField, "_certify_zech", corrupt)
    F = fields.ExtensionField(3, 2, (1, 0, 1))
    with pytest.raises(CertificateFailed, match="is not log"):
        F.one - F.one


def test_repeated_power_fails_the_table_certificate(monkeypatch):
    """A generator whose powers repeat before q - 1 steps names the field
    and the count it missed; a fresh field object builds its own tables."""
    original = fields.ExtensionField._certify_tables

    def repeat_a_power(self, g, powers):
        powers[5] = powers[6]
        return original(self, g, powers)

    monkeypatch.setattr(fields.ExtensionField, "_certify_tables",
                        repeat_a_power)
    F = fields.ExtensionField(3, 2, (1, 0, 1))
    with pytest.raises(CertificateFailed,
                       match="are not q - 1 distinct nonzero elements") as exc:
        F.one * F.one
    assert "the generator of GF(3^2) are" in str(exc.value)
