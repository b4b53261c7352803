"""The raw-value kernel of FDAlgebra and SpanBasis against Scalar loops.

The reference functions below are the plain Scalar implementations the
kernel replaced: the product loop over the structure table and the
Scalar echelon reduction.  Every kernel result must equal the reference
and consist of Scalars of the algebra's field with canonical values.
The algebras are twisted group algebras of finite groups with random
coboundary cocycles and bundled twisted cocycles, over GF(p), GF(p^k)
and Q, together with quotients and corners built from them.
"""

import itertools
import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from fcunits import cli, linalg
from fcunits.algebra import TwistedGroupAlgebra
from fcunits.cocycles import coboundary
from fcunits.fc import instance_from_json
from fcunits.fields import Scalar, gf, rationals
from fcunits.groups import (
    cyclic_table,
    finite_subgroup,
    make_group,
    symmetric_group_3_table,
)
from fcunits.structure import (
    corner_algebra,
    count_idempotents,
    is_semisimple,
    jacobson_radical,
    primitive_idempotents,
    quotient_algebra,
    subalgebra_from_units,
)

# --- Scalar references ---------------------------------------------------------


def ref_mul(fd, x, y):
    out = [fd.field.zero] * fd.dim
    for i, xi in enumerate(x):
        if not xi:
            continue
        for j, yj in enumerate(y):
            if not yj:
                continue
            cell = fd.table.get((i, j))
            if not cell:
                continue
            c = xi * yj
            for k, s in cell.items():
                out[k] = out[k] + c * s
    return out


def ref_power(fd, x, n):
    result = list(fd.one)
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


def ref_count_idempotents(fd):
    return sum(1 for combo in itertools.product(fd.field.elements(),
                                                repeat=fd.dim)
               if ref_mul(fd, list(combo), list(combo)) == list(combo))


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
    return rng.choice(list(field.nonzero_elements()))


def coboundary_algebra(group, field, rng):
    mu = [random_scalar(field, rng) for _ in range(group.torsion.size)]
    alg = TwistedGroupAlgebra(group, field, coboundary(group, field, mu))
    whole = finite_subgroup(group, list(group.torsion_elements()))
    return subalgebra_from_units(alg, whole).fd


def bundled_algebra(name):
    return instance_from_json(cli.bundled_instance(name)) \
        .torsion_subalgebra().fd


def derived(fd):
    """Quotient by the radical, or corners at the primitive idempotents."""
    if not is_semisimple(fd):
        yield quotient_algebra(fd, jacobson_radical(fd).basis).fd
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
    if field.kind == "prime":
        return st.integers(0, field.p - 1)
    return st.tuples(*[st.integers(0, field.p - 1)] * field.k)


def vectors(fd):
    # a third of the coordinates zero, so sparse vectors are common
    value = st.one_of(st.just(fd.field.raw_zero), raw_values(fd.field))
    return st.lists(value.map(fd.field.scalar), min_size=fd.dim,
                    max_size=fd.dim)


def assert_canonical(field, vec):
    for c in vec:
        assert isinstance(c, Scalar) and c.field == field
        assert type(c.value) is type(field.raw_zero)
        assert field._canonical(c.value) == c.value


# --- FDAlgebra ---------------------------------------------------------------------


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_products_match_the_scalar_loop(data):
    fd = data.draw(st.sampled_from(ALGEBRAS))
    x = data.draw(vectors(fd))
    y = data.draw(vectors(fd))
    n = data.draw(st.integers(0, 5))
    product = fd.mul(x, y)
    assert product == ref_mul(fd, x, y)
    assert_canonical(fd.field, product)
    power = fd.power(x, n)
    assert power == ref_power(fd, x, n)
    assert_canonical(fd.field, power)
    for v in (x, product, fd.one, fd.zero_vec()):
        assert fd.is_idempotent(v) == (ref_mul(fd, v, v) == v)
    columns = [ref_mul(fd, x, fd.basis_vec(j)) for j in range(fd.dim)]
    M = fd.left_mult_matrix(x)
    assert M == [[col[i] for col in columns] for i in range(fd.dim)]
    for row in M:
        assert_canonical(fd.field, row)
    trace = fd.trace_of_left_mult(x)
    assert trace == sum((M[i][i] for i in range(fd.dim)), fd.field.zero)
    assert_canonical(fd.field, [trace])


def test_idempotents_and_commutativity_match_the_scalar_loop():
    for fd in ALGEBRAS:
        basis = [fd.basis_vec(i) for i in range(fd.dim)]
        commutative = all(ref_mul(fd, a, b) == ref_mul(fd, b, a)
                          for a, b in itertools.combinations(basis, 2))
        assert fd.is_commutative()[0] == commutative
        if commutative:
            for e in primitive_idempotents(fd):
                assert fd.is_idempotent(e) and ref_mul(fd, e, e) == e
        if fd.field.is_finite() and fd.field.size() ** fd.dim <= 1024:
            assert count_idempotents(fd) == ref_count_idempotents(fd)


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
        assert S.add(v) == R.add(v)
        assert S.inserted == R.inserted
        assert S.dim == len(R.rows)
    combo = [fd.field.scalar(c)
             for c in data.draw(st.lists(raw_values(field),
                                         min_size=len(inputs),
                                         max_size=len(inputs)))]
    inside = fd.zero_vec()
    for c, v in zip(combo, inputs):
        inside = fd.add(inside, fd.scale(v, c))
    for probe in (inside, data.draw(vectors(fd))):
        coords = S.coordinates(probe)
        assert coords == R.coordinates(probe)
        assert S.contains(probe) == (coords is not None)
        if coords is not None:
            assert_canonical(field, coords)
    assert S.contains(inside)
