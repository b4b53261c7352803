"""Field decompositions of commutative group algebras against closed forms,
on algebras too large for the exhaustive oracle.

Over GF(q), for a finite abelian group T whose order q is prime to, the
group algebra GF(q)[T] is a sum of fields: for each d dividing the
exponent of T there are n_d / o_d components of degree o_d, where n_d
counts the elements of order d and o_d is the order of q modulo d.  So
there are sum_d n_d / o_d primitive idempotents and 2 to that many
idempotents.  Over Q, Q[C_n] has one component of degree phi(d) for each
d dividing n (Perlis and Walker, Trans. AMS 68, 1950).

A twisted cyclic algebra K_lambda C_n is K[x]/(x^n - mu), with mu the power
scalar of the generator.  Over GF(q) with p not dividing n, let r be the
order of mu and w a primitive (n r)-th root of unity with w^n = mu: the
roots of x^n - mu are w^j for j in {1 + t r mod n r : t < n}, and the
component degrees are the orbit sizes of j -> q j on that set.  When p
divides n, x^n - mu has a repeated root and the radical is nonzero.

For a finite group H whose order q is prime to, GF(q)[H x C_n] is
semisimple by Maschke, and with GF(q)[H] = sum_i M_(n_i)(GF(q)) and the
components GF(q^o) of GF(q)[C_n] it is the sum of the blocks
M_(n_i)(GF(q^o)).  M_1(GF(Q)) has 2 idempotents and M_2(GF(Q)) has
2 + Q (Q + 1): 0, 1 and one per pair of distinct lines in GF(Q)^2.

The expected values are computed here from the group's invariants with
the standard library alone, never by calling `structure`.
"""

import itertools
import math
from collections import Counter

import pytest

from fcunits.algebra import TwistedGroupAlgebra
from fcunits.cli import bundled_instance, bundled_names
from fcunits.cocycles import power_scalar
from fcunits.fc import instance_from_json
from fcunits.fields import gf, rationals
from fcunits.groups import finite_subgroup, make_group, symmetric_group_3_table
from fcunits.structure import (
    FiniteSubalgebra,
    count_idempotents,
    fields_decomposition,
    jacobson_radical,
)


def group_algebra_fd(invariants, field, table=None):
    torsion = {"invariants": list(invariants)}
    G = make_group({"kind": "central-extension", "rank": 0,
                    "torsion": {"table": table} if table else torsion})
    sub = finite_subgroup(G, list(G.torsion_elements()))
    return FiniteSubalgebra(TwistedGroupAlgebra(G, field), sub).fd


def element_orders(invariants):
    """n_d: the number of elements of each order d in the product of the
    cyclic groups C_m, m in invariants."""
    orders = Counter()
    for x in itertools.product(*(range(m) for m in invariants)):
        orders[math.lcm(*(m // math.gcd(xi, m)
                          for xi, m in zip(x, invariants)))] += 1
    return orders


def order_mod(q, d):
    """The least k >= 1 with q^k = 1 modulo d."""
    k, power = 1, q % d
    while power != 1 % d:
        k, power = k + 1, power * q % d
    return k


def finite_degrees(invariants, q):
    """The multiset of component degrees of GF(q)[T]."""
    degrees = Counter()
    for d, n in element_orders(invariants).items():
        o = order_mod(q, d)
        assert n % o == 0
        degrees[o] += n // o
    return degrees


def phi(n):
    return sum(math.gcd(k, n) == 1 for k in range(1, n + 1))


@pytest.mark.parametrize("invariants, q", [
    ([63], 2), ([35], 3), ([45], 2), ([60], 7), ([4, 6], 5),
], ids=["gf2-c63", "gf3-c35", "gf2-c45", "gf7-c60", "gf5-c4xc6"])
def test_finite_group_algebra_matches_the_cyclotomic_count(invariants, q):
    fd = group_algebra_fd(invariants, gf(q))
    report = fields_decomposition(fd)
    assert report.is_sum_of_fields
    expected = finite_degrees(invariants, q)
    primitives = sum(expected.values())
    assert Counter(c.dim for c in report.components) == expected
    assert {c.description for c in report.components} == \
        {f"GF({q}^{o})" for o in expected}
    assert len(report.primitives) == primitives
    assert count_idempotents(fd) == 2 ** primitives


@pytest.mark.parametrize("n", [12, 24, 36])
def test_rational_cyclic_group_algebra_matches_perlis_walker(n):
    fd = group_algebra_fd([n], rationals())
    report = fields_decomposition(fd)
    assert report.is_sum_of_fields
    expected = Counter(phi(d) for d in range(1, n + 1) if n % d == 0)
    assert Counter(c.dim for c in report.components) == expected
    assert Counter(c.description for c in report.components) == \
        Counter({f"degree-{k} extension of Q": v
                 for k, v in expected.items()})
    assert count_idempotents(fd) == 2 ** sum(expected.values())


def twisted_cyclic_degrees(n, q, r):
    """The multiset of component degrees of GF(q)[x]/(x^n - mu), mu of
    order r, p not dividing n: the orbit sizes of j -> q j modulo n r on
    {1 + t r : t < n}."""
    left, degrees = {(1 + t * r) % (n * r) for t in range(n)}, Counter()
    while left:
        j, size = left.pop(), 1
        k = j * q % (n * r)
        while k != j:
            left.remove(k)
            k, size = k * q % (n * r), size + 1
        degrees[size] += 1
    return degrees


@pytest.mark.parametrize("name", bundled_names("lemma3"))
def test_twisted_cyclic_algebra_matches_the_root_orbits(name):
    inst = instance_from_json(bundled_instance(f"lemma3/{name}"))
    (n,) = inst.group.torsion.invariants
    field = inst.field
    q, p = field.size(), field.characteristic
    mu = power_scalar(inst.cocycle, inst.group.element(t=(1,)))
    r = next(k for k in range(1, q) if mu ** k == field.one)
    report = fields_decomposition(inst.torsion_subalgebra().fd)
    if n % p == 0:
        assert not report.is_sum_of_fields
        assert report.reason == "nonzero radical"
        return
    assert report.is_sum_of_fields
    expected = twisted_cyclic_degrees(n, q, r)
    assert Counter(c.dim for c in report.components) == expected
    assert {c.description for c in report.components} == \
        {f"GF({q}^{o})" for o in expected}


def dihedral_times_cyclic(m, n):
    """The Cayley table of D_2m x C_n on r^i s^j c^k, keyed
    (i + m j) n + k: s r = r^-1 s."""
    def key(i, j, k):
        return (i % m + m * (j % 2)) * n + k % n
    elements = [(i, j, k) for j in range(2) for i in range(m)
                for k in range(n)]
    return [[key(i + (-1) ** j * a, j + b, k + c) for a, b, c in elements]
            for i, j, k in elements]


def symmetric3_times_cyclic(n):
    s3 = symmetric_group_3_table()
    return [[s3[x // n][y // n] * n + (x + y) % n for y in range(6 * n)]
            for x in range(6 * n)]


def matrix_idempotents(n, Q):
    assert n in (1, 2)
    return 2 if n == 1 else 2 + Q * (Q + 1)


@pytest.mark.parametrize("table, blocks, q, count", [
    (symmetric3_times_cyclic(8), [1, 1, 2], 7, 50_782_881_677_836_288),
    (dihedral_times_cyclic(4, 8), [1, 1, 1, 1, 2], 5,
     7_478_508_656_225_419_264),
], ids=["gf7-s3xc8", "gf5-d8xc8"])
def test_maschke_algebra_above_the_radical_cap_counts_by_blocks(
        table, blocks, q, count):
    # 48 and 64 dimensions, above the noncommutative radical's cap of 32:
    # the trace form has a zero kernel, so no coefficient chain runs
    assert sum(n * n for n in blocks) == len(table) // 8
    expected = 1
    for o, k in finite_degrees([8], q).items():
        for n in blocks:
            expected *= matrix_idempotents(n, q ** o) ** k
    assert expected == count
    fd = group_algebra_fd([], gf(q), table)
    assert jacobson_radical(fd).basis == []
    assert count_idempotents(fd) == count
