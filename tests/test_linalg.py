import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from fcunits import linalg
from fcunits.fields import gf, rationals


# linalg computes on canonical raw values; the helpers below build them
# from ints and check results with Scalar arithmetic


def mat(field, rows):
    return [vec(field, row) for row in rows]


def vec(field, xs):
    return [field.from_int(x).value for x in xs]


def mat_vec(field, rows, v):
    return [sum((field.scalar(a) * field.scalar(x) for a, x in zip(row, v)),
                field.zero).value for row in rows]


def mat_mul(field, a, b):
    cols = list(zip(*b))
    return [mat_vec(field, cols, row) for row in a]


def identity(field, n):
    return [[field.raw_one if i == j else field.raw_zero for j in range(n)]
            for i in range(n)]


def rank(field, rows):
    return len(linalg.rref(field, rows)[1])


def inverse_by_columns(field, A):
    """A^-1 from one `linalg.solve` per column of the identity, or None
    when some column has no solution."""
    cols = [linalg.solve(field, A, e) for e in identity(field, len(A))]
    if any(c is None for c in cols):
        return None
    return [list(r) for r in zip(*cols)]


def test_rref_known():
    F = gf(5)
    R, pivots = linalg.rref(F, mat(F, [[1, 2, 3], [2, 4, 1], [0, 0, 1]]))
    assert pivots == [0, 2]
    assert R == mat(F, [[1, 2, 0], [0, 0, 1], [0, 0, 0]])


def test_rank():
    F = gf(3)
    assert rank(F, mat(F, [[1, 1], [2, 2]])) == 1
    assert rank(F, mat(F, [[1, 0], [0, 1]])) == 2


def test_solve_round_trip():
    F = gf(7)
    rng = random.Random(11)
    for _ in range(20):
        A = mat(F, [[rng.randrange(7) for _ in range(4)] for _ in range(4)])
        b = vec(F, [rng.randrange(7) for _ in range(4)])
        x = linalg.solve(F, A, b)
        if x is not None:
            assert mat_vec(F, A, x) == b


def test_solve_inconsistent():
    F = gf(5)
    assert linalg.solve(F, mat(F, [[1, 0], [1, 0]]), vec(F, [1, 2])) is None


def test_solve_underdetermined_sets_free_vars_to_zero():
    F = gf(5)
    assert linalg.solve(F, mat(F, [[1, 1]]), vec(F, [3])) == vec(F, [3, 0])


def test_kernel_basis_annihilates():
    F = gf(3)
    A = mat(F, [[1, 1, 1], [0, 1, 2]])
    basis = linalg.kernel_basis(F, A, 3)
    assert len(basis) == 3 - rank(F, A)
    for v in basis:
        assert mat_vec(F, A, v) == vec(F, [0, 0])


def test_invert_round_trip_and_singular():
    F = gf(7)
    rng = random.Random(3)
    seen_invertible = False
    for _ in range(20):
        A = mat(F, [[rng.randrange(7) for _ in range(5)] for _ in range(5)])
        Ainv = inverse_by_columns(F, A)
        if Ainv is None:
            assert rank(F, A) < 5
            continue
        seen_invertible = True
        I = identity(F, 5)
        assert mat_mul(F, A, Ainv) == I
        assert mat_mul(F, Ainv, A) == I
    assert seen_invertible
    assert inverse_by_columns(F, mat(F, [[1, 1], [2, 2]])) is None


def test_invert_rationals_exact():
    Q = rationals()
    A = [[Fraction(1, i + j + 1) for j in range(3)] for i in range(3)]
    Ainv = inverse_by_columns(Q, A)
    assert mat_mul(Q, A, Ainv) == identity(Q, 3)


small_vec = st.lists(st.integers(min_value=0, max_value=2),
                     min_size=4, max_size=4)


@settings(max_examples=150, deadline=None)
@given(st.lists(small_vec, min_size=1, max_size=6))
def test_span_basis_matches_rank_and_reconstructs(int_vecs):
    F = gf(3)
    vectors = [vec(F, xs) for xs in int_vecs]
    S = linalg.SpanBasis(F, 4)
    for v in vectors:
        grew = S.add(v)
        coords = S.coordinates(v)
        assert coords is not None
        # inserted vectors reconstruct what we fed in
        acc = [F.zero] * 4
        for c, w in zip(coords, S.inserted):
            acc = [a + F.scalar(c) * F.scalar(x) for a, x in zip(acc, w)]
        assert [a.value for a in acc] == v
        if grew:
            assert S.inserted[-1] == v
    assert S.dim == rank(F, vectors)


@settings(max_examples=100, deadline=None)
@given(st.lists(small_vec, min_size=1, max_size=4), small_vec)
def test_span_basis_contains_agrees_with_rank(int_vecs, probe_ints):
    F = gf(3)
    vectors = [vec(F, xs) for xs in int_vecs]
    probe = vec(F, probe_ints)
    S = linalg.SpanBasis(F, 4)
    for v in vectors:
        S.add(v)
    in_span = rank(F, vectors + [probe]) == rank(F, vectors)
    assert S.contains(probe) == in_span
    assert (S.coordinates(probe) is not None) == in_span
