"""Smith normal form property tests."""

from hypothesis import given, settings, strategies as st

from fcunits.snf import smith_normal_form


def mat_mul_int(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)]
            for row in A]


def det_int(M):
    """Integer determinant by fraction-free Gaussian elimination (Bareiss)."""
    n = len(M)
    M = [list(r) for r in M]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if M[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if M[i][k] != 0), None)
            if swap is None:
                return 0
            M[k], M[swap] = M[swap], M[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
            M[i][k] = 0
        prev = M[k][k]
    return sign * M[n - 1][n - 1]


def matrices(max_dim=4, max_entry=9):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(
                st.lists(st.integers(-max_entry, max_entry),
                         min_size=c, max_size=c),
                min_size=r, max_size=r)))


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_snf_decomposition(rows):
    diag, U, V, Vinv = smith_normal_form(rows)
    n_rows, n_cols = len(rows), len(rows[0])
    prod = mat_mul_int(mat_mul_int(U, rows), V)
    for i in range(n_rows):
        for j in range(n_cols):
            expect = diag[i] if i == j and i < len(diag) else 0
            assert prod[i][j] == expect
    assert det_int(U) in (1, -1)
    assert det_int(V) in (1, -1)
    ident = mat_mul_int(V, Vinv)
    assert all(ident[i][j] == (1 if i == j else 0)
               for i in range(n_cols) for j in range(n_cols))
    for a, b in zip(diag, diag[1:]):
        assert a >= 0 and b >= 0
        if a != 0:
            assert b % a == 0
        else:
            assert b == 0


def test_snf_known_case():
    # relations 2x = 0, 4y = 0 plus the extra relation x + y = 0 collapse
    # Z_2 x Z_4 to a cyclic group of order 2*4/2... worked by hand: the
    # subgroup generated by (1,1) in Z_2 x Z_4 has order 4, quotient order 2.
    diag, _, _, _ = smith_normal_form([[2, 0], [0, 4], [1, 1]])
    nontrivial = [d for d in diag if d not in (0, 1)]
    assert nontrivial == [2]
