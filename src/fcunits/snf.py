"""Smith normal form over the integers, with both transforms tracked.

Used to present quotients of finitely generated abelian groups in invariant
coordinates: for a relation matrix R we compute D = U * R * V with U, V
unimodular and D diagonal with the divisibility chain.  V and its inverse give
the coordinate change between the original generators and the invariant ones.
"""

from __future__ import annotations


def _identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(rows):
    """Diagonalize an integer matrix.

    Returns (D, U, V, Vinv) where D = U * R * V, U and V are unimodular,
    D is diagonal with D[t][t] dividing D[t+1][t+1], diagonal entries
    nonnegative, and Vinv is the integer inverse of V.
    """
    if not rows:
        raise ValueError("empty relation matrix")
    n_rows = len(rows)
    n_cols = len(rows[0])
    D = [list(map(int, r)) for r in rows]
    if any(len(r) != n_cols for r in D):
        raise ValueError("ragged relation matrix")
    U = _identity(n_rows)
    V = _identity(n_cols)
    Vinv = _identity(n_cols)

    def row_op(i, j, q):
        # row_i -= q * row_j
        for c in range(n_cols):
            D[i][c] -= q * D[j][c]
        for c in range(n_rows):
            U[i][c] -= q * U[j][c]

    def col_op(i, j, q):
        # col_i -= q * col_j ; Vinv gets the inverse op as a row op
        for r in range(n_rows):
            D[r][i] -= q * D[r][j]
        for r in range(n_cols):
            V[r][i] -= q * V[r][j]
        for c in range(n_cols):
            Vinv[j][c] += q * Vinv[i][c]

    def swap_rows(i, j):
        D[i], D[j] = D[j], D[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for r in range(n_rows):
            D[r][i], D[r][j] = D[r][j], D[r][i]
        for r in range(n_cols):
            V[r][i], V[r][j] = V[r][j], V[r][i]
        Vinv[i], Vinv[j] = Vinv[j], Vinv[i]

    def negate_row(i):
        for c in range(n_cols):
            D[i][c] = -D[i][c]
        for c in range(n_rows):
            U[i][c] = -U[i][c]

    t = 0
    while t < min(n_rows, n_cols):
        # find a pivot of least absolute value in the remaining block
        pivot = None
        for i in range(t, n_rows):
            for j in range(t, n_cols):
                if D[i][j] != 0 and (pivot is None or
                                     abs(D[i][j]) < abs(D[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        while True:
            dirty = False
            for i in range(t + 1, n_rows):
                if D[i][t] != 0:
                    q = D[i][t] // D[t][t]
                    row_op(i, t, q)
                    if D[i][t] != 0:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, n_cols):
                if D[t][j] != 0:
                    q = D[t][j] // D[t][t]
                    col_op(j, t, q)
                    if D[t][j] != 0:
                        swap_cols(t, j)
                        dirty = True
            if not dirty:
                break
        if D[t][t] < 0:
            negate_row(t)
        # enforce the divisibility chain: D[t][t] must divide the rest
        offender = None
        for i in range(t + 1, n_rows):
            for j in range(t + 1, n_cols):
                if D[i][j] % D[t][t] != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            row_op(t, offender, -1)  # add offending row into row t, redo
            continue
        t += 1
    diag = [D[i][i] if i < n_cols else 0 for i in range(min(n_rows, n_cols))]
    return diag, U, V, Vinv
